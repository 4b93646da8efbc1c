// galaxy_bench_client — load generator for galaxy_served.
//
//   galaxy_bench_client --port 8080 [--host 127.0.0.1]
//                       [--sql "SELECT ..."] [--connections 4]
//                       [--requests 1000 | --duration-s 10]
//                       [--deadline-ms 0] [--deadline-dist fixed|exp]
//                       [--update-every 0] [--update-table T]
//                       [--update-body "csv,row"] [--accept json|csv]
//                       [--seed 1] [--out results.json]
//
// Reviewed: a load generator lives on raw sockets by definition. Every
// socket here is non-blocking and driven by one poll(2) loop, so no call
// waits on the network.
// galaxy-lint: allow-file(blocking-socket-io)
//
// One thread holds --connections sockets (10k+ works; the process raises
// its own fd limit). Each connection is closed-loop: it sends a request,
// waits for the whole response, records the latency from first request
// byte to last response byte, and sends the next request at once. A
// connection the server closes reconnects. Connects start at most
// kRampBatch at a time, so the SYN burst of a large ramp stays inside the
// server's listen backlog. If every connect of that first ramp round fails
// before any connection is established, the server is unreachable: the run
// stops at once instead of reconnecting until the time is up.
//
// The run ends once --requests requests were issued and the ones in
// flight have drained, or, with --duration-s, at that wall time. Each
// connection makes every --update-every'th request a POST /update insert
// of --update-body into --update-table (exercising cache invalidation on
// the server); update latencies stay out of the latency histogram.
// --deadline-ms attaches X-Galaxy-Timeout-Ms to each query; with
// --deadline-dist exp each deadline is drawn from an exponential
// distribution with that mean (one RNG seeded by --seed), which mixes
// exact (200) and degraded (206) answers.
//
// The JSON report (stdout, or --out) contains per-status counts, latency
// mean/p50/p90/p99 in milliseconds, and the full power-of-two latency
// histogram in microseconds — the same bucket layout the server's
// /metrics histogram uses, and the format scripts/bench_to_csv.py
// accepts.
//
// Exit status: 0 when every request got an HTTP response (any status),
// 1 on transport errors or an unreachable server, 2 on usage errors.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "fd_limit.h"
#include "flags.h"

namespace {

using Clock = std::chrono::steady_clock;
using galaxy::tools::Flags;

// At most this many connects are in flight at once, so a 10k-connection
// ramp never overruns the server's listen backlog.
constexpr size_t kRampBatch = 512;

struct BenchConfig {
  std::string sql;
  std::string accept;
  int connections = 0;
  int64_t requests = 0;      // total request budget; 0 = duration mode
  int64_t deadline_ms = 0;   // 0 = no deadline header
  bool deadline_exp = false;
  int64_t update_every = 0;  // 0 = queries only
  std::string update_table;
  std::string update_body;
  uint64_t seed = 0;
};

struct RunResult {
  std::map<int, uint64_t> status_counts;
  std::vector<uint64_t> latencies_us;  // queries only
  uint64_t transport_errors = 0;
  uint64_t cache_hits = 0;
  uint64_t degraded = 0;
  /// errno of the failed connects when the first ramp round never
  /// connected (the run stopped there); 0 otherwise.
  int unreachable_errno = 0;
};

std::string QueryRequest(const BenchConfig& config, int64_t deadline_ms) {
  std::string request =
      "POST /query HTTP/1.1\r\nHost: bench\r\nAccept: " + config.accept +
      "\r\n";
  if (deadline_ms > 0) {
    request += "X-Galaxy-Timeout-Ms: " + std::to_string(deadline_ms) + "\r\n";
  }
  return request + "Content-Length: " + std::to_string(config.sql.size()) +
         "\r\n\r\n" + config.sql;
}

// If `buffer` starts with one complete response, consumes it and returns
// true; *status is 0 when the bytes are not an HTTP response at all.
bool TryConsumeResponse(std::string* buffer, int* status, bool* cache_hit,
                        bool* degraded, bool* close_after) {
  size_t header_end = buffer->find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  std::string_view headers(buffer->data(), header_end + 4);
  if (headers.size() < 12 || headers.compare(0, 5, "HTTP/") != 0) {
    *status = 0;
    return true;
  }
  // The server emits canonical header casing.
  size_t content_length = 0;
  size_t cl = headers.find("Content-Length:");
  if (cl != std::string::npos) {
    content_length = static_cast<size_t>(
        std::strtoull(buffer->c_str() + cl + 15, nullptr, 10));
  }
  size_t total = header_end + 4 + content_length;
  if (buffer->size() < total) return false;
  *status = std::atoi(buffer->c_str() + 9);
  *cache_hit = headers.find("X-Galaxy-Cache: hit") != std::string_view::npos;
  *degraded = *status == 206 ||
              headers.find("approximate-superset") != std::string_view::npos;
  *close_after = headers.find("Connection: close") != std::string_view::npos;
  buffer->erase(0, total);
  return true;
}

// One connection: kConnecting -> kSending -> kReading -> kSending ...
struct Conn {
  enum class State { kIdle, kConnecting, kSending, kReading };
  int fd = -1;
  State state = State::kIdle;
  std::string request;  // the request this connection carries now
  bool is_update = false;
  size_t send_offset = 0;
  std::string inbuf;
  uint64_t issued = 0;  // requests carried so far, for --update-every
  Clock::time_point sent_at;
};

class LoadGenerator {
 public:
  LoadGenerator(const BenchConfig& config, const sockaddr_in& addr)
      : config_(config),
        addr_(addr),
        conns_(static_cast<size_t>(config.connections)),
        query_request_(QueryRequest(config, config.deadline_ms)),
        update_request_("POST /update?table=" + config.update_table +
                        "&op=insert HTTP/1.1\r\nHost: bench\r\n"
                        "Content-Length: " +
                        std::to_string(config.update_body.size()) +
                        "\r\n\r\n" + config.update_body),
        rng_(config.seed),
        exp_dist_(config.deadline_ms > 0
                      ? 1.0 / static_cast<double>(config.deadline_ms)
                      : 1.0) {
    result_.latencies_us.reserve(1 << 20);
  }

  // Runs until the request budget is issued and drained or, in duration
  // mode, until `stop_at`; requests in flight at `stop_at` are dropped.
  RunResult Run(Clock::time_point stop_at) {
    const bool by_duration = config_.requests == 0;
    std::vector<pollfd> pfds;
    std::vector<size_t> pfd_conn;  // pfd_conn[i]: the connection pfds[i] polls
    while (!by_duration || Clock::now() < stop_at) {
      size_t connecting = 0;
      for (const Conn& c : conns_) {
        if (c.state == Conn::State::kConnecting) ++connecting;
      }
      for (Conn& c : conns_) {
        if (connecting >= kRampBatch || !BudgetLeft()) break;
        if (c.state != Conn::State::kIdle) continue;
        Issue(&c);
        const int err = Connect(&c);
        if (err == 0) {
          ++connecting;
        } else {
          ++result_.transport_errors;  // The issued request is lost.
          ConnectFailed(err);
        }
      }
      // Every connect of the first ramp round failed and none ever
      // succeeded: the server is unreachable, and retrying would spin.
      if (!connected_ &&
          connects_failed_ >= std::min(conns_.size(), kRampBatch)) {
        result_.unreachable_errno = last_connect_errno_;
        break;
      }

      pfds.clear();
      pfd_conn.clear();
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i].fd < 0) continue;
        short events =
            conns_[i].state == Conn::State::kReading ? POLLIN : POLLOUT;
        pfds.push_back(pollfd{conns_[i].fd, events, 0});
        pfd_conn.push_back(i);
      }
      // Nothing in flight: the budget is spent, or (with time left) no
      // connect got started, so give up instead of spinning.
      if (pfds.empty() && (by_duration || !BudgetLeft())) break;
      ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/100);
      for (size_t i = 0; i < pfds.size(); ++i) {
        if (pfds[i].revents != 0) {
          OnReady(&conns_[pfd_conn[i]], pfds[i].revents);
        }
      }
    }
    for (Conn& c : conns_) Close(&c);
    return std::move(result_);
  }

 private:
  bool BudgetLeft() const {
    return config_.requests == 0 || issued_ < config_.requests;
  }

  // Takes the next request of the budget and loads it into `c`.
  void Issue(Conn* c) {
    ++issued_;
    c->is_update = config_.update_every > 0 &&
                   !config_.update_table.empty() && c->issued > 0 &&
                   c->issued % static_cast<uint64_t>(config_.update_every) ==
                       0;
    ++c->issued;
    if (c->is_update) {
      c->request = update_request_;
    } else if (config_.deadline_exp && config_.deadline_ms > 0) {
      c->request = QueryRequest(
          config_, std::max<int64_t>(1, static_cast<int64_t>(exp_dist_(rng_))));
    } else {
      c->request = query_request_;
    }
    c->send_offset = 0;
  }

  // Starts a non-blocking connect; OnReady completes it on POLLOUT.
  // Returns 0, or the errno of a connect that failed at once.
  int Connect(Conn* c) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return errno;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr_),
                  sizeof(addr_)) != 0 &&
        errno != EINPROGRESS) {
      const int err = errno;
      ::close(fd);
      return err;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    c->fd = fd;
    c->state = Conn::State::kConnecting;
    return 0;
  }

  void ConnectFailed(int err) {
    ++connects_failed_;
    last_connect_errno_ = err;
  }

  // The next ramp pass reconnects an idle connection.
  void Close(Conn* c) {
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
    c->state = Conn::State::kIdle;
    c->inbuf.clear();
  }

  void Fail(Conn* c) {
    ++result_.transport_errors;
    Close(c);
  }

  void OnReady(Conn* c, short revents) {
    if (c->state == Conn::State::kConnecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
        err = errno;
      }
      if (err == 0 && (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        err = ECONNRESET;
      }
      if (err != 0) {
        ConnectFailed(err);
        Fail(c);
        return;
      }
      connected_ = true;
      c->state = Conn::State::kSending;
      c->sent_at = Clock::now();
    }
    if (c->state == Conn::State::kSending) {
      while (c->send_offset < c->request.size()) {
        ssize_t n = ::send(c->fd, c->request.data() + c->send_offset,
                           c->request.size() - c->send_offset, MSG_NOSIGNAL);
        if (n > 0) {
          c->send_offset += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          return;
        } else {
          Fail(c);
          return;
        }
      }
      c->state = Conn::State::kReading;
      return;
    }

    char chunk[8192];
    bool closed = false;
    for (;;) {
      ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        c->inbuf.append(chunk, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(chunk)) break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        closed = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
        break;
      }
    }
    int status = 0;
    bool cache_hit = false, degraded = false, close_after = false;
    if (!TryConsumeResponse(&c->inbuf, &status, &cache_hit, &degraded,
                            &close_after)) {
      // EOF mid-response (an idle close under overload, or shutdown): the
      // dropped request is a transport error.
      if (closed) Fail(c);
      return;
    }
    if (status == 0) {
      Fail(c);
      return;
    }
    ++result_.status_counts[status];
    if (!c->is_update) {
      result_.latencies_us.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - c->sent_at)
              .count()));
    }
    if (cache_hit) ++result_.cache_hits;
    if (degraded) ++result_.degraded;
    if (close_after || !BudgetLeft()) {
      Close(c);
      return;
    }
    Issue(c);
    c->state = Conn::State::kSending;
    c->sent_at = Clock::now();
  }

  const BenchConfig& config_;
  const sockaddr_in addr_;
  std::vector<Conn> conns_;
  const std::string query_request_;
  const std::string update_request_;
  std::mt19937_64 rng_;
  std::exponential_distribution<double> exp_dist_;
  int64_t issued_ = 0;
  uint64_t connects_failed_ = 0;
  int last_connect_errno_ = 0;
  bool connected_ = false;
  RunResult result_;
};

double Quantile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, 1);
  if (!flags.ok() ||
      !flags.CheckAllowed({"host", "port", "sql", "accept", "connections",
                           "requests", "duration-s", "deadline-ms",
                           "deadline-dist", "update-every", "update-table",
                           "update-body", "seed", "out"})) {
    std::fprintf(stderr, "galaxy_bench_client: %s\n", flags.error().c_str());
    return 2;
  }
  if (!flags.Has("port")) {
    std::fprintf(stderr, "galaxy_bench_client: --port is required\n");
    return 2;
  }

  BenchConfig config;
  config.sql = flags.Get("sql", "SELECT * FROM data");
  config.accept = flags.Get("accept") == "csv" ? "text/csv"
                                               : "application/json";
  config.update_table = flags.Get("update-table");
  config.update_body = flags.Get("update-body");
  std::string dist = flags.Get("deadline-dist", "fixed");
  if (dist != "fixed" && dist != "exp") {
    std::fprintf(stderr,
                 "galaxy_bench_client: --deadline-dist must be fixed|exp\n");
    return 2;
  }
  config.deadline_exp = dist == "exp";

  auto port = flags.GetInt("port", 0);
  auto connections = flags.GetInt("connections", 4);
  auto requests = flags.GetInt("requests", 1000);
  auto duration_s = flags.GetInt("duration-s", 0);
  auto deadline_ms = flags.GetInt("deadline-ms", 0);
  auto update_every = flags.GetInt("update-every", 0);
  auto seed = flags.GetInt("seed", 1);
  for (const auto* v : {&port, &connections, &requests, &duration_s,
                        &deadline_ms, &update_every, &seed}) {
    if (!v->ok()) {
      std::fprintf(stderr, "galaxy_bench_client: %s\n",
                   v->status().message().c_str());
      return 2;
    }
  }
  if (*port <= 0 || *port > 65535 || *connections <= 0) {
    std::fprintf(stderr, "galaxy_bench_client: bad --port/--connections\n");
    return 2;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  if (::inet_pton(AF_INET, flags.Get("host", "127.0.0.1").c_str(),
                  &addr.sin_addr) != 1) {
    std::fprintf(stderr, "galaxy_bench_client: --host must be IPv4\n");
    return 2;
  }
  config.connections = static_cast<int>(*connections);
  config.requests = *duration_s > 0 ? 0 : *requests;
  config.deadline_ms = *deadline_ms;
  config.update_every = *update_every;
  config.seed = static_cast<uint64_t>(*seed);

  galaxy::tools::RaiseFdLimit();
  auto start = Clock::now();
  RunResult result = LoadGenerator(config, addr).Run(
      start + std::chrono::seconds(std::max<int64_t>(*duration_s, 0)));
  double wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  if (result.unreachable_errno != 0) {
    std::fprintf(stderr, "galaxy_bench_client: cannot connect to %s:%lld: %s\n",
                 flags.Get("host", "127.0.0.1").c_str(),
                 static_cast<long long>(*port),
                 std::strerror(result.unreachable_errno));
    return 1;
  }

  std::vector<uint64_t>& latencies = result.latencies_us;
  std::sort(latencies.begin(), latencies.end());

  uint64_t total = 0, sum_us = 0;
  for (const auto& [code, n] : result.status_counts) total += n;
  for (uint64_t us : latencies) sum_us += us;

  // Power-of-two microsecond buckets, the layout server/metrics.h uses.
  std::map<uint64_t, uint64_t> histogram;
  for (uint64_t us : latencies) {
    int bucket = us <= 1 ? 0 : std::bit_width(us - 1);
    histogram[uint64_t{1} << bucket] += 1;
  }

  std::string json = "{\n";
  json += "  \"connections\": " + std::to_string(config.connections) + ",\n";
  json += "  \"requests\": " + std::to_string(total) + ",\n";
  json += "  \"transport_errors\": " + std::to_string(result.transport_errors) +
          ",\n";
  json += "  \"cache_hits\": " + std::to_string(result.cache_hits) + ",\n";
  json += "  \"degraded\": " + std::to_string(result.degraded) + ",\n";
  json += "  \"duration_s\": " + std::to_string(wall_s) + ",\n";
  json += "  \"qps\": " +
          std::to_string(wall_s > 0 ? static_cast<double>(total) / wall_s
                                    : 0) +
          ",\n";
  json += "  \"status\": {";
  bool first = true;
  for (const auto& [code, n] : result.status_counts) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::to_string(code) + "\": " + std::to_string(n);
  }
  json += "},\n";
  char num[64];
  std::snprintf(num, sizeof(num), "%.3f",
                latencies.empty()
                    ? 0.0
                    : static_cast<double>(sum_us) /
                          static_cast<double>(latencies.size()) / 1000.0);
  json += "  \"latency_ms\": {\"mean\": " + std::string(num);
  for (const auto& [name, q] :
       std::vector<std::pair<const char*, double>>{
           {"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p999", 0.999}}) {
    std::snprintf(num, sizeof(num), "%.3f", Quantile(latencies, q) / 1000.0);
    json += std::string(", \"") + name + "\": " + num;
  }
  json += "},\n";
  json += "  \"histogram_us\": [";
  first = true;
  for (const auto& [le, n] : histogram) {
    if (!first) json += ", ";
    first = false;
    json += "{\"le\": " + std::to_string(le) +
            ", \"count\": " + std::to_string(n) + "}";
  }
  json += "]\n}\n";

  if (flags.Has("out")) {
    // Benchmark result JSON, not durable server state.
    // galaxy-lint: allow(raw-file-io)
    std::ofstream out(flags.Get("out"));
    out << json;
    if (!out) {
      std::fprintf(stderr, "galaxy_bench_client: cannot write %s\n",
                   flags.Get("out").c_str());
      return 1;
    }
  } else {
    std::fwrite(json.data(), 1, json.size(), stdout);
  }
  return result.transport_errors == 0 ? 0 : 1;
}
