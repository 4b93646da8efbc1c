#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <strings.h>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Parses one complete response at the front of `in`. Returns the number
/// of bytes it spans, or 0 if more bytes are needed; -1 on garbage.
long ParseResponse(const std::string& in, int* status, std::string* body) {
  const size_t header_end = in.find("\r\n\r\n");
  if (header_end == std::string::npos) return 0;
  if (in.compare(0, 5, "HTTP/") != 0) return -1;
  const size_t space = in.find(' ');
  if (space == std::string::npos || space > header_end) return -1;
  *status = std::atoi(in.c_str() + space + 1);
  size_t length = 0;
  size_t line = in.find("\r\n") + 2;
  while (line < header_end) {
    size_t eol = in.find("\r\n", line);
    if (eol - line > 15 &&
        ::strncasecmp(in.c_str() + line, "Content-Length:", 15) == 0) {
      length = std::strtoull(in.c_str() + line + 15, nullptr, 10);
    }
    line = eol + 2;
  }
  const size_t total = header_end + 4 + length;
  if (in.size() < total) return 0;
  body->assign(in, header_end + 4, length);
  return static_cast<long>(total);
}

struct Connection {
  RequestSource* source = nullptr;
  int fd = -1;
  bool busy = false;
  bool exhausted = false;
  Request request;
  std::string out;
  size_t out_offset = 0;
  std::string in;
  double sent = 0.0;  // seconds since start

  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    in.clear();
  }
};

}  // namespace

double Drive(const std::vector<RequestSource*>& sources,
             const DriveOptions& options,
             const std::function<void(const Completion&)>& on_done) {
  const Clock::time_point start = Clock::now();
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const double window_begin = options.warmup_s;
  const double window_end = options.warmup_s + options.measure_s;
  const double give_up = window_end + options.drain_s;
  double last_measured_done = window_end;

  std::vector<Connection> conns(sources.size());
  for (size_t c = 0; c < sources.size(); ++c) conns[c].source = sources[c];

  auto finish = [&](Connection& conn, int status, const std::string* body) {
    const double t = now_s();
    Completion done;
    done.request = &conn.request;
    done.status = status;
    done.body = body;
    done.latency_ms = (t - conn.sent) * 1e3;
    done.measured = conn.sent >= window_begin && conn.sent < window_end;
    if (done.measured) last_measured_done = std::max(last_measured_done, t);
    conn.busy = false;
    on_done(done);
  };

  auto try_send = [&](Connection& conn) {
    if (conn.busy || conn.exhausted) return;
    const double t = now_s();
    std::optional<Request> next;
    if (t < window_end) next = conn.source->Next();
    if (!next) {
      conn.exhausted = true;
      conn.Close();
      return;
    }
    conn.request = std::move(*next);
    conn.sent = t;
    conn.busy = true;
    if (conn.fd < 0) conn.fd = Connect(options.port);
    if (conn.fd < 0) {
      finish(conn, 0, nullptr);
      return;
    }
    conn.out = ToHttp(conn.request);
    conn.out_offset = 0;
  };

  std::string body;
  std::vector<pollfd> fds;
  std::vector<Connection*> fd_conn;
  char buffer[65536];
  for (;;) {
    for (Connection& conn : conns) try_send(conn);
    fds.clear();
    fd_conn.clear();
    for (Connection& conn : conns) {
      if (!conn.busy) continue;
      // Write what the socket takes before sleeping; a request usually
      // fits at once.
      while (conn.out_offset < conn.out.size()) {
        ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                           conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
        if (n <= 0) break;
        conn.out_offset += static_cast<size_t>(n);
      }
      short events = POLLIN;
      if (conn.out_offset < conn.out.size()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      fd_conn.push_back(&conn);
    }
    if (fds.empty()) break;  // every connection is exhausted
    if (now_s() >= give_up) {
      for (Connection* conn : fd_conn) {
        finish(*conn, 0, nullptr);
        conn->exhausted = true;
        conn->Close();
      }
      break;
    }
    if (::poll(fds.data(), fds.size(), 10) <= 0) continue;

    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Connection& conn = *fd_conn[i];
      bool broken = (fds[i].revents & (POLLERR | POLLNVAL)) != 0;
      while (!broken) {
        ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
        if (n > 0) {
          conn.in.append(buffer, static_cast<size_t>(n));
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) broken = true;
        break;
      }
      int status = 0;
      const long used = ParseResponse(conn.in, &status, &body);
      if (used > 0) {
        conn.in.erase(0, static_cast<size_t>(used));
        finish(conn, status, &body);
      } else if (used < 0 || broken) {
        conn.Close();
        finish(conn, 0, nullptr);
      }
    }
  }
  for (Connection& conn : conns) conn.Close();
  return last_measured_done - window_begin;
}

int SendOne(uint16_t port, const Request& request, std::string* body) {
  class OnceSource : public RequestSource {
   public:
    explicit OnceSource(const Request& request) : request_(request) {}
    std::optional<Request> Next() override {
      if (sent_) return std::nullopt;
      sent_ = true;
      return request_;
    }

   private:
    const Request& request_;
    bool sent_ = false;
  } once(request);
  int status = 0;
  DriveOptions options;
  options.port = port;
  options.measure_s = 1.0;  // the one request goes out at once
  options.drain_s = 60.0;
  Drive({&once}, options, [&](const Completion& done) {
    status = done.status;
    if (done.body != nullptr) *body = *done.body;
  });
  return status;
}

}  // namespace perfbench
