// galaxy_crashtest — crash-recovery torture for the durability subsystem.
//
//   galaxy_crashtest [--cycles N] [--seed S] [--data-dir DIR] [--verbose]
//
// Each cycle forks a child server (this binary re-executed with --child)
// over the same data directory, verifies the recovered state against an
// in-memory oracle, then fires randomized /update traffic at it over
// loopback HTTP until the child dies — by parent SIGKILL at a random
// instant (sometimes mid-request) or by a crash point injected into the
// child's FaultInjectionEnv (die during the Nth WAL append / fsync /
// snapshot rename / WAL truncation, possibly after a torn partial write).
//
// The oracle replays exactly the updates the child ACKED (HTTP 200). The
// invariant under test: after every crash + recovery, the catalog and the
// aggregate skyline equal the oracle — except that the single in-flight
// update whose response never arrived may be either present or absent
// (the crash can land between durable-log and ack).
//
// Exit status: 0 when every cycle verified, 1 on the first divergence
// (with a dump of both states), 2 on usage errors.
//
// Reviewed: the torture harness speaks loopback HTTP to its child over
// plain blocking sockets — a stalled child is itself a failure the
// per-request SO_RCVTIMEO converts into a divergence report.
// galaxy-lint: allow-file(blocking-socket-io)

#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relation/csv.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "server/http.h"
#include "server/server.h"
#include "sql/catalog.h"
#include "storage/durability.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/wal.h"

#include "flags.h"

namespace {

using galaxy::ColumnDef;
using galaxy::Schema;
using galaxy::Status;
using galaxy::Table;
using galaxy::TableBuilder;
using galaxy::ValueType;
using galaxy::tools::Flags;

// The torture table. The child seeds it on a fresh data directory; the
// parent's oracle starts from the same rows.
const char* const kSeedRows[] = {"g0,10,1.5", "g1,20,2.5", "g2,5,9.5"};

Schema TortureSchema() {
  return Schema({ColumnDef{"g", ValueType::kString},
                 ColumnDef{"x", ValueType::kInt64},
                 ColumnDef{"y", ValueType::kDouble}});
}

galaxy::server::SkylineViewConfig TortureView() {
  galaxy::server::SkylineViewConfig config;
  config.table = "t";
  config.group_column = "g";
  config.attrs = {"x", "y"};
  config.gamma = 0.5;
  return config;
}

// Deterministic splitmix64 stream (same generator as the fuzz targets).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

 private:
  uint64_t state_;
};

// ---- child mode ------------------------------------------------------------

// Crash-fault spec, parent -> child: "op:nth[:partial]".
struct FaultSpec {
  galaxy::storage::FaultInjectionEnv::Op op;
  uint64_t nth = 1;
  size_t partial_bytes = 0;
};

const std::map<std::string, galaxy::storage::FaultInjectionEnv::Op>&
FaultOpNames() {
  using Op = galaxy::storage::FaultInjectionEnv::Op;
  static const std::map<std::string, Op> names{
      {"create", Op::kCreate},   {"append", Op::kAppend},
      {"sync", Op::kSync},       {"rename", Op::kRename},
      {"remove", Op::kRemove},   {"truncate", Op::kTruncate},
      {"syncdir", Op::kSyncDir}};
  return names;
}

std::optional<FaultSpec> ParseFaultSpec(const std::string& text) {
  size_t c1 = text.find(':');
  if (c1 == std::string::npos) return std::nullopt;
  size_t c2 = text.find(':', c1 + 1);
  auto it = FaultOpNames().find(text.substr(0, c1));
  if (it == FaultOpNames().end()) return std::nullopt;
  FaultSpec spec;
  spec.op = it->second;
  spec.nth = std::strtoull(text.c_str() + c1 + 1, nullptr, 10);
  if (c2 != std::string::npos) {
    spec.partial_bytes =
        static_cast<size_t>(std::strtoull(text.c_str() + c2 + 1, nullptr, 10));
  }
  return spec.nth == 0 ? std::nullopt : std::optional<FaultSpec>(spec);
}

// The child: a real server over the (possibly fault-injected) posix Env.
// Reports its port on `port_fd` once serving, then parks until killed.
int RunChild(const std::string& dir, const std::string& fault_text,
             const std::string& fsync_policy, uint64_t snapshot_every,
             int port_fd) {
  galaxy::storage::FaultInjectionEnv env(galaxy::storage::Env::Default());
  if (!fault_text.empty()) {
    std::optional<FaultSpec> spec = ParseFaultSpec(fault_text);
    if (!spec.has_value()) {
      std::fprintf(stderr, "galaxy_crashtest(child): bad --fault %s\n",
                   fault_text.c_str());
      return 2;
    }
    galaxy::storage::FaultInjectionEnv::Fault fault;
    fault.op = spec->op;
    fault.nth = spec->nth;
    fault.partial_bytes = spec->partial_bytes;
    fault.crash = true;
    env.InjectFault(fault);
  }

  galaxy::storage::DurabilityOptions durability_options;
  auto policy = galaxy::storage::ParseFsyncPolicy(fsync_policy);
  if (!policy.ok()) {
    std::fprintf(stderr, "galaxy_crashtest(child): %s\n",
                 policy.status().message().c_str());
    return 2;
  }
  durability_options.wal.policy = *policy;
  durability_options.wal.fsync_interval = std::chrono::milliseconds(5);

  galaxy::sql::Database db;
  galaxy::server::ServerOptions options;
  options.port = 0;  // ephemeral
  options.snapshot_every = snapshot_every;

  std::unique_ptr<galaxy::storage::DurabilityManager> durability;
  galaxy::server::Server server(&db, options);
  {
    auto opened = galaxy::storage::DurabilityManager::Open(
        &env, dir, &db, durability_options, server.DurabilityHooks());
    if (!opened.ok()) {
      std::fprintf(stderr, "galaxy_crashtest(child): open: %s\n",
                   opened.status().message().c_str());
      return 1;
    }
    durability = std::move(*opened);
  }
  if (db.num_tables() == 0) {
    // Fresh directory: seed and persist as the first snapshot.
    TableBuilder builder(TortureSchema());
    for (const char* row : kSeedRows) {
      auto parsed = galaxy::ParseCsvRowForSchema(TortureSchema(), row);
      if (!parsed.ok()) return 1;
      builder.AddRow(*std::move(parsed));
    }
    db.Register("t", builder.Build());
    Status bootstrapped = durability->Bootstrap();
    if (!bootstrapped.ok()) {
      std::fprintf(stderr, "galaxy_crashtest(child): bootstrap: %s\n",
                   bootstrapped.message().c_str());
      return 1;
    }
  }
  server.AttachDurability(durability.get());
  Status view = server.EnableSkylineView(TortureView());
  if (!view.ok()) {
    std::fprintf(stderr, "galaxy_crashtest(child): view: %s\n",
                 view.message().c_str());
    return 1;
  }
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "galaxy_crashtest(child): start: %s\n",
                 started.message().c_str());
    return 1;
  }

  std::string line = "PORT " + std::to_string(server.port()) + "\n";
  // The port handoff pipe inherited from the parent; not a data file, so
  // outside the Env seam by design.
  // galaxy-lint: allow(raw-file-io)
  ssize_t written = ::write(port_fd, line.data(), line.size());
  if (written != static_cast<ssize_t>(line.size())) return 1;
  ::close(port_fd);

  // Park until the parent kills us (SIGKILL) or a crash point fires on a
  // connection thread.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);
  int got = 0;
  sigwait(&signals, &got);
  server.Stop();
  return 0;
}

// ---- loopback HTTP client --------------------------------------------------

struct ClientResponse {
  bool transport_ok = false;  ///< a complete response arrived
  int status = 0;
  std::string body;
};

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads one full "Connection: close" response (until EOF).
ClientResponse ReadResponse(int fd) {
  ClientResponse out;
  std::string buffer;
  char chunk[8192];
  while (true) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string::npos || buffer.size() < 12) return out;
  out.transport_ok = true;
  out.status = std::atoi(buffer.c_str() + 9);
  out.body = buffer.substr(header_end + 4);
  return out;
}

std::string BuildRequest(const std::string& method, const std::string& target,
                         const std::string& body,
                         const std::string& extra_headers = "") {
  return method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n" +
         "Connection: close\r\n" + extra_headers +
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

ClientResponse Exchange(uint16_t port, const std::string& request) {
  ClientResponse out;
  int fd = ConnectLoopback(port);
  if (fd < 0) return out;
  if (SendAll(fd, request)) out = ReadResponse(fd);
  ::close(fd);
  return out;
}

// ---- oracle-side expected state --------------------------------------------

void EraseOne(std::vector<std::string>* rows, const std::string& row) {
  auto it = std::find(rows->begin(), rows->end(), row);
  if (it != rows->end()) rows->erase(it);
}

std::vector<std::string> SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) lines.push_back(std::move(line));
    start = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// Extracts the string elements of the "skyline": [...] JSON array, sorted.
std::vector<std::string> SkylineLabels(const std::string& json) {
  std::vector<std::string> labels;
  size_t key = json.find("\"skyline\"");
  if (key == std::string::npos) return labels;
  size_t open = json.find('[', key);
  size_t close = json.find(']', key);
  if (open == std::string::npos || close == std::string::npos) return labels;
  size_t pos = open;
  while (true) {
    size_t quote = json.find('"', pos + 1);
    if (quote == std::string::npos || quote > close) break;
    size_t end = json.find('"', quote + 1);
    if (end == std::string::npos || end > close) break;
    labels.push_back(json.substr(quote + 1, end - quote - 1));
    pos = end;
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

// Computes the expected skyline of `rows` through the same serving-layer
// code the child runs (in-process Handle, no sockets).
std::vector<std::string> OracleSkyline(const std::vector<std::string>& rows) {
  TableBuilder builder(TortureSchema());
  for (const std::string& row : rows) {
    auto parsed = galaxy::ParseCsvRowForSchema(TortureSchema(), row);
    if (!parsed.ok()) {
      std::fprintf(stderr, "galaxy_crashtest: oracle row unparseable: %s\n",
                   row.c_str());
      std::exit(1);
    }
    builder.AddRow(*std::move(parsed));
  }
  galaxy::sql::Database db;
  db.Register("t", builder.Build());
  galaxy::server::ServerOptions options;
  galaxy::server::Server server(&db, options);
  Status view = server.EnableSkylineView(TortureView());
  if (!view.ok()) {
    std::fprintf(stderr, "galaxy_crashtest: oracle view: %s\n",
                 view.message().c_str());
    std::exit(1);
  }
  galaxy::server::HttpRequest request;
  request.method = "GET";
  request.target = "/skyline";
  request.version = "HTTP/1.1";
  request.path = "/skyline";
  return SkylineLabels(server.Handle(request).body);
}

// One pending mutation: applied to the oracle only once acked.
struct Mutation {
  bool insert = true;
  std::string row;
};

void Apply(std::vector<std::string>* rows, const Mutation& mutation) {
  if (mutation.insert) {
    rows->push_back(mutation.row);
  } else {
    EraseOne(rows, mutation.row);
  }
}

// ---- parent / torture loop -------------------------------------------------

struct ChildHandle {
  pid_t pid = -1;
  uint16_t port = 0;
  bool port_ok = false;
};

ChildHandle SpawnChild(const char* self, const std::string& dir,
                       const std::string& fault, const std::string& fsync,
                       uint64_t snapshot_every) {
  ChildHandle child;
  int fds[2];
  if (::pipe(fds) != 0) return child;
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return child;
  }
  if (pid == 0) {
    ::close(fds[0]);
    std::string port_fd = std::to_string(fds[1]);
    std::string snap = std::to_string(snapshot_every);
    // Re-exec ourselves in child mode: fork+exec keeps the child's address
    // space clean of the parent's threads and lets the FaultInjectionEnv
    // count this process's operations from zero.
    ::execl(self, self, "--child", "--data-dir", dir.c_str(),
            "--port-fd", port_fd.c_str(), "--fsync", fsync.c_str(),
            "--snapshot-every", snap.c_str(), "--fault", fault.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  child.pid = pid;
  std::string line;
  char c;
  while (true) {
    // galaxy-lint: allow(raw-file-io) — port handoff pipe, not a data file.
    ssize_t n = ::read(fds[0], &c, 1);
    if (n <= 0) break;  // EOF: the child died before serving
    if (c == '\n') {
      if (line.rfind("PORT ", 0) == 0) {
        child.port = static_cast<uint16_t>(std::atoi(line.c_str() + 5));
        child.port_ok = child.port != 0;
      }
      break;
    }
    line.push_back(c);
  }
  ::close(fds[0]);
  return child;
}

int ReapChild(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

int FailState(const char* what, const std::vector<std::string>& actual,
              const std::vector<std::string>& expected_a,
              const std::vector<std::string>& expected_b) {
  std::fprintf(stderr, "galaxy_crashtest: FAIL: recovered %s diverged\n",
               what);
  auto dump = [](const char* name, const std::vector<std::string>& rows) {
    std::fprintf(stderr, "  %s (%zu):\n", name, rows.size());
    for (const std::string& row : rows) {
      std::fprintf(stderr, "    %s\n", row.c_str());
    }
  };
  dump("actual", actual);
  dump("expected", expected_a);
  dump("expected-with-inflight", expected_b);
  return 1;
}

std::string RandomFault(Rng& rng) {
  // Occurrence bounds matched to how often each op actually runs in one
  // child's lifetime (recovery + a burst of updates + a few rotations), so
  // most armed crash points really fire.
  struct OpRange {
    const char* op;
    uint64_t max_nth;
  };
  static const OpRange kOps[] = {{"append", 25}, {"sync", 20}, {"rename", 4},
                                 {"create", 4},  {"remove", 4}, {"truncate", 2},
                                 {"syncdir", 4}};
  const OpRange& pick = kOps[rng.Below(7)];
  std::string spec = std::string(pick.op) + ":" +
                     std::to_string(1 + rng.Below(pick.max_nth));
  if (std::strcmp(pick.op, "append") == 0 && rng.Below(2) == 0) {
    spec += ":" + std::to_string(rng.Below(12));  // torn partial write
  }
  return spec;
}

int RunTorture(const char* self, const std::string& dir, uint64_t seed,
               int cycles, bool verbose) {
  // The oracle: surface-form CSV rows the child has durably acked, plus at
  // most one unresolved in-flight mutation from the previous cycle.
  std::vector<std::string> oracle(kSeedRows, kSeedRows + 3);
  std::optional<Mutation> inflight;
  int kills = 0, injected_crashes = 0, startup_crashes = 0;

  static const char* const kPolicies[] = {"always", "interval", "never"};

  for (int cycle = 0; cycle < cycles; ++cycle) {
    Rng rng(seed + static_cast<uint64_t>(cycle) * 0x9e3779b97f4a7c15ULL);
    // Half the cycles crash via an injected fault at a random disk
    // operation; the other half die by parent SIGKILL at a random moment.
    const bool inject = rng.Below(2) == 0;
    const std::string fault = inject ? RandomFault(rng) : std::string();
    const std::string fsync = kPolicies[rng.Below(3)];
    const uint64_t snapshot_every = 2 + rng.Below(9);

    ChildHandle child = SpawnChild(self, dir, fault, fsync, snapshot_every);
    if (child.pid < 0) {
      std::fprintf(stderr, "galaxy_crashtest: fork failed\n");
      return 1;
    }
    if (!child.port_ok) {
      // Died before serving: legal only when a crash point could fire
      // during recovery/bootstrap. The directory must still recover, the
      // oracle is unchanged (nothing was acked).
      int status = ReapChild(child.pid);
      const bool crashed =
          WIFEXITED(status) &&
          WEXITSTATUS(status) ==
              galaxy::storage::FaultInjectionEnv::kCrashExitStatus;
      if (!inject || !crashed) {
        std::fprintf(stderr,
                     "galaxy_crashtest: child died before serving "
                     "(cycle %d, fault=%s, wait status %d)\n",
                     cycle, fault.c_str(), status);
        return 1;
      }
      ++startup_crashes;
      continue;
    }

    // ---- verify the recovered state against the oracle. ----
    ClientResponse table_response = Exchange(
        child.port, BuildRequest("POST", "/query", "SELECT * FROM t",
                                 "Accept: text/csv\r\n"));
    ClientResponse skyline_response =
        Exchange(child.port, BuildRequest("GET", "/skyline", ""));
    if (!table_response.transport_ok || table_response.status != 200 ||
        !skyline_response.transport_ok || skyline_response.status != 200) {
      // The injected crash point can fire during these reads' WAL-free
      // window only at snapshot time — but reads never log. A dead child
      // here means the fault fired during recovery *after* the port write
      // (not possible) — treat as failure unless injected.
      int status = ReapChild(child.pid);
      const bool crashed =
          WIFEXITED(status) &&
          WEXITSTATUS(status) ==
              galaxy::storage::FaultInjectionEnv::kCrashExitStatus;
      if (!inject || !crashed) {
        std::fprintf(stderr,
                     "galaxy_crashtest: verification reads failed "
                     "(cycle %d, wait status %d)\n",
                     cycle, status);
        return 1;
      }
      ++startup_crashes;
      continue;
    }

    std::vector<std::string> actual = SortedLines(table_response.body);
    EraseOne(&actual, "g,x,y");  // CSV header line
    std::vector<std::string> expected_a = oracle;
    std::vector<std::string> expected_b = oracle;
    if (inflight.has_value()) Apply(&expected_b, *inflight);
    std::vector<std::string> sorted_a = expected_a;
    std::vector<std::string> sorted_b = expected_b;
    std::sort(sorted_a.begin(), sorted_a.end());
    std::sort(sorted_b.begin(), sorted_b.end());
    if (actual == sorted_a) {
      oracle = expected_a;
    } else if (actual == sorted_b) {
      oracle = expected_b;
    } else {
      ReapChild(child.pid);
      return FailState("table", actual, sorted_a, sorted_b);
    }
    inflight.reset();

    std::vector<std::string> actual_sky =
        SkylineLabels(skyline_response.body);
    std::vector<std::string> expected_sky = OracleSkyline(oracle);
    if (actual_sky != expected_sky) {
      ReapChild(child.pid);
      return FailState("skyline", actual_sky, expected_sky, expected_sky);
    }

    // ---- randomized update traffic until the child dies. ----
    const uint64_t planned = 3 + rng.Below(25);
    const uint64_t kill_after = rng.Below(planned + 1);
    bool child_down = false;
    for (uint64_t i = 0; i < planned; ++i) {
      if (!inject && i == kill_after) {
        // Sometimes mid-request: fire the request, kill before the ack.
        if (rng.Below(2) == 0 && !oracle.empty()) {
          Mutation mutation;
          mutation.insert = true;
          mutation.row = "g" + std::to_string(rng.Below(6)) + "," +
                         std::to_string(rng.Below(1000)) + "," +
                         std::to_string(rng.Below(1000)) + ".5";
          int fd = ConnectLoopback(child.port);
          if (fd >= 0) {
            SendAll(fd, BuildRequest("POST", "/update?table=t&op=insert",
                                     mutation.row));
            ::kill(child.pid, SIGKILL);
            ::close(fd);
            inflight = mutation;
          } else {
            ::kill(child.pid, SIGKILL);
          }
        } else {
          ::kill(child.pid, SIGKILL);
        }
        ++kills;
        child_down = true;
        break;
      }

      Mutation mutation;
      const uint64_t kind = rng.Below(10);
      std::string target = "/update?table=t&op=insert";
      std::string body;
      bool effective = true;  // should mutate state when acked
      if (kind < 6 || oracle.empty()) {
        mutation.insert = true;
        mutation.row = "g" + std::to_string(rng.Below(6)) + "," +
                       std::to_string(rng.Below(1000)) + "," +
                       std::to_string(rng.Below(1000)) + ".5";
        body = mutation.row;
      } else if (kind < 8) {
        mutation.insert = false;
        mutation.row = oracle[rng.Below(oracle.size())];
        target = "/update?table=t&op=remove";
        body = mutation.row;
      } else if (kind == 8) {
        // Remove of a never-inserted row: the server must 404 and log
        // nothing.
        target = "/update?table=t&op=remove";
        body = "zz-missing,1,1.5";
        effective = false;
      } else {
        // Malformed row: 400, nothing logged.
        body = "bad,row";
        effective = false;
      }

      ClientResponse response =
          Exchange(child.port, BuildRequest("POST", target, body));
      if (!response.transport_ok) {
        // The child crashed under us (injected fault). The last request is
        // in flight: logged-but-unacked is allowed.
        if (effective) inflight = mutation;
        child_down = true;
        break;
      }
      if (effective) {
        if (response.status != 200) {
          std::fprintf(stderr,
                       "galaxy_crashtest: update rejected with %d "
                       "(cycle %d): %s\n",
                       response.status, cycle, response.body.c_str());
          ::kill(child.pid, SIGKILL);
          ReapChild(child.pid);
          return 1;
        }
        Apply(&oracle, mutation);
      } else if (response.status == 200) {
        std::fprintf(stderr,
                     "galaxy_crashtest: invalid update was acked "
                     "(cycle %d)\n",
                     cycle);
        ::kill(child.pid, SIGKILL);
        ReapChild(child.pid);
        return 1;
      }

      // Occasionally read the skyline mid-burst so view-delta draining
      // runs under fire too.
      if (rng.Below(6) == 0) {
        ClientResponse sky =
            Exchange(child.port, BuildRequest("GET", "/skyline", ""));
        if (sky.transport_ok && sky.status != 200) {
          std::fprintf(stderr,
                       "galaxy_crashtest: /skyline failed with %d "
                       "(cycle %d)\n",
                       sky.status, cycle);
          ::kill(child.pid, SIGKILL);
          ReapChild(child.pid);
          return 1;
        }
      }
    }

    if (!child_down) {
      ::kill(child.pid, SIGKILL);
      ++kills;
    } else if (inject) {
      ++injected_crashes;
    }
    int status = ReapChild(child.pid);
    (void)status;
    if (verbose) {
      std::fprintf(stderr,
                   "cycle %d: fsync=%s fault=%s oracle=%zu rows%s\n", cycle,
                   fsync.c_str(), inject ? fault.c_str() : "(sigkill)",
                   oracle.size(), inflight.has_value() ? " +inflight" : "");
    }
  }

  // Final clean restart: everything acked across the whole run must be
  // there.
  ChildHandle child = SpawnChild(self, dir, "", "always", 8);
  if (!child.port_ok) {
    std::fprintf(stderr, "galaxy_crashtest: final restart failed\n");
    return 1;
  }
  ClientResponse table_response = Exchange(
      child.port,
      BuildRequest("POST", "/query", "SELECT * FROM t", "Accept: text/csv\r\n"));
  std::vector<std::string> actual = SortedLines(table_response.body);
  EraseOne(&actual, "g,x,y");  // CSV header line
  std::vector<std::string> expected_a = oracle;
  std::vector<std::string> expected_b = oracle;
  if (inflight.has_value()) Apply(&expected_b, *inflight);
  std::sort(expected_a.begin(), expected_a.end());
  std::sort(expected_b.begin(), expected_b.end());
  ::kill(child.pid, SIGKILL);
  ReapChild(child.pid);
  if (actual != expected_a && actual != expected_b) {
    return FailState("final table", actual, expected_a, expected_b);
  }

  std::printf(
      "galaxy_crashtest: %d cycles OK (%d sigkills, %d injected crashes, "
      "%d startup crashes, final state %zu rows)\n",
      cycles, kills, injected_crashes, startup_crashes, expected_a.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, 1);
  const bool child = flags.Has("child");
  if (!flags.ok() ||
      !(child ? flags.CheckAllowed({"child", "data-dir", "fault", "fsync",
                                    "snapshot-every", "port-fd"})
              : flags.CheckAllowed({"cycles", "seed", "data-dir",
                                    "verbose"}))) {
    std::fprintf(stderr, "galaxy_crashtest: %s\n", flags.error().c_str());
    return 2;
  }
  auto cycles = flags.GetInt("cycles", 200);
  auto seed = flags.GetInt("seed", 1);
  auto snapshot_every = flags.GetInt("snapshot-every", 8);
  auto port_fd = flags.GetInt("port-fd", -1);
  for (const auto* v : {&cycles, &seed, &snapshot_every, &port_fd}) {
    if (!v->ok()) {
      std::fprintf(stderr, "galaxy_crashtest: %s\n",
                   v->status().message().c_str());
      return 2;
    }
  }

  if (child) {
    return RunChild(flags.Get("data-dir"), flags.Get("fault"),
                    flags.Get("fsync", "always"),
                    static_cast<uint64_t>(*snapshot_every),
                    static_cast<int>(*port_fd));
  }

  if (*cycles <= 0) {
    std::fprintf(stderr, "galaxy_crashtest: --cycles must be positive\n");
    return 2;
  }
  std::string dir = flags.Get("data-dir");
  std::string scratch;
  if (dir.empty()) {
    scratch = "galaxy-crashtest-" + std::to_string(::getpid());
    const char* tmp = std::getenv("TMPDIR");
    dir = std::string(tmp != nullptr ? tmp : "/tmp") + "/" + scratch;
  }

  // Resolve our own binary for fork+exec of child servers.
  const char* self = "/proc/self/exe";

  int result = RunTorture(self, dir, static_cast<uint64_t>(*seed),
                          static_cast<int>(*cycles), flags.Has("verbose"));

  if (!scratch.empty()) {
    // Best-effort scratch cleanup through the Env seam.
    galaxy::storage::Env* env = galaxy::storage::Env::Default();
    auto entries = env->ListDir(dir);
    if (entries.ok()) {
      for (const std::string& name : *entries) {
        (void)env->RemoveFile(dir + "/" + name);
      }
    }
    ::rmdir(dir.c_str());
  }
  return result;
}
