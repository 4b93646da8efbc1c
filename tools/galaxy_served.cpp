// galaxy_served — the standalone query server (src/server/).
//
//   galaxy_served --csv data.csv [--table data] [--host 127.0.0.1]
//                 [--port 8080]
//                 [--io-workers N] [--idle-timeout-ms N]
//                 [--queue-capacity N] [--queue-timeout-ms N]
//                 [--cache-entries N] [--default-timeout-ms N]
//                 [--view table:group_col:attrs[:gamma]]
//                 [--data-dir DIR] [--fsync always|interval|never]
//                 [--fsync-interval-ms N] [--snapshot-every N]
//
// Loads the CSV into an in-memory catalog, serves POST /query, POST
// /update, GET /skyline, GET /metrics and GET /healthz (see README
// "Serving" for the endpoint contract), and runs until SIGINT/SIGTERM.
//
// --view installs the incrementally maintained aggregate-skyline view;
// `attrs` is comma-separated and a leading '-' minimizes that attribute,
// e.g. --view "movies:Director:Pop,Qual:0.6".
//
// --data-dir makes /update durable (README "Durability"): on a fresh
// directory the CSV seeds the catalog and is snapshotted; on restart the
// directory is recovered (latest snapshot + WAL replay, --csv then
// ignored) and every acked update is guaranteed present.
//
// Exit status: 0 on clean shutdown, 1 on runtime errors (bad CSV, port in
// use), 2 on usage errors — the same contract as galaxy_cli.

#include <sys/resource.h>

#include <csignal>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "relation/csv.h"
#include "server/server.h"
#include "sql/catalog.h"
#include "storage/durability.h"
#include "storage/env.h"
#include "storage/wal.h"

#include "flags.h"

namespace {

using galaxy::Status;
using galaxy::Table;
using galaxy::tools::Flags;

// Event mode holds one fd per open connection; at C10K the default soft
// limit (often 1024) exhausts immediately, so raise it to the hard cap.
void RaiseFdLimit() {
  struct rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: galaxy_served --csv data.csv [--table data]\n"
      "                     [--host 127.0.0.1] [--port 8080]\n"
      "                     [--io-workers N] [--idle-timeout-ms N]\n"
      "                     [--queue-capacity N] [--queue-timeout-ms N]\n"
      "                     [--cache-entries N] [--default-timeout-ms N]\n"
      "                     [--view table:group_col:attrs[:gamma]]\n"
      "                     [--data-dir DIR] "
      "[--fsync always|interval|never]\n"
      "                     [--fsync-interval-ms N] [--snapshot-every N]\n");
  return 2;
}

// Parses "table:group_col:a,b,-c[:gamma]".
galaxy::Result<galaxy::server::SkylineViewConfig> ParseView(
    const std::string& spec) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() < 3 || parts.size() > 4) {
    return Status::InvalidArgument(
        "--view expects table:group_col:attrs[:gamma], got: " + spec);
  }
  galaxy::server::SkylineViewConfig config;
  config.table = parts[0];
  config.group_column = parts[1];
  start = 0;
  while (start <= parts[2].size()) {
    size_t comma = parts[2].find(',', start);
    std::string attr = parts[2].substr(start, comma - start);
    if (!attr.empty()) config.attrs.push_back(attr);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (config.table.empty() || config.group_column.empty() ||
      config.attrs.empty()) {
    return Status::InvalidArgument("--view has empty components: " + spec);
  }
  if (parts.size() == 4) {
    char* end = nullptr;
    errno = 0;
    config.gamma = std::strtod(parts[3].c_str(), &end);
    if (errno != 0 || end != parts[3].c_str() + parts[3].size() ||
        parts[3].empty()) {
      return Status::InvalidArgument("--view gamma is not a number: " +
                                     parts[3]);
    }
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, 1);
  if (!flags.ok() ||
      !flags.CheckAllowed({"csv", "table", "host", "port",
                           "io-workers", "idle-timeout-ms",
                           "queue-capacity", "queue-timeout-ms",
                           "cache-entries", "default-timeout-ms", "view",
                           "data-dir", "fsync", "fsync-interval-ms",
                           "snapshot-every"})) {
    std::fprintf(stderr, "galaxy_served: %s\n", flags.error().c_str());
    return Usage();
  }
  // Without a data directory the CSV is the only source of tables; with
  // one a restart recovers them from disk instead.
  if (!flags.Has("csv") && !flags.Has("data-dir")) {
    std::fprintf(stderr, "galaxy_served: --csv is required\n");
    return Usage();
  }
  for (const char* name : {"fsync", "fsync-interval-ms", "snapshot-every"}) {
    if (flags.Has(name) && !flags.Has("data-dir")) {
      std::fprintf(stderr, "galaxy_served: --%s requires --data-dir\n", name);
      return Usage();
    }
  }

  auto port = flags.GetInt("port", 8080);
  // Event-mode worker default scales with the machine: extra workers on a
  // small core count only add context switches between the loop thread and
  // the pool (measurably so at 1k+ connections on one core).
  unsigned hw = std::thread::hardware_concurrency();
  int64_t default_workers =
      static_cast<int64_t>(hw == 0 ? 4 : (hw < 4 ? hw : 4));
  auto io_workers = flags.GetInt("io-workers", default_workers);
  auto idle_timeout = flags.GetInt("idle-timeout-ms", 10000);
  auto queue_capacity = flags.GetInt("queue-capacity", 64);
  auto queue_timeout = flags.GetInt("queue-timeout-ms", 2000);
  auto cache_entries = flags.GetInt("cache-entries", 256);
  auto default_timeout = flags.GetInt("default-timeout-ms", 0);
  auto fsync_interval = flags.GetInt("fsync-interval-ms", 100);
  auto snapshot_every = flags.GetInt("snapshot-every", 0);
  for (const auto* v :
       {&port, &io_workers, &idle_timeout, &queue_capacity, &queue_timeout,
        &cache_entries, &default_timeout, &fsync_interval, &snapshot_every}) {
    if (!v->ok()) {
      std::fprintf(stderr, "galaxy_served: %s\n",
                   v->status().message().c_str());
      return 2;
    }
  }
  if (*port < 0 || *port > 65535) {
    std::fprintf(stderr, "galaxy_served: --port out of range\n");
    return 2;
  }
  if (*io_workers <= 0 || *idle_timeout <= 0) {
    std::fprintf(stderr,
                 "galaxy_served: --io-workers/--idle-timeout-ms must be "
                 "positive\n");
    return 2;
  }
  if (*queue_capacity < 0 || *queue_timeout < 0 || *cache_entries < 0 ||
      *default_timeout < 0 || *fsync_interval < 0 || *snapshot_every < 0) {
    std::fprintf(stderr,
                 "galaxy_served: --queue-capacity/--queue-timeout-ms/"
                 "--cache-entries/--default-timeout-ms/--fsync-interval-ms/"
                 "--snapshot-every must be non-negative\n");
    return 2;
  }
  galaxy::storage::DurabilityOptions durability_options;
  if (flags.Has("fsync")) {
    auto policy = galaxy::storage::ParseFsyncPolicy(flags.Get("fsync"));
    if (!policy.ok()) {
      std::fprintf(stderr, "galaxy_served: %s\n",
                   policy.status().message().c_str());
      return 2;
    }
    durability_options.wal.policy = *policy;
  }
  durability_options.wal.fsync_interval =
      std::chrono::milliseconds(*fsync_interval);

  galaxy::sql::Database db;
  std::string table_name = flags.Get("table", "data");

  RaiseFdLimit();

  galaxy::server::ServerOptions options;
  options.host = flags.Get("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(*port);
  options.io_workers = static_cast<size_t>(*io_workers);
  options.idle_timeout = std::chrono::milliseconds(*idle_timeout);
  options.queue_capacity = static_cast<size_t>(*queue_capacity);
  options.queue_timeout = std::chrono::milliseconds(*queue_timeout);
  options.cache_entries = static_cast<size_t>(*cache_entries);
  options.default_timeout = std::chrono::milliseconds(*default_timeout);
  options.snapshot_every = static_cast<uint64_t>(*snapshot_every);

  // Declared before the server so it outlives it (connection threads read
  // the attached pointer until Stop()).
  std::unique_ptr<galaxy::storage::DurabilityManager> durability;
  galaxy::server::Server server(&db, options);

  size_t num_rows = 0;
  if (flags.Has("data-dir")) {
    auto opened = galaxy::storage::DurabilityManager::Open(
        galaxy::storage::Env::Default(), flags.Get("data-dir"), &db,
        durability_options, server.DurabilityHooks());
    if (!opened.ok()) {
      std::fprintf(stderr, "galaxy_served: opening --data-dir: %s\n",
                   opened.status().message().c_str());
      return 1;
    }
    durability = std::move(*opened);
    const galaxy::storage::RecoveryInfo& info = durability->recovery_info();
    for (const std::string& warning : info.warnings) {
      std::fprintf(stderr, "galaxy_served: recovery: %s\n", warning.c_str());
    }
    if (db.num_tables() == 0) {
      // Fresh directory: seed from --csv (if given) and persist the seed
      // as the first snapshot so the next start recovers it.
      if (flags.Has("csv")) {
        auto table = galaxy::ReadCsvFile(flags.Get("csv"));
        if (!table.ok()) {
          std::fprintf(stderr, "galaxy_served: %s\n",
                       table.status().message().c_str());
          return 1;
        }
        num_rows = table->num_rows();
        db.Register(table_name, *std::move(table));
      }
      Status bootstrapped = durability->Bootstrap();
      if (!bootstrapped.ok()) {
        std::fprintf(stderr, "galaxy_served: bootstrap snapshot: %s\n",
                     bootstrapped.message().c_str());
        return 1;
      }
    } else {
      std::printf(
          "galaxy_served: recovered generation %llu (%zu tables, %llu WAL "
          "records replayed%s)\n",
          static_cast<unsigned long long>(info.generation),
          info.tables_restored,
          static_cast<unsigned long long>(info.replayed_records),
          info.wal_tail_truncated ? ", torn tail truncated" : "");
      if (flags.Has("csv")) {
        std::fprintf(stderr,
                     "galaxy_served: --csv ignored (tables recovered from "
                     "--data-dir)\n");
      }
      auto recovered = db.GetTable(table_name);
      if (recovered.ok()) num_rows = (*recovered)->num_rows();
    }
    server.AttachDurability(durability.get());
  } else {
    auto table = galaxy::ReadCsvFile(flags.Get("csv"));
    if (!table.ok()) {
      std::fprintf(stderr, "galaxy_served: %s\n",
                   table.status().message().c_str());
      return 1;
    }
    num_rows = table->num_rows();
    db.Register(table_name, *std::move(table));
  }

  if (flags.Has("view")) {
    auto view = ParseView(flags.Get("view"));
    if (!view.ok()) {
      std::fprintf(stderr, "galaxy_served: %s\n",
                   view.status().message().c_str());
      return 2;
    }
    Status installed = server.EnableSkylineView(*view);
    if (!installed.ok()) {
      std::fprintf(stderr, "galaxy_served: %s\n",
                   installed.message().c_str());
      return 1;
    }
  }

  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "galaxy_served: %s\n", started.message().c_str());
    return 1;
  }
  std::printf(
      "galaxy_served listening on %s:%u (table \"%s\", %zu rows, "
      "%zu workers)\n",
      options.host.c_str(), server.port(), table_name.c_str(), num_rows,
      options.io_workers);
  std::fflush(stdout);

  // Park until SIGINT/SIGTERM; the event engine runs on its own threads.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);
  int got = 0;
  sigwait(&signals, &got);
  std::printf("galaxy_served: received signal %d, shutting down\n", got);
  server.Stop();
  return 0;
}
