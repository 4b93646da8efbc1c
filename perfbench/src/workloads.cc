#include "workloads.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "core/aggregate_skyline.h"
#include "core/incremental.h"
#include "loadgen.h"
#include "inputs.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "server/http.h"
#include "server/server.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/durability.h"
#include "testing/oracle.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using galaxy::Row;
using galaxy::Schema;
using galaxy::Table;
using galaxy::core::Algorithm;
using galaxy::core::GroupedDataset;
using galaxy::server::HttpRequest;
using galaxy::server::HttpResponse;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Run parameters. ---------------------------------------------------

constexpr double kWarmupS = 1.0;
constexpr size_t kServedConnections = 4;
// Timed set-ups per run (see SetUpSecondsOverCpus): eight, and one, per
// CPU on a 4-thread machine.
constexpr int kCheapSetupRepeats = 32;
constexpr int kViewSetupRepeats = 4;
constexpr size_t kOracleSamples = 6;
// Upper limit on the traced replay's length.
constexpr double kMaxReplayS = 6.0;

// update_mix.
constexpr size_t kEventGroups = 200;
constexpr uint64_t kSnapshotEvery = 1000;
constexpr double kViewGamma = 0.6;

// paper_operator: records per shape.
constexpr size_t kOperatorRecords = 4000;

// ---- Small helpers. ----------------------------------------------------

double ReplaySeconds(const Options& options) {
  return std::min(options.seconds, kMaxReplayS);
}

/// The string literals of a JSON array that starts after `key`.
std::vector<std::string> JsonStringsAfter(const std::string& body,
                                          const std::string& key,
                                          const std::string& stop) {
  std::vector<std::string> out;
  size_t pos = body.find(key);
  if (pos == std::string::npos) return out;
  const size_t end = body.find(stop, pos + key.size());
  pos += key.size();
  while (true) {
    const size_t open = body.find('"', pos);
    if (open == std::string::npos || open >= end) break;
    const size_t close = body.find('"', open + 1);
    if (close == std::string::npos || close > end) break;
    out.push_back(body.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return out;
}

std::vector<std::string> QueryLabels(const std::string& body) {
  return JsonStringsAfter(body, "\"rows\": [", "\"row_count\"");
}

bool SameSet(std::vector<std::string> a, std::vector<std::string> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ",";
    out += item;
  }
  return out;
}

HttpRequest ParseOrDie(const std::string& raw) {
  HttpRequest request;
  galaxy::server::ParseHttpRequest(raw, &request);
  return request;
}

std::vector<std::string> OracleSkyline(const Table& table,
                                       const std::string& key,
                                       const std::vector<std::string>& attrs,
                                       double gamma) {
  GroupedDataset dataset = *GroupedDataset::FromTable(table, {key}, attrs);
  galaxy::testing::OracleResult oracle = galaxy::testing::ComputeOracle(
      dataset, galaxy::core::GammaThresholds::FromGamma(gamma));
  std::vector<std::string> labels;
  for (uint32_t id : oracle.skyline) {
    labels.push_back(dataset.group(id).label());
  }
  return labels;
}

std::vector<std::string> NativeSkyline(const Table& table,
                                       const std::string& key,
                                       const std::vector<std::string>& attrs,
                                       double gamma, Algorithm algorithm) {
  GroupedDataset dataset = *GroupedDataset::FromTable(table, {key}, attrs);
  galaxy::core::AggregateSkylineOptions options;
  options.gamma = gamma;
  options.algorithm = algorithm;
  return galaxy::core::ComputeAggregateSkyline(dataset, options)
      .Labels(dataset);
}

// ---- The served program. ------------------------------------------------

/// One set-up of the program: the database, optional durability and the
/// server, destroyed in reverse order (server first).
struct Served {
  galaxy::sql::Database db;
  std::unique_ptr<galaxy::storage::DurabilityManager> durability;
  std::unique_ptr<galaxy::server::Server> server;
  std::string data_dir;

  ~Served() {
    server.reset();
    durability.reset();
    if (!data_dir.empty()) {
      std::error_code ignored;
      fs::remove_all(data_dir, ignored);
    }
  }
};

struct TableInput {
  std::string name;
  Schema schema;
  std::vector<Row> rows;
};

struct SetupTimes {
  double setup_s = 0.0;
  double table_build_s = 0.0;
};

/// Set-up of one served instance; every timed call is a program call.
/// `view` and durability are used by update_mix only.
std::unique_ptr<Served> SetUpServed(const std::vector<TableInput>& tables,
                                    bool durable, const std::string& data_dir,
                                    SetupTimes* times, RunResult* result) {
  auto served = std::make_unique<Served>();
  const Clock::time_point start = Clock::now();
  galaxy::server::ServerOptions options;
  options.port = 0;
  if (durable) options.snapshot_every = kSnapshotEvery;
  served->server =
      std::make_unique<galaxy::server::Server>(&served->db, options);
  if (durable) {
    served->data_dir = data_dir;
    galaxy::storage::DurabilityOptions durability_options;
    durability_options.wal.policy = galaxy::storage::FsyncPolicy::kInterval;
    auto opened = galaxy::storage::DurabilityManager::Open(
        galaxy::storage::Env::Default(), data_dir, &served->db,
        durability_options, served->server->DurabilityHooks());
    if (!opened.ok()) {
      result->Fail("durability open: " + opened.status().message());
      return nullptr;
    }
    served->durability = std::move(*opened);
  }
  const Clock::time_point build_start = Clock::now();
  for (const TableInput& input : tables) {
    served->db.Register(input.name, Table(input.schema, input.rows));
  }
  times->table_build_s = SecondsSince(build_start);
  if (durable) {
    galaxy::Status status = served->durability->Bootstrap();
    if (!status.ok()) {
      result->Fail("durability bootstrap: " + status.message());
      return nullptr;
    }
    served->server->AttachDurability(served->durability.get());
    status = served->server->EnableSkylineView(
        {"events", "class", {"a0", "a1", "a2"}, kViewGamma});
    if (!status.ok()) {
      result->Fail("skyline view: " + status.message());
      return nullptr;
    }
  }
  galaxy::Status started = served->server->Start();
  if (!started.ok()) {
    result->Fail("server start: " + started.message());
    return nullptr;
  }
  times->setup_s = SecondsSince(start);
  return served;
}

/// Times `repeats` runs of `set_up` (which returns its own seconds), run
/// `i` on a fresh thread pinned to the i-th CPU this process may use,
/// round robin, and returns the mean over CPUs of each CPU's median. On a
/// virtual machine each vCPU's speed follows its host's load and changes
/// over seconds: the same set-up read 0.4 ms on one vCPU and 0.7 ms on
/// another a few seconds later, so timing it wherever the scheduler put
/// the thread made each run's figure jump between the two. A CPU that
/// refuses the pinning still gives its repeats, unpinned.
double SetUpSecondsOverCpus(int repeats,
                            const std::function<double()>& set_up) {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  std::vector<std::vector<double>> seconds(cpus.size());
  for (int i = 0; i < repeats; ++i) {
    const size_t slot = static_cast<size_t>(i) % cpus.size();
    std::thread pinned([&] {
      if (cpus[slot] >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[slot], &one);
        (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      }
      seconds[slot].push_back(set_up());
      // Hand the freed instance's memory back, so that the arena of each
      // pinned thread does not add to the run's peak_rss_mb.
      malloc_trim(0);
    });
    pinned.join();
  }
  std::vector<double> medians;
  for (const std::vector<double>& cpu : seconds) {
    if (!cpu.empty()) medians.push_back(Median(cpu));
  }
  return Mean(medians);
}

/// Sets the program up `repeats` times to time it (see
/// SetUpSecondsOverCpus; 0 in the traced run), then once more on this
/// thread for the instance that is kept and driven: threads the server
/// starts inherit their creator's CPU set, so it must not be a pinned one.
std::unique_ptr<Served> SetUpRepeated(int repeats,
                                      const std::vector<TableInput>& tables,
                                      bool durable, const Options& options,
                                      SetupTimes* times, RunResult* result) {
  int instance = 0;
  std::vector<double> build;
  const auto set_up = [&](SetupTimes* t) {
    const std::string dir = options.work_dir + "/data-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(instance++);
    std::error_code ignored;
    fs::remove_all(dir, ignored);
    std::unique_ptr<Served> served =
        SetUpServed(tables, durable, dir, t, result);
    build.push_back(t->table_build_s);
    return served;
  };
  if (repeats > 0) {
    times->setup_s = SetUpSecondsOverCpus(repeats, [&] {
      SetupTimes t;
      return set_up(&t) == nullptr ? 0.0 : t.setup_s;
    });
    if (!result->correct) return nullptr;
  }
  SetupTimes kept;
  std::unique_ptr<Served> served = set_up(&kept);
  if (repeats == 0) times->setup_s = kept.setup_s;
  times->table_build_s = Median(build);
  return served;
}

// ---- Served-run bookkeeping. -------------------------------------------

struct ServedStats {
  std::vector<double> latency_ms[kNumOpKinds];
  std::vector<double> all_ms;       ///< every operation type
  std::vector<double> uncached_ms;  ///< queries the cache cannot answer
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ok_queries = 0;
  uint64_t ok_all = 0;
  uint64_t rejected = 0;
  uint64_t response_bytes = 0;
  uint64_t responses = 0;
  double elapsed_s = 0.0;
  galaxy::server::ResultCache::Stats cache_before, cache_after;

  void Record(const Completion& done) {
    if (!done.measured) return;
    const bool ok = done.status == 200;
    const int kind = static_cast<int>(done.request->kind);
    ++attempted;
    if (!ok) ++failed;
    if (done.status == 429) ++rejected;
    latency_ms[kind].push_back(ok ? done.latency_ms : kFailedLatencyMs);
    all_ms.push_back(latency_ms[kind].back());
    if (ok) ++ok_all;
    if (done.request->kind == OpKind::kQuery && !done.request->hot) {
      uncached_ms.push_back(latency_ms[kind].back());
    }
    if (ok && done.request->kind == OpKind::kQuery) ++ok_queries;
    if (done.body != nullptr) {
      response_bytes += done.body->size();
      ++responses;
    }
  }

  void Report(RunResult* result) const {
    result->attempted += attempted;
    result->failed += failed;
  }
};

/// The end-to-end metrics of a served run. With `every_operation` (the
/// update_mix workload) a "query" is any request of the mix: /update,
/// GET /skyline and queries alike, so the write path moves the bounded
/// metrics too.
void SetEndToEnd(const ServedStats& stats, const SetupTimes& times,
                 bool every_operation, RunResult* result) {
  const auto& queries =
      every_operation ? stats.all_ms
                      : stats.latency_ms[static_cast<int>(OpKind::kQuery)];
  result->values["setup_s"] = times.setup_s;
  result->values["query_qps"] =
      static_cast<double>(every_operation ? stats.ok_all : stats.ok_queries) /
      stats.elapsed_s;
  result->values["query_p50_ms"] = Percentile(queries, 0.50);
  result->values["query_p99_ms"] = Percentile(queries, 0.99);
}

void SetServedLayers(const ServedStats& stats, RunResult* result) {
  const uint64_t hits = stats.cache_after.hits - stats.cache_before.hits;
  const uint64_t misses = stats.cache_after.misses - stats.cache_before.misses;
  auto& v = result->values;
  v["server.cache_hit_ratio"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  v["server.cache_invalidations"] = static_cast<double>(
      stats.cache_after.invalidations - stats.cache_before.invalidations);
  v["server.admission_rejected"] = static_cast<double>(stats.rejected);
  v["server.response_bytes"] =
      stats.responses == 0 ? 0.0
                           : static_cast<double>(stats.response_bytes) /
                                 static_cast<double>(stats.responses);
  v["loadgen.error_ratio"] =
      stats.attempted == 0 ? 0.0
                           : static_cast<double>(stats.failed) /
                                 static_cast<double>(stats.attempted);
}

// ---- Traced replay. ----------------------------------------------------

/// Tracing overhead: the replay's side-effect-free calls run twice per
/// request, once traced and once not, alternating which goes first.
struct Overhead {
  double traced_s = 0.0;
  double untraced_s = 0.0;

  template <typename Fn>
  void Measure(Tracer* tracer, uint64_t request, Fn&& calls) {
    const bool traced_first = request % 2 == 0;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == traced_first;
      tracer->set_enabled(traced);
      const Clock::time_point start = Clock::now();
      calls(traced);
      (traced ? traced_s : untraced_s) += SecondsSince(start);
    }
    tracer->set_enabled(true);
  }

  double Percent() const {
    return untraced_s <= 0.0 ? 0.0 : (traced_s / untraced_s - 1.0) * 100.0;
  }
};

/// Per-query counters of the SQL and core layers, averaged over the
/// replayed queries that reached the executor.
struct QueryCounters {
  std::vector<double> cross_product_rows, hash_joins, pushed_filters,
      base_rows_filtered, rows_examined_per_result_row, vectorized_predicates,
      vectorized_folds, group_gather_cells, record_comparisons, group_pairs,
      stopped_early, mbb_shortcuts;

  void Add(const galaxy::sql::ExecStats& stats, size_t scanned_rows,
           size_t result_rows) {
    cross_product_rows.push_back(static_cast<double>(stats.cross_product_rows));
    hash_joins.push_back(static_cast<double>(stats.hash_joins));
    pushed_filters.push_back(static_cast<double>(stats.pushed_filters));
    base_rows_filtered.push_back(static_cast<double>(stats.base_rows_filtered));
    const double examined =
        stats.cross_product_rows > 0
            ? static_cast<double>(stats.cross_product_rows +
                                  stats.base_rows_filtered)
            : static_cast<double>(scanned_rows);
    rows_examined_per_result_row.push_back(
        examined / static_cast<double>(std::max<size_t>(1, result_rows)));
    vectorized_predicates.push_back(
        static_cast<double>(stats.vectorized_predicates));
    vectorized_folds.push_back(static_cast<double>(stats.vectorized_folds));
    group_gather_cells.push_back(static_cast<double>(stats.group_gather_cells));
    AddSkyline(stats.skyline_stats);
  }

  void AddSkyline(const galaxy::core::AggregateSkylineStats& stats) {
    record_comparisons.push_back(static_cast<double>(stats.record_comparisons));
    group_pairs.push_back(static_cast<double>(stats.group_pairs_classified));
    stopped_early.push_back(static_cast<double>(stats.stopped_early));
    mbb_shortcuts.push_back(static_cast<double>(stats.mbb_shortcuts));
  }

  void Report(RunResult* result) const {
    auto& v = result->values;
    v["sql.cross_product_rows"] = Mean(cross_product_rows);
    v["sql.hash_joins"] = Mean(hash_joins);
    v["sql.pushed_filters"] = Mean(pushed_filters);
    v["sql.base_rows_filtered"] = Mean(base_rows_filtered);
    v["sql.rows_examined_per_result_row"] = Mean(rows_examined_per_result_row);
    v["sql.vectorized_predicates"] = Mean(vectorized_predicates);
    v["sql.vectorized_folds"] = Mean(vectorized_folds);
    v["sql.group_gather_cells"] = Mean(group_gather_cells);
    ReportCore(result);
  }

  void ReportCore(RunResult* result) const {
    auto& v = result->values;
    v["core.record_comparisons"] = Mean(record_comparisons);
    v["core.group_pairs"] = Mean(group_pairs);
    v["core.stopped_early"] = Mean(stopped_early);
    v["core.mbb_shortcuts"] = Mean(mbb_shortcuts);
    const double pairs = Mean(group_pairs);
    v["core.early_stop_ratio"] = pairs == 0.0 ? 0.0 : Mean(stopped_early) / pairs;
  }
};

/// Replays one request of a served workload: HTTP parse, Server::Handle
/// and serialization, plus — for a query the cache does not answer — the
/// SQL parse, the execution and (for GROUP BY ... SKYLINE OF) the
/// aggregate-skyline operator on the same groups, each timed on its own.
class Replayer {
 public:
  Replayer(Served* served, Tracer* tracer, Overhead* overhead,
           QueryCounters* counters)
      : served_(served),
        tracer_(tracer),
        overhead_(overhead),
        counters_(counters) {}

  /// Table whose groups back core.skyline spans (skyline queries only).
  void set_skyline_table(std::shared_ptr<const Table> table) {
    skyline_table_ = std::move(table);
  }

  void Replay(const Request& request, uint64_t id, uint64_t root) {
    const std::string raw = ToHttp(request);
    HttpResponse response;
    {
      HttpRequest parsed = ParseOrDie(raw);
      Tracer::Scope span(tracer_, "server.handle", id, root);
      response = served_->server->Handle(parsed);
    }
    const bool executes = request.kind == OpKind::kQuery && !request.hot;
    overhead_->Measure(tracer_, id, [&](bool traced) {
      HttpRequest parsed;
      {
        Tracer::Scope span(tracer_, "server.http_parse", id, root);
        galaxy::server::ParseHttpRequest(raw, &parsed);
      }
      {
        Tracer::Scope span(tracer_, "server.serialize", id, root);
        std::string bytes = galaxy::server::SerializeResponse(response);
      }
      if (executes) ExecuteLayers(request, id, root, traced);
    });
  }

 private:
  void ExecuteLayers(const Request& request, uint64_t id, uint64_t root,
                     bool traced) {
    galaxy::Result<std::unique_ptr<galaxy::sql::SelectStmt>> stmt =
        galaxy::Status::Internal("unparsed");
    {
      Tracer::Scope span(tracer_, "sql.parse", id, root);
      stmt = galaxy::sql::Parse(request.body);
    }
    if (!stmt.ok()) return;
    galaxy::sql::ExecStats stats;
    galaxy::Result<Table> result = galaxy::Status::Internal("unexecuted");
    {
      Tracer::Scope span(tracer_, "sql.execute", id, root);
      result = galaxy::sql::ExecuteSelect(served_->db, **stmt, &stats);
    }
    if (!result.ok()) return;
    if (traced) {
      counters_->Add(stats, ScannedRows(request), result->num_rows());
    }
    if (skyline_table_ != nullptr && !request.attrs.empty()) {
      GroupedDataset dataset =
          *GroupedDataset::FromTable(*skyline_table_, {"class"}, request.attrs);
      galaxy::core::AggregateSkylineOptions options;
      options.gamma = request.gamma;
      options.algorithm = Algorithm::kNestedLoop;
      Tracer::Scope span(tracer_, "core.skyline", id, root);
      galaxy::core::AggregateSkylineResult sky =
          galaxy::core::ComputeAggregateSkyline(dataset, options);
      (void)sky;
    }
  }

  size_t ScannedRows(const Request& request) const {
    // Single-table queries scan their FROM table once.
    const size_t from = request.body.find(" FROM ");
    if (from == std::string::npos) return 0;
    const size_t begin = from + 6;
    const size_t end = request.body.find(' ', begin);
    auto table = served_->db.GetTable(request.body.substr(begin, end - begin));
    return table.ok() ? (*table)->num_rows() : 0;
  }

  Served* served_;
  Tracer* tracer_;
  Overhead* overhead_;
  QueryCounters* counters_;
  std::shared_ptr<const Table> skyline_table_;
};

void SetSpanMedian(const Tracer& tracer, const std::string& span,
                   const std::string& metric, double scale,
                   RunResult* result) {
  result->values[metric] = Median(tracer.Durations(span)) * scale;
}

/// The traced run's attribution table for uncached queries: per request,
/// the time inside Server::Handle split into the SQL parse, the execution
/// and the aggregate-skyline operator (each timed as its own call on the
/// same request), reported as medians over the replayed requests; the
/// rest of the end-to-end median is outside Handle (transport, reactor,
/// worker hand-off and queueing).
std::string AttributionTable(const std::string& workload, double e2e_p50_us,
                             const Tracer& tracer, const RunResult& result) {
  struct Calls {
    double handle = 0, parse = 0, execute = 0, skyline = 0;
  };
  std::map<uint64_t, Calls> requests;
  for (const Span& span : tracer.spans()) {
    const std::string_view name = span.name;
    Calls& calls = requests[span.request];
    if (name == "server.handle") calls.handle += span.micros();
    if (name == "sql.parse") calls.parse += span.micros();
    if (name == "sql.execute") calls.execute += span.micros();
    if (name == "core.skyline") calls.skyline += span.micros();
  }
  std::vector<double> handle, handle_self, parse, execute_self, skyline;
  const std::vector<double> native = tracer.Durations("core.native");
  for (const auto& [id, calls] : requests) {
    if (calls.execute <= 0.0) continue;  // cache hits, updates, views
    handle.push_back(calls.handle);
    handle_self.push_back(calls.handle - calls.parse - calls.execute);
    parse.push_back(calls.parse);
    execute_self.push_back(calls.execute - calls.skyline);
    skyline.push_back(calls.skyline);
  }
  struct Line {
    const char* layer;
    double us;
  };
  const std::vector<Line> lines = {
      {"outside Handle: transport, reactor, hand-off, queueing",
       e2e_p50_us - Median(handle)},
      {"server: Handle self (cache lookup, admission, JSON)",
       Median(handle_self)},
      {"sql: parse", Median(parse)},
      {"sql: execute self (plan, scan/filter, join, group gather)",
       Median(execute_self)},
      {"core: aggregate skyline (NL)", Median(skyline)},
  };
  const bool has_skyline = std::any_of(
      skyline.begin(), skyline.end(), [](double us) { return us > 0.0; });
  char text[256];
  std::string out = "### " + workload +
                    "\n\n| layer | median us | share of e2e p50 |\n"
                    "|---|---:|---:|\n";
  for (const Line& line : lines) {
    if (&line == &lines.back() && !has_skyline) break;
    std::snprintf(text, sizeof(text), "| %s | %.1f | %.1f%% |\n", line.layer,
                  line.us,
                  e2e_p50_us > 0 ? 100.0 * line.us / e2e_p50_us : 0.0);
    out += text;
  }
  if (!native.empty()) {
    std::snprintf(text, sizeof(text),
                  "| *reference: native operator (NL) on the same groups, "
                  "not on the path* | %.1f | SQL execute / native = %.0fx |\n",
                  Median(native), Median(native) > 0
                                      ? Median(execute_self) / Median(native)
                                      : 0.0);
    out += text;
  }
  const auto get = [&](const char* name) {
    auto it = result.values.find(name);
    return it == result.values.end() ? 0.0 : it->second;
  };
  std::snprintf(text, sizeof(text),
                "| **e2e p50, uncached queries** | %.1f | 100%% |\n\n"
                "%zu uncached queries replayed. Tracing overhead: %.2f%% "
                "over %.0f spans.\n",
                e2e_p50_us, handle.size(), get("trace.overhead_pct"),
                get("trace.spans"));
  out += text;
  return out;
}

void InitPerLayer(RunResult* result) {
  for (const MetricSpec& spec : kPerLayerMetrics) result->values[spec.name] = 0;
}

void WriteTrace(const Tracer& tracer, const Options& options) {
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  if (!tracer.WriteJsonl(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

// ---- skyline_cold and sql_baseline. ------------------------------------

struct ClosedQueryWorkload {
  TableInput table;
  std::function<std::unique_ptr<RequestSource>()> make_source;
  /// Checks one answer; returns an error message or "".
  std::function<std::string(const Table&, const Request&, const std::string&)>
      check;
  /// Answers to check: every one, or a seeded sample of this many.
  size_t check_sample = 0;
  bool skyline_layer = false;
};

void RunClosedQuery(const ClosedQueryWorkload& w, const Options& options,
                    RunResult* result) {
  SetupTimes times;
  std::unique_ptr<Served> served =
      SetUpRepeated(options.trace ? 0 : kCheapSetupRepeats, {w.table}, false,
                    options, &times, result);
  if (served == nullptr) return;

  std::unique_ptr<RequestSource> source = w.make_source();
  const std::vector<RequestSource*> connections(kServedConnections,
                                                source.get());
  // Which measured answers to keep for checking.
  Rng pick(options.seed, 21);
  std::set<uint64_t> sample;
  while (w.check_sample > 0 && sample.size() < w.check_sample) {
    sample.insert(pick.Below(100));
  }
  std::vector<std::pair<Request, std::string>> answers;
  uint64_t ordinal = 0;

  ServedStats stats;
  stats.cache_before = served->server->cache_stats();
  DriveOptions drive;
  drive.port = served->server->port();
  drive.warmup_s = kWarmupS;
  drive.measure_s = options.seconds;
  stats.elapsed_s = Drive(connections, drive, [&](const Completion& done) {
    stats.Record(done);
    if (!done.measured || done.status != 200) return;
    if (w.check_sample == 0 || sample.count(ordinal) > 0) {
      answers.emplace_back(*done.request, *done.body);
    }
    ++ordinal;
  });
  stats.cache_after = served->server->cache_stats();
  stats.Report(result);

  // Answer checks, outside the timed window.
  std::shared_ptr<const Table> table = *served->db.GetTable(w.table.name);
  for (const auto& [request, body] : answers) {
    const std::string problem = w.check(*table, request, body);
    if (!problem.empty()) {
      result->Fail(problem);
      break;
    }
  }
  if (answers.empty()) result->Fail("no answer was checked");

  if (!options.trace) {
    SetEndToEnd(stats, times, false, result);
    result->values["peak_rss_mb"] = PeakRssMb();
    return;
  }

  InitPerLayer(result);
  SetServedLayers(stats, result);
  result->values["relation.table_build_s"] = times.table_build_s;
  Tracer tracer(1 << 20);
  Overhead overhead;
  QueryCounters counters;
  Replayer replayer(served.get(), &tracer, &overhead, &counters);
  if (w.skyline_layer) replayer.set_skyline_table(table);
  // sql_baseline: the native operator on the same groups ("core.native",
  // off the query's path), for the SQL-over-native ratio.
  const Clock::time_point start = Clock::now();
  for (uint64_t id = 1; SecondsSince(start) < ReplaySeconds(options); ++id) {
    std::optional<Request> request = source->Next();
    Tracer::Scope root(&tracer, "request", id);
    replayer.Replay(*request, id, root.id());
    if (!w.skyline_layer) {
      GroupedDataset dataset =
          *GroupedDataset::FromTable(*table, {"class"}, request->attrs);
      galaxy::core::AggregateSkylineOptions sky;
      sky.gamma = request->gamma;
      sky.algorithm = Algorithm::kNestedLoop;
      Tracer::Scope span(&tracer, "core.native", id, root.id());
      (void)galaxy::core::ComputeAggregateSkyline(dataset, sky);
    }
  }
  SetSpanMedian(tracer, "server.http_parse", "server.http_parse_us", 1,
                result);
  SetSpanMedian(tracer, "server.serialize", "server.serialize_us", 1, result);
  SetSpanMedian(tracer, "server.handle", "server.handle_us", 1, result);
  SetSpanMedian(tracer, "sql.parse", "sql.parse_us", 1, result);
  SetSpanMedian(tracer, "sql.execute", "sql.execute_us", 1, result);
  SetSpanMedian(tracer, w.skyline_layer ? "core.skyline" : "core.native",
                "core.skyline_us", 1, result);
  counters.Report(result);
  const double e2e_p50_us =
      Percentile(stats.latency_ms[static_cast<int>(OpKind::kQuery)], 0.5) *
      1e3;
  result->values["server.transport_us"] =
      e2e_p50_us - result->values["server.handle_us"];
  result->values["trace.overhead_pct"] = overhead.Percent();
  result->values["trace.spans"] = static_cast<double>(tracer.spans().size());
  result->attribution =
      AttributionTable(options.workload, e2e_p50_us, tracer, *result);
  WriteTrace(tracer, options);
}

void RunSkylineCold(const Options& options, RunResult* result) {
  Rng rng(options.seed, 1);
  GroupedShape shape;
  shape.records = 8000;
  shape.per_group = 100;
  shape.dims = 4;
  GroupedPoints points = MakeGroupedPoints(shape, rng);

  ClosedQueryWorkload w;
  w.table = {"data", GroupedSchema(4, false), GroupedRows(points, false)};
  w.make_source = [&] {
    return std::make_unique<SkylineColdSource>(options.seed);
  };
  w.check_sample = kOracleSamples;
  w.skyline_layer = true;
  w.check = [](const Table& table, const Request& request,
               const std::string& body) -> std::string {
    if (body.find("\"degraded\": false") == std::string::npos) {
      return "degraded answer to: " + request.body;
    }
    const std::vector<std::string> expected =
        OracleSkyline(table, "class", request.attrs, request.gamma);
    const std::vector<std::string> got = QueryLabels(body);
    if (!SameSet(expected, got)) {
      return "answer differs from the Definition-3 oracle for: " +
             request.body + " (got " + Join(got) + ", oracle " +
             Join(expected) + ")";
    }
    return "";
  };
  RunClosedQuery(w, options, result);
}

void RunSqlBaseline(const Options& options, RunResult* result) {
  Rng rng(options.seed, 2);
  GroupedShape shape;
  shape.records = 250;
  shape.per_group = 25;
  shape.dims = 2;
  shape.distribution = Distribution::kIndependent;
  GroupedPoints points = MakeGroupedPoints(shape, rng);

  ClosedQueryWorkload w;
  w.table = {"fig8", GroupedSchema(2, true), GroupedRows(points, true)};
  w.make_source = [&] {
    return std::make_unique<SqlBaselineSource>(options.seed);
  };
  w.check = [](const Table& table, const Request& request,
               const std::string& body) -> std::string {
    const std::vector<std::string> expected = NativeSkyline(
        table, "class", request.attrs, request.gamma, Algorithm::kNestedLoop);
    const std::vector<std::string> got = QueryLabels(body);
    if (!SameSet(expected, got)) {
      return "Algorithm-1 answer differs from the native operator at gamma " +
             std::to_string(request.gamma) + " (got " + Join(got) +
             ", native " + Join(expected) + ")";
    }
    return "";
  };
  RunClosedQuery(w, options, result);
}

// ---- update_mix. --------------------------------------------------------

/// Keeps every hardware thread busy at the lowest scheduling priority
/// (SCHED_IDLE) while update_mix is driven, so no CPU is halted when a
/// thread of the program wakes up. On a virtual machine, waking a halted vCPU
/// goes through the hypervisor and takes a time that varies with the
/// host's load; without the spinners that variation dominated the
/// latency of the short requests in update_mix. A spinner gives its CPU
/// up to any runnable thread of normal priority at once.
class IdleSpinners {
 public:
  IdleSpinners() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;  // never spin at normal priority
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& thread : threads_) thread.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// update_mix: how Server::Handle time in the replay splits over the
/// mix's operations. UpdateMixSource::kCycle is chosen from this table.
std::string MixTable(const std::vector<double> (&handle_us)[kNumMixOps],
                     const RunResult& result) {
  static constexpr const char* kNames[kNumMixOps] = {
      "POST /update", "GET /skyline", "aggregate on events (cache miss)",
      "NBA hot-set query (cache hit)"};
  double total_us = 0.0;
  size_t total_calls = 0;
  for (const auto& calls : handle_us) {
    for (double us : calls) total_us += us;
    total_calls += calls.size();
  }
  char text[256];
  std::string out =
      "\n| operation (cycle `" + std::string(UpdateMixSource::kCycle) +
      "`) | share of requests | median Handle us | share of Handle time |\n"
      "|---|---:|---:|---:|\n";
  for (int op = 0; op < kNumMixOps; ++op) {
    double sum = 0.0;
    for (double us : handle_us[op]) sum += us;
    std::snprintf(text, sizeof(text), "| %s | %.1f%% | %.1f | %.1f%% |\n",
                  kNames[op],
                  100.0 * static_cast<double>(handle_us[op].size()) /
                      static_cast<double>(std::max<size_t>(1, total_calls)),
                  Median(handle_us[op]),
                  total_us > 0.0 ? 100.0 * sum / total_us : 0.0);
    out += text;
  }
  std::snprintf(text, sizeof(text),
                "\nThe write path (/update and the view drain behind "
                "GET /skyline) takes %.1f%% of Handle time "
                "(`server.write_share`).\n",
                100.0 * result.values.at("server.write_share"));
  return out + text;
}

void RunUpdateMix(const Options& options, RunResult* result) {
  Rng rng(options.seed, 3);
  GroupedShape shape;
  shape.records = 20000;
  shape.per_group = 100;
  shape.dims = 3;
  shape.label_prefix = "c";
  GroupedPoints events = MakeGroupedPoints(shape, rng);
  const std::vector<TableInput> tables = {
      {"events", GroupedSchema(3, false), GroupedRows(events, false)},
      {"nba", NbaSchema(), NbaRows(rng)}};

  SetupTimes times;
  std::unique_ptr<Served> served =
      SetUpRepeated(options.trace ? 0 : kViewSetupRepeats, tables, true,
                    options, &times, result);
  if (served == nullptr) return;
  const uint16_t port = served->server->port();

  // Warm-up: the hot set's cold answers, paid once.
  std::map<std::string, std::string> cold_answers;
  for (const Request& request : NbaHotSet(options.seed)) {
    std::string body;
    const int status = SendOne(port, request, &body);
    if (status != 200) {
      result->Fail("hot-set warm-up got HTTP " + std::to_string(status));
      return;
    }
    cold_answers[request.body] = body;
  }

  UpdateMixSource mix(options.seed, kEventGroups);
  uint64_t inserts = 0, removes = 0;
  uint64_t hot_mismatches = 0;
  std::string first_mismatch;
  ServedStats stats;
  stats.cache_before = served->server->cache_stats();
  const uint64_t generation_before = served->durability->generation();
  DriveOptions drive;
  drive.port = port;
  drive.warmup_s = kWarmupS;
  drive.measure_s = options.seconds;
  const std::vector<RequestSource*> connections(kServedConnections, &mix);
  {
    IdleSpinners spinners;  // only while the mix is driven
    stats.elapsed_s = Drive(connections, drive, [&](const Completion& done) {
      stats.Record(done);
      if (done.status != 200) return;
      if (done.request->kind == OpKind::kUpdate) {
        ++(done.request->insert ? inserts : removes);
      } else if (done.request->hot &&
                 cold_answers[done.request->body] != *done.body) {
        if (hot_mismatches++ == 0) first_mismatch = done.request->body;
      }
    });
  }
  stats.cache_after = served->server->cache_stats();
  const uint64_t snapshots =
      served->durability->generation() - generation_before;
  stats.Report(result);

  // Answer checks, outside the timed window.
  if (hot_mismatches > 0) {
    result->Fail(std::to_string(hot_mismatches) +
                 " hot-set hits differ from their cold answer, first: " +
                 first_mismatch);
  }
  std::shared_ptr<const Table> final_events = *served->db.GetTable("events");
  const uint64_t expected_rows = 20000 + inserts - removes;
  if (final_events->num_rows() != expected_rows) {
    result->Fail("events has " + std::to_string(final_events->num_rows()) +
                 " rows, expected " + std::to_string(expected_rows));
  }
  const HttpResponse final_view =
      served->server->Handle(ParseOrDie(ToHttp(ViewRequest())));
  const std::vector<std::string> expected =
      NativeSkyline(*final_events, "class", {"a0", "a1", "a2"}, kViewGamma,
                    Algorithm::kBruteForce);
  const std::vector<std::string> got =
      JsonStringsAfter(final_view.body, "\"skyline\": [", "]");
  if (final_view.status != 200 || !SameSet(expected, got)) {
    result->Fail("final /skyline (" + Join(got) +
                 ") differs from a fresh computation (" + Join(expected) +
                 ")");
  }

  if (!options.trace) {
    SetEndToEnd(stats, times, true, result);
    result->values["peak_rss_mb"] = PeakRssMb();
    return;
  }

  InitPerLayer(result);
  SetServedLayers(stats, result);
  auto& v = result->values;
  v["relation.table_build_s"] = times.table_build_s;
  v["storage.snapshots"] = static_cast<double>(snapshots);
  const auto& lat = stats.latency_ms;
  v["e2e.update_p50_ms"] =
      Percentile(lat[static_cast<int>(OpKind::kUpdate)], 0.50);
  v["e2e.update_p99_ms"] =
      Percentile(lat[static_cast<int>(OpKind::kUpdate)], 0.99);
  v["e2e.view_p50_ms"] = Percentile(lat[static_cast<int>(OpKind::kView)], 0.50);
  v["e2e.view_p99_ms"] = Percentile(lat[static_cast<int>(OpKind::kView)], 0.99);

  // Private copies of the write path's layers, fed the same updates the
  // server gets: copy-on-write installs, WAL appends and snapshots on a
  // second database and data directory, and the incremental view.
  Tracer tracer(1 << 21);
  Overhead overhead;
  QueryCounters counters;
  galaxy::sql::Database private_db;
  uint64_t wal_bytes = 0, fsyncs = 0, snapshot_bytes = 0, body_bytes = 0;
  galaxy::storage::DurabilityMetricsHooks hooks;
  hooks.on_wal_append = [&](uint64_t bytes) { wal_bytes += bytes; };
  hooks.on_wal_fsync = [&](double) { ++fsyncs; };
  const std::string private_dir =
      options.work_dir + "/replay-" + std::to_string(::getpid());
  std::error_code ignored;
  fs::remove_all(private_dir, ignored);
  galaxy::storage::DurabilityOptions durability_options;
  durability_options.wal.policy = galaxy::storage::FsyncPolicy::kInterval;
  auto opened = galaxy::storage::DurabilityManager::Open(
      galaxy::storage::Env::Default(), private_dir, &private_db,
      durability_options, hooks);
  if (!opened.ok()) {
    result->Fail("replay durability open: " + opened.status().message());
    return;
  }
  std::unique_ptr<galaxy::storage::DurabilityManager> durability =
      std::move(*opened);
  private_db.Register("events", *final_events);
  private_db.Register("nba", **served->db.GetTable("nba"));
  std::shared_ptr<const Table> private_events = *private_db.GetTable("events");
  if (galaxy::Status status = durability->Bootstrap(); !status.ok()) {
    result->Fail("replay durability bootstrap: " + status.message());
    return;
  }
  auto dir_bytes = [&] {
    uint64_t total = 0;
    for (const auto& entry : fs::directory_iterator(private_dir)) {
      if (entry.is_regular_file()) total += entry.file_size();
    }
    return total;
  };
  galaxy::core::IncrementalAggregateSkyline view(3, kViewGamma);
  std::map<std::string, uint32_t> group_ids;
  for (size_t r = 0; r < private_events->num_rows(); ++r) {
    const std::string label = private_events->at(r, 0).AsString();
    auto [it, added] = group_ids.emplace(label, 0);
    if (added) it->second = view.AddGroup(label);
    (void)view.AddRecord(it->second, {private_events->at(r, 1).AsDouble(),
                                      private_events->at(r, 2).AsDouble(),
                                      private_events->at(r, 3).AsDouble()});
  }

  Replayer replayer(served.get(), &tracer, &overhead, &counters);
  uint64_t updates = 0, private_snapshots = 0;
  // Server::Handle time per operation of the mix.
  std::vector<double> handle_us[kNumMixOps];
  const Clock::time_point start = Clock::now();
  for (uint64_t id = 1; SecondsSince(start) < ReplaySeconds(options); ++id) {
    const Request request = *mix.Next();
    Tracer::Scope root(&tracer, "request", id);
    const size_t handle_spans = tracer.spans().size();
    replayer.Replay(request, id, root.id());
    for (size_t s = handle_spans; s < tracer.spans().size(); ++s) {
      const Span& span = tracer.spans()[s];
      if (std::string_view(span.name) == "server.handle") {
        handle_us[static_cast<int>(MixOpOf(request))].push_back(span.micros());
      }
    }
    if (request.kind != OpKind::kUpdate) continue;

    body_bytes += request.body.size();
    galaxy::Result<Row> row = galaxy::Status::Internal("unparsed");
    overhead.Measure(&tracer, id, [&](bool) {
      Tracer::Scope span(&tracer, "relation.csv_row_parse", id, root.id());
      row = galaxy::ParseCsvRowForSchema(private_events->schema(),
                                         request.body);
    });
    if (!row.ok()) {
      result->Fail("replayed update row does not parse: " + request.body);
      break;
    }
    {
      galaxy::Result<Table> next_table = galaxy::Status::Internal("no copy");
      {
        Tracer::Scope span(&tracer, "relation.cow_install", id, root.id());
        next_table = request.insert
                         ? private_events->CopyWithAppended(*row)
                         : private_events->CopyWithRemoved(*row);
      }
      if (!next_table.ok()) {
        result->Fail("replayed update failed: " +
                     next_table.status().message());
        break;
      }
      private_db.Register("events", std::move(*next_table));
      private_events = *private_db.GetTable("events");
    }
    {
      Tracer::Scope span(&tracer, "storage.wal_append", id, root.id());
      (void)durability->LogUpdate({"events", request.insert, request.body});
    }
    if (++updates % kSnapshotEvery == 0) {
      Tracer::Scope span(&tracer, "storage.snapshot", id, root.id());
      (void)durability->Snapshot();
      ++private_snapshots;
    }
    if (updates % kSnapshotEvery == 0) snapshot_bytes += dir_bytes();
    {
      const uint32_t group = group_ids.at((*row)[0].AsString());
      const galaxy::Point point{(*row)[1].AsDouble(), (*row)[2].AsDouble(),
                                (*row)[3].AsDouble()};
      Tracer::Scope span(&tracer, "core.view_drain", id, root.id());
      (void)(request.insert ? view.AddRecord(group, point)
                            : view.RemoveRecord(group, point));
    }
  }
  if (private_snapshots == 0) {
    Tracer::Scope span(&tracer, "storage.snapshot", 0);
    (void)durability->Snapshot();
  }
  durability.reset();
  fs::remove_all(private_dir, ignored);

  SetSpanMedian(tracer, "server.http_parse", "server.http_parse_us", 1,
                result);
  SetSpanMedian(tracer, "server.serialize", "server.serialize_us", 1, result);
  std::vector<double> all_handle_us;
  double op_total_us[kNumMixOps] = {};
  for (int op = 0; op < kNumMixOps; ++op) {
    all_handle_us.insert(all_handle_us.end(), handle_us[op].begin(),
                         handle_us[op].end());
    for (double us : handle_us[op]) op_total_us[op] += us;
  }
  double total_us = 0.0;
  for (double us : op_total_us) total_us += us;
  v["server.handle_us"] = Median(all_handle_us);
  v["server.write_share"] =
      total_us <= 0.0
          ? 0.0
          : (op_total_us[static_cast<int>(MixOp::kUpdate)] +
             op_total_us[static_cast<int>(MixOp::kView)]) /
                total_us;
  SetSpanMedian(tracer, "sql.parse", "sql.parse_us", 1, result);
  SetSpanMedian(tracer, "sql.execute", "sql.execute_us", 1, result);
  SetSpanMedian(tracer, "relation.csv_row_parse", "relation.csv_row_parse_us",
                1, result);
  SetSpanMedian(tracer, "relation.cow_install", "relation.cow_install_us", 1,
                result);
  SetSpanMedian(tracer, "storage.wal_append", "storage.wal_append_us", 1,
                result);
  SetSpanMedian(tracer, "storage.snapshot", "storage.snapshot_s", 1e-6,
                result);
  SetSpanMedian(tracer, "core.view_drain", "core.view_drain_us", 1, result);
  counters.Report(result);
  v["storage.fsyncs"] = static_cast<double>(fsyncs);
  v["storage.write_amp"] =
      body_bytes == 0 ? 0.0
                      : static_cast<double>(wal_bytes + snapshot_bytes) /
                            static_cast<double>(body_bytes);
  // Like query_p50_ms and server.handle_us, over every operation.
  v["server.transport_us"] =
      Percentile(stats.all_ms, 0.5) * 1e3 - v["server.handle_us"];
  v["trace.overhead_pct"] = overhead.Percent();
  v["trace.spans"] = static_cast<double>(tracer.spans().size());
  const double uncached_p50_us = Percentile(stats.uncached_ms, 0.5) * 1e3;
  result->attribution =
      AttributionTable(options.workload, uncached_p50_us, tracer, *result) +
      MixTable(handle_us, *result);
  WriteTrace(tracer, options);
}

// ---- paper_operator. ----------------------------------------------------

struct OperatorCall {
  size_t dataset;  ///< draw * kNumShapes + shape
  size_t shape;
  size_t algorithm;
  double gamma;
};

constexpr Algorithm kPaperAlgorithms[] = {
    Algorithm::kNestedLoop, Algorithm::kTransitive,  Algorithm::kSorted,
    Algorithm::kIndexed,    Algorithm::kIndexedBbox, Algorithm::kAuto};
constexpr const char* kAlgorithmKeys[] = {"nl", "tr", "si", "in", "lo", "auto"};
constexpr size_t kNumAlgorithms = 6;
constexpr size_t kNumShapes = 2;
// Independent datasets drawn per shape: averaging over several draws keeps
// one unlucky draw from moving a run's figures.
constexpr size_t kDrawsPerShape = 8;
constexpr size_t kCallsPerDraw = kNumShapes * kNumAlgorithms;
// Span names, one per (shape, algorithm).
constexpr const char* kOperatorSpans[kNumShapes][kNumAlgorithms] = {
    {"core.fig10.NL", "core.fig10.TR", "core.fig10.SI", "core.fig10.IN",
     "core.fig10.LO", "core.fig10.AUTO"},
    {"core.fig13.NL", "core.fig13.TR", "core.fig13.SI", "core.fig13.IN",
     "core.fig13.LO", "core.fig13.AUTO"}};

/// The call stream: for each draw in turn, both shapes times all six
/// algorithms at one γ, so every algorithm answers the same question.
class OperatorStream {
 public:
  explicit OperatorStream(uint64_t seed) : rng_(seed, 17) {}
  OperatorCall Next() {
    if (position_ % kCallsPerDraw == 0) {
      gamma_ = std::stod(std::to_string(rng_.Uniform(0.5, 0.9)));
    }
    const size_t draw = position_ / kCallsPerDraw;
    const size_t shape = position_ % kCallsPerDraw / kNumAlgorithms;
    OperatorCall call{draw * kNumShapes + shape, shape,
                      position_ % kNumAlgorithms, gamma_};
    position_ = (position_ + 1) % (kDrawsPerShape * kCallsPerDraw);
    return call;
  }

 private:
  Rng rng_;
  size_t position_ = 0;
  double gamma_ = 0.5;
};

galaxy::core::AggregateSkylineResult CallOperator(
    const GroupedDataset& dataset, const OperatorCall& call) {
  galaxy::core::AggregateSkylineOptions options;
  options.gamma = call.gamma;
  options.algorithm = kPaperAlgorithms[call.algorithm];
  return galaxy::core::ComputeAggregateSkyline(dataset, options);
}

void RunPaperOperator(const Options& options, RunResult* result) {
  Rng rng(options.seed, 4);
  std::vector<TableInput> inputs;  // indexed like OperatorCall::dataset
  for (size_t i = 0; i < kDrawsPerShape * kNumShapes; ++i) {
    const GroupSizes sizes =
        i % kNumShapes == 0 ? GroupSizes::kUniform : GroupSizes::kZipf;
    GroupedShape shape;
    shape.records = kOperatorRecords;
    shape.per_group = 100;
    shape.dims = 4;
    shape.sizes = sizes;
    GroupedPoints points = MakeGroupedPoints(shape, rng);
    inputs.push_back({"", GroupedSchema(4, false), GroupedRows(points, false)});
  }

  // Set-up: build the tables and group them into the operator's input.
  std::vector<GroupedDataset> datasets;
  std::vector<double> build;
  const auto set_up = [&] {
    datasets.clear();
    const Clock::time_point start = Clock::now();
    double table_s = 0.0;
    for (const TableInput& input : inputs) {
      const Clock::time_point build_start = Clock::now();
      Table table(input.schema, input.rows);
      table_s += SecondsSince(build_start);
      datasets.push_back(
          *GroupedDataset::FromTable(table, {"class"}, AttrNames(4)));
    }
    build.push_back(table_s);
    return SecondsSince(start);
  };
  const double setup_s =
      options.trace ? 0.0 : SetUpSecondsOverCpus(kCheapSetupRepeats, [&] {
        const double seconds = set_up();
        datasets.clear();  // freed before the memory is handed back
        return seconds;
      });
  set_up();  // the datasets that are kept, built on this thread

  OperatorStream stream(options.seed);
  std::vector<OperatorCall> calls;
  std::vector<std::vector<uint32_t>> skylines;
  std::vector<double> latency_ms;
  // Warm-up: one whole cycle (lazy per-group state fills in).
  for (size_t i = 0; i < kDrawsPerShape * kCallsPerDraw; ++i) {
    const OperatorCall call = stream.Next();
    (void)CallOperator(datasets[call.dataset], call);
  }
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < options.seconds ||
         calls.size() % kCallsPerDraw != 0) {
    const OperatorCall call = stream.Next();
    const Clock::time_point t0 = Clock::now();
    galaxy::core::AggregateSkylineResult sky =
        CallOperator(datasets[call.dataset], call);
    latency_ms.push_back(SecondsSince(t0) * 1e3);
    calls.push_back(call);
    skylines.push_back(std::move(sky.skyline));
  }
  const double elapsed = SecondsSince(start);
  result->attempted += calls.size();

  // Answer check: within each (cycle, shape) all six algorithms agree.
  for (size_t i = 0; i < calls.size(); i += kNumAlgorithms) {
    for (size_t a = 1; a < kNumAlgorithms; ++a) {
      if (skylines[i + a] != skylines[i]) {
        result->Fail(std::string("paper_operator: ") +
                     kOperatorSpans[calls[i].shape][a] +
                     " disagrees with NL at gamma " +
                     std::to_string(calls[i].gamma));
        i = calls.size();
        break;
      }
    }
  }

  if (!options.trace) {
    result->values["setup_s"] = setup_s;
    result->values["query_qps"] = static_cast<double>(calls.size()) / elapsed;
    result->values["query_p50_ms"] = Percentile(latency_ms, 0.50);
    result->values["query_p99_ms"] = Percentile(latency_ms, 0.99);
    result->values["peak_rss_mb"] = PeakRssMb();
    return;
  }

  InitPerLayer(result);
  auto& v = result->values;
  v["relation.table_build_s"] = Median(build);
  Tracer tracer(1 << 20);
  Overhead overhead;
  QueryCounters nl_counters;
  std::vector<double> comparisons[kNumAlgorithms];
  uint64_t auto_calls = 0, auto_lo = 0;
  const Clock::time_point replay_start = Clock::now();
  for (uint64_t id = 1; SecondsSince(replay_start) < ReplaySeconds(options); ++id) {
    const OperatorCall call = stream.Next();
    Tracer::Scope root(&tracer, "request", id);
    overhead.Measure(&tracer, id, [&](bool traced) {
      galaxy::core::AggregateSkylineResult sky;
      {
        Tracer::Scope span(&tracer, kOperatorSpans[call.shape][call.algorithm],
                           id, root.id());
        sky = CallOperator(datasets[call.dataset], call);
      }
      if (!traced) return;
      comparisons[call.algorithm].push_back(
          static_cast<double>(sky.stats.record_comparisons));
      if (call.algorithm == 0) nl_counters.AddSkyline(sky.stats);
      if (kPaperAlgorithms[call.algorithm] == Algorithm::kAuto) {
        ++auto_calls;
        auto_lo += sky.algorithm_used == Algorithm::kIndexedBbox;
      }
    });
  }
  for (size_t a = 0; a < kNumAlgorithms; ++a) {
    // Mean over the two shapes of each shape's median.
    double ms = 0.0;
    for (size_t s = 0; s < kNumShapes; ++s) {
      ms += Median(tracer.Durations(kOperatorSpans[s][a])) / 1e3 / kNumShapes;
    }
    v[std::string("core.") + kAlgorithmKeys[a] + "_ms"] = ms;
    v[std::string("core.") + kAlgorithmKeys[a] + ".record_comparisons"] =
        Mean(comparisons[a]);
  }
  v["core.skyline_us"] = v["core.nl_ms"] * 1e3;
  v["core.auto_choice"] =
      auto_calls == 0 ? 0.0
                      : static_cast<double>(auto_lo) /
                            static_cast<double>(auto_calls);
  nl_counters.ReportCore(result);
  v["trace.overhead_pct"] = overhead.Percent();
  v["trace.spans"] = static_cast<double>(tracer.spans().size());
  char line[512];
  std::string table =
      "### paper_operator\n\n| algorithm | median ms (mean of Fig. 10 and "
      "Fig. 13 shapes) | record comparisons per call |\n|---|---:|---:|\n";
  for (size_t a = 0; a < kNumAlgorithms; ++a) {
    std::snprintf(line, sizeof(line), "| %s | %.3f | %.0f |\n",
                  kAlgorithmKeys[a],
                  v[std::string("core.") + kAlgorithmKeys[a] + "_ms"],
                  v[std::string("core.") + kAlgorithmKeys[a] +
                    ".record_comparisons"]);
    table += line;
  }
  std::snprintf(line, sizeof(line),
                "\nAUTO ran LO on %.0f%% of its calls. Tracing overhead: "
                "%.2f%% over %.0f spans.\n",
                100.0 * v["core.auto_choice"], v["trace.overhead_pct"],
                v["trace.spans"]);
  table += line;
  result->attribution = table;
  WriteTrace(tracer, options);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "skyline_cold", "sql_baseline", "update_mix", "paper_operator"};
  return names;
}

RunResult RunWorkload(const Options& options) {
  RunResult result;
  if (options.workload == "skyline_cold") {
    RunSkylineCold(options, &result);
  } else if (options.workload == "sql_baseline") {
    RunSqlBaseline(options, &result);
  } else if (options.workload == "update_mix") {
    RunUpdateMix(options, &result);
  } else if (options.workload == "paper_operator") {
    RunPaperOperator(options, &result);
  } else {
    result.Fail("unknown workload " + options.workload);
  }
  return result;
}

}  // namespace perfbench
