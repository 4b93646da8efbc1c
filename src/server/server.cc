#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "common/str_util.h"
#include "relation/csv.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace galaxy::server {

namespace {

/// Byte budget of the result cache (its entry count is configurable).
constexpr size_t kCacheBytes = 64 * 1024 * 1024;

HttpResponse JsonError(int http_status, const Status& status) {
  return JsonErrorResponse(http_status, status);
}

/// HTTP mapping of the library's Status codes, mirroring the CLI's exit
/// codes: usage errors (exit 2) -> 4xx, control-plane trips under strict
/// mode (exit 1) -> 408, everything unexpected -> 500.
int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
      return 408;
    case StatusCode::kUnimplemented:
      return 501;
    default:
      return 500;
  }
}

std::string ValueToJson(const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return std::to_string(value.AsInt64());
    case ValueType::kDouble: {
      const double d = value.AsDouble();
      if (d != d || d == std::numeric_limits<double>::infinity() ||
          d == -std::numeric_limits<double>::infinity()) {
        return "null";  // JSON has no NaN/Inf
      }
      return FormatDouble(d, 12);
    }
    case ValueType::kString:
      return std::string("\"") + JsonEscape(value.AsString()) + "\"";
  }
  return "null";
}

std::string TableToJson(const Table& table, bool degraded) {
  std::string out = "{\"columns\": [";
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += ", ";
    out += "\"" + JsonEscape(table.schema().column(c).name) + "\"";
  }
  out += "], \"rows\": [";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (r > 0) out += ", ";
    out += "[";
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ", ";
      out += ValueToJson(table.at(r, c));
    }
    out += "]";
  }
  out += "], \"row_count\": " + std::to_string(table.num_rows());
  out += ", \"quality\": \"";
  out += degraded ? "approximate-superset" : "exact";
  out += "\", \"degraded\": ";
  out += degraded ? "true" : "false";
  out += "}\n";
  return out;
}

Result<std::string> TableToCsv(const Table& table) {
  std::ostringstream out;
  GALAXY_RETURN_IF_ERROR(WriteCsv(table, out));
  return out.str();
}

Result<uint64_t> ParseUintHeader(const HttpRequest& request,
                                 std::string_view name) {
  const std::string* raw = request.FindHeader(name);
  if (raw == nullptr) return uint64_t{0};
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(raw->c_str(), &end, 10);
  if (errno != 0 || end != raw->c_str() + raw->size() || raw->empty()) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be a non-negative integer");
  }
  return static_cast<uint64_t>(v);
}

}  // namespace

Server::Server(sql::Database* db, const ServerOptions& options)
    : db_(db),
      options_(options),
      cache_(options.cache_entries, kCacheBytes),
      start_time_(std::chrono::steady_clock::now()) {
  requests_total_ = metrics_.AddCounter(
      "galaxy_http_requests_total", "HTTP requests received");
  connections_total_ = metrics_.AddCounter(
      "galaxy_connections_total", "TCP connections accepted");
  queries_total_ =
      metrics_.AddCounter("galaxy_queries_total", "POST /query requests");
  updates_total_ =
      metrics_.AddCounter("galaxy_updates_total", "POST /update requests");
  rejected_total_ = metrics_.AddCounter(
      "galaxy_admission_rejected_total",
      "cache-missing queries shed because the worker queue was too long "
      "or they waited in it too long (429)");
  degraded_total_ = metrics_.AddCounter(
      "galaxy_degraded_results_total",
      "queries answered with a sound approximate superset (206)");
  cache_hits_ = metrics_.AddCounter("galaxy_cache_hits_total",
                                    "result-cache hits");
  cache_misses_ = metrics_.AddCounter("galaxy_cache_misses_total",
                                      "result-cache misses");
  parse_errors_total_ = metrics_.AddCounter(
      "galaxy_sql_parse_errors_total", "queries rejected by the SQL parser");
  sky_record_comparisons_ = metrics_.AddCounter(
      "galaxy_skyline_record_comparisons_total",
      "record-level dominance tests inside aggregate-skyline steps");
  sky_group_pairs_ = metrics_.AddCounter(
      "galaxy_skyline_group_pairs_total",
      "group pairs classified inside aggregate-skyline steps");
  sky_mbb_shortcuts_ = metrics_.AddCounter(
      "galaxy_skyline_mbb_shortcuts_total",
      "group pairs decided by the MBB corner test alone");
  sky_stopped_early_ = metrics_.AddCounter(
      "galaxy_skyline_stopped_early_total",
      "group pairs ended early by the stopping rule");
  sky_window_candidates_ = metrics_.AddCounter(
      "galaxy_skyline_window_candidates_total",
      "candidate groups returned by the indexed skyline's window queries");
  sky_pairs_skipped_dedup_ = metrics_.AddCounter(
      "galaxy_skyline_pairs_skipped_dedup_total",
      "group pairs the indexed skyline already classified from the other "
      "side");
  for (int code : {200, 206, 400, 404, 405, 408, 413, 429, 500, 501, 503,
                   505}) {
    responses_by_code_[code] = metrics_.AddCounter(
        "galaxy_http_responses_total", "HTTP responses by status code",
        "{code=\"" + std::to_string(code) + "\"}");
  }
  responses_other_ = metrics_.AddCounter(
      "galaxy_http_responses_total", "HTTP responses by status code",
      "{code=\"other\"}");
  query_latency_ = metrics_.AddHistogram(
      "galaxy_query_latency_seconds",
      "/query latency from worker pickup to response");
  active_queries_ =
      metrics_.AddGauge("galaxy_active_queries", "queries executing now");
  queue_depth_ = metrics_.AddGauge(
      "galaxy_queue_depth", "requests waiting in the worker pool for a worker");
  cache_entries_gauge_ =
      metrics_.AddGauge("galaxy_result_cache_entries", "cached results");
  cache_evictions_ = metrics_.AddGauge("galaxy_cache_evictions_total",
                                       "result-cache LRU evictions");
  cache_invalidations_ = metrics_.AddGauge(
      "galaxy_cache_invalidations_total",
      "result-cache entries dropped because a table version changed");
  uptime_seconds_ =
      metrics_.AddGauge("galaxy_uptime_seconds", "seconds since start");
  wal_appends_total_ = metrics_.AddCounter(
      "galaxy_wal_appends_total", "update records made durable in the WAL");
  wal_bytes_total_ = metrics_.AddCounter(
      "galaxy_wal_bytes_total", "bytes of durable WAL records (headers included)");
  durability_errors_total_ = metrics_.AddCounter(
      "galaxy_durability_errors_total",
      "updates refused (503) because the WAL could not be written, plus "
      "failed snapshot rotations");
  view_refreshes_total_ = metrics_.AddCounter(
      "galaxy_view_refreshes_total",
      "incremental skyline-view maintenance passes (one per read that "
      "found pending deltas, however many it drained)");
  view_deltas_total_ = metrics_.AddCounter(
      "galaxy_view_deltas_total", "update deltas queued for the skyline view");
  wal_fsync_seconds_ = metrics_.AddHistogram(
      "galaxy_wal_fsync_seconds", "WAL fdatasync latency");
  snapshot_duration_seconds_ = metrics_.AddHistogram(
      "galaxy_snapshot_duration_seconds",
      "snapshot rotation latency (encode, write, fsync, rename, cleanup)");
  recovery_replayed_records_ = metrics_.AddGauge(
      "galaxy_recovery_replayed_records",
      "WAL records replayed by the last crash recovery");
  view_pending_deltas_ = metrics_.AddGauge(
      "galaxy_view_pending_deltas",
      "update deltas queued but not yet applied to the skyline view");
  connections_open_ =
      metrics_.AddGauge("galaxy_connections_open", "TCP connections open now");
  connections_idle_closed_ = metrics_.AddCounter(
      "galaxy_connections_idle_closed",
      "connections closed because no complete request arrived within the "
      "idle window (slowloris guard included)");
  read_stall_seconds_ = metrics_.AddHistogram(
      "galaxy_read_stall_seconds",
      "time responses spent blocked on peers that were not reading "
      "(per-connection backpressure stalls, event mode)");
}

void Server::AttachDurability(storage::DurabilityManager* durability) {
  durability_ = durability;
  if (durability_ != nullptr) {
    recovery_replayed_records_->Set(static_cast<int64_t>(
        durability_->recovery_info().replayed_records));
  }
}

storage::DurabilityMetricsHooks Server::DurabilityHooks() {
  storage::DurabilityMetricsHooks hooks;
  hooks.on_wal_append = [this](uint64_t bytes) {
    wal_appends_total_->Inc();
    wal_bytes_total_->Inc(bytes);
  };
  hooks.on_wal_fsync = [this](double seconds) {
    wal_fsync_seconds_->Observe(static_cast<uint64_t>(seconds * 1e6));
  };
  hooks.on_snapshot = [this](double seconds) {
    snapshot_duration_seconds_->Observe(static_cast<uint64_t>(seconds * 1e6));
  };
  return hooks;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (listen_fd_ >= 0) {
    return Status::InvalidArgument("server already started");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket(): " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::Internal("bind(" + options_.host + ":" +
                                     std::to_string(options_.port) +
                                     "): " + strerror(errno));
    ::close(fd);
    return status;
  }
  // Deep backlog: under a C10K connect ramp the SYN burst easily overruns
  // the old 128; the kernel clamps to net.core.somaxconn.
  if (::listen(fd, 4096) != 0) {
    Status status = Status::Internal("listen(): " + std::string(strerror(errno)));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    Status status =
        Status::Internal("getsockname(): " + std::string(strerror(errno)));
    ::close(fd);
    return status;
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_relaxed);

  ConnectionMetrics conn_metrics;
  conn_metrics.connections_open = connections_open_;
  conn_metrics.connections_total = connections_total_;
  conn_metrics.idle_closed = connections_idle_closed_;
  conn_metrics.read_stall_seconds = read_stall_seconds_;
  engine_ = std::make_unique<EventEngine>(
      options_.io_workers, options_.use_epoll, options_.idle_timeout,
      [this](const HttpRequest& request) { return Handle(request); },
      [this](const HttpResponse& response) { CountResponse(response); },
      conn_metrics);
  Status started = engine_->Start(listen_fd_);
  if (!started.ok()) {
    engine_.reset();
    ::close(listen_fd_);
    listen_fd_ = -1;
    return started;
  }
  return Status::OK();
}

void Server::Stop() {
  if (listen_fd_ < 0 && engine_ == nullptr) {
    return;
  }
  stopping_.store(true, std::memory_order_relaxed);
  if (engine_ != nullptr) {
    engine_->Stop();
    engine_.reset();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

HttpResponse Server::Handle(const HttpRequest& request) {
  requests_total_->Inc();
  HttpResponse response;
  if (request.path == "/healthz") {
    if (request.method != "GET") {
      response = JsonError(405, Status::InvalidArgument("use GET /healthz"));
    } else {
      response.content_type = "text/plain";
      response.body = "ok\n";
    }
  } else if (request.path == "/metrics") {
    if (request.method != "GET") {
      response = JsonError(405, Status::InvalidArgument("use GET /metrics"));
    } else {
      response = HandleMetrics();
    }
  } else if (request.path == "/query") {
    if (request.method != "POST") {
      response = JsonError(405, Status::InvalidArgument("use POST /query"));
    } else {
      const auto begin = std::chrono::steady_clock::now();
      response = HandleQuery(request);
      query_latency_->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - begin)
              .count()));
    }
  } else if (request.path == "/update") {
    if (request.method != "POST") {
      response = JsonError(405, Status::InvalidArgument("use POST /update"));
    } else {
      response = HandleUpdate(request);
    }
  } else if (request.path == "/skyline") {
    if (request.method != "GET") {
      response = JsonError(405, Status::InvalidArgument("use GET /skyline"));
    } else {
      response = HandleSkyline();
    }
  } else {
    response =
        JsonError(404, Status::NotFound("no such endpoint: " + request.path));
  }
  CountResponse(response);
  return response;
}

void Server::CountResponse(const HttpResponse& response) {
  auto it = responses_by_code_.find(response.status);
  (it != responses_by_code_.end() ? it->second : responses_other_)->Inc();
}

HttpResponse Server::HandleQuery(const HttpRequest& request) {
  queries_total_->Inc();
  const std::string sql(StrTrim(request.body));
  if (sql.empty()) {
    return JsonError(
        400, Status::InvalidArgument("empty body; send SQL as the body"));
  }
  const std::string* accept = request.FindHeader("Accept");
  const bool want_csv =
      accept != nullptr && accept->find("text/csv") != std::string::npos;
  const std::string cache_key =
      NormalizeSql(sql) + (want_csv ? "\ncsv" : "\njson");

  // Cache hits are never shed: they cost a map lookup, so turning them
  // away under overload would only add load.
  if (std::shared_ptr<const CachedResponse> hit =
          cache_.Lookup(cache_key, *db_)) {
    cache_hits_->Inc();
    HttpResponse response;
    response.content_type = hit->content_type;
    response.body = hit->body;
    response.extra_headers.emplace_back("X-Galaxy-Cache", "hit");
    response.extra_headers.emplace_back("X-Galaxy-Quality", "exact");
    return response;
  }
  cache_misses_->Inc();

  // Overload shedding. The worker pool is the only queue, so a miss that
  // found it longer than queue_capacity, or waited in it longer than
  // queue_timeout, is turned away before it costs a skyline computation.
  if (request.queue_wait.has_value() &&
      (request.queue_wait->waiting > options_.queue_capacity ||
       request.queue_wait->waited > options_.queue_timeout)) {
    rejected_total_->Inc();
    HttpResponse response = JsonError(
        429, Status::ResourceExhausted(
                 "server overloaded; queue full or wait timed out"));
    response.extra_headers.emplace_back("Retry-After", "1");
    return response;
  }
  active_queries_->Add(1);
  struct ActiveQuery {
    Gauge* gauge;
    ~ActiveQuery() { gauge->Add(-1); }
  } active{active_queries_};

  // Capture dependency versions BEFORE executing: if a concurrent /update
  // lands mid-query the entry records the pre-update version and the next
  // lookup invalidates it — stale on the safe side.
  Result<std::unique_ptr<sql::SelectStmt>> stmt = sql::Parse(sql);
  if (!stmt.ok()) {
    parse_errors_total_->Inc();
    return JsonError(400, stmt.status());
  }
  std::vector<std::pair<std::string, uint64_t>> deps;
  for (const std::string& table : CollectReferencedTables(**stmt)) {
    Result<uint64_t> version = db_->TableVersion(table);
    if (version.ok()) deps.emplace_back(table, *version);
  }

  // ---- Execution controls from headers. ----------------------------------
  Result<uint64_t> timeout_ms = ParseUintHeader(request, "X-Galaxy-Timeout-Ms");
  if (!timeout_ms.ok()) return JsonError(400, timeout_ms.status());
  Result<uint64_t> max_comparisons =
      ParseUintHeader(request, "X-Galaxy-Max-Comparisons");
  if (!max_comparisons.ok()) return JsonError(400, max_comparisons.status());
  const std::string* strict = request.FindHeader("X-Galaxy-Strict");
  const bool strict_mode =
      strict != nullptr && *strict != "0" && !EqualsIgnoreCase(*strict, "false");

  core::ExecutionContext exec_storage;
  core::ExecutionContext* exec = nullptr;
  uint64_t effective_timeout_ms = *timeout_ms;
  if (effective_timeout_ms == 0 && options_.default_timeout.count() > 0) {
    effective_timeout_ms =
        static_cast<uint64_t>(options_.default_timeout.count());
  }
  if (effective_timeout_ms > 0) {
    exec_storage.set_timeout(std::chrono::milliseconds(effective_timeout_ms));
    exec = &exec_storage;
  }
  if (*max_comparisons > 0) {
    exec_storage.set_max_comparisons(*max_comparisons);
    exec = &exec_storage;
  }

  sql::ExecOptions exec_options;
  exec_options.exec = exec;
  exec_options.allow_approximate = !strict_mode;
  sql::ExecStats stats;
  Result<Table> result = db_->Query(sql, exec_options, &stats);
  if (!result.ok()) {
    return JsonError(HttpStatusFor(result.status()), result.status());
  }

  sky_record_comparisons_->Inc(stats.skyline_stats.record_comparisons);
  sky_group_pairs_->Inc(stats.skyline_stats.group_pairs_classified);
  sky_mbb_shortcuts_->Inc(stats.skyline_stats.mbb_shortcuts);
  sky_stopped_early_->Inc(stats.skyline_stats.stopped_early);
  sky_window_candidates_->Inc(stats.skyline_stats.window_candidates);
  sky_pairs_skipped_dedup_->Inc(stats.skyline_stats.pairs_skipped_dedup);

  const bool degraded =
      stats.skyline_quality == core::ResultQuality::kApproximateSuperset;
  HttpResponse response;
  if (want_csv) {
    Result<std::string> csv = TableToCsv(*result);
    if (!csv.ok()) return JsonError(500, csv.status());
    response.content_type = "text/csv";
    response.body = std::move(*csv);
  } else {
    response.body = TableToJson(*result, degraded);
  }
  response.extra_headers.emplace_back("X-Galaxy-Cache", "miss");
  response.extra_headers.emplace_back(
      "X-Galaxy-Quality", degraded ? "approximate-superset" : "exact");
  if (degraded) {
    // A degraded answer depends on how far this run got before its
    // deadline, not just on the data — never cached.
    response.status = 206;
    degraded_total_->Inc();
  } else {
    cache_.Insert(cache_key, std::move(deps),
                  CachedResponse{response.body, response.content_type});
  }
  return response;
}

HttpResponse Server::HandleUpdate(const HttpRequest& request) {
  updates_total_->Inc();
  const std::string* table_name = request.FindParam("table");
  if (table_name == nullptr || table_name->empty()) {
    return JsonError(
        400, Status::InvalidArgument("missing ?table= query parameter"));
  }
  std::string op = "insert";
  if (const std::string* p = request.FindParam("op")) op = *p;
  if (op != "insert" && op != "remove") {
    return JsonError(400,
                     Status::InvalidArgument("op must be insert or remove"));
  }
  const bool insert = op == "insert";

  // Serialize read-modify-write cycles; concurrent queries keep reading
  // their pinned snapshots meanwhile.
  common::MutexLock update_lock(&update_mutex_);
  Result<std::shared_ptr<const Table>> snapshot = db_->GetTable(*table_name);
  if (!snapshot.ok()) return JsonError(404, snapshot.status());
  const Table& table = **snapshot;

  Result<Row> row = ParseCsvRowForSchema(table.schema(), request.body);
  if (!row.ok()) return JsonError(400, row.status());

  // Copy-on-write install: an insert shares every column buffer with the
  // pinned snapshot and appends at its tip (O(columns)); a remove copies
  // the typed columns minus the matched row. Neither boxes the table
  // through rows, and readers of `table` see no change.
  Result<Table> next_table =
      insert ? table.CopyWithAppended(*row) : table.CopyWithRemoved(*row);
  if (!next_table.ok()) {
    int code =
        next_table.status().code() == StatusCode::kNotFound ? 404 : 400;
    return JsonError(code, next_table.status());
  }

  // Validate the change against the incremental view BEFORE logging or
  // installing anything, so a failure (e.g. NULL in a skyline attribute)
  // rejects the update instead of desynchronizing view and table. Only
  // the O(d) validation runs now; the O(records · d) maintenance is
  // deferred to the next reader (DrainViewDeltas), so the delta is queued
  // only after the durable ack below.
  std::optional<PendingDelta> delta;
  {
    common::MutexLock view_lock(&view_mutex_);
    if (view_ != nullptr &&
        view_->config.table == AsciiLower(*table_name)) {
      Result<PendingDelta> validated = ValidateViewDelta(*view_, *row, insert);
      if (!validated.ok()) return JsonError(400, validated.status());
      delta = std::move(*validated);
    }
  }

  // The durable ack: the row reaches the WAL (per the fsync policy)
  // before the client hears 200. On any durability failure the update is
  // refused and nothing is applied — the WAL stays poisoned, so every
  // later update is refused too until an operator restarts the server
  // (recovery then truncates the torn tail and serving resumes clean).
  if (durability_ != nullptr) {
    storage::UpdateRecord record;
    record.table = AsciiLower(*table_name);
    record.insert = insert;
    record.row_csv = request.body;
    Status logged = durability_->LogUpdate(record);
    if (!logged.ok()) {
      durability_errors_total_->Inc();
      return JsonError(503, logged);
    }
  }

  if (delta.has_value()) {
    common::MutexLock view_lock(&view_mutex_);
    if (view_ != nullptr &&
        view_->config.table == AsciiLower(*table_name)) {
      view_->pending.push_back(std::move(*delta));
      view_deltas_total_->Inc();
      view_pending_deltas_->Set(static_cast<int64_t>(view_->pending.size()));
    }
  }

  const size_t num_rows = next_table->num_rows();
  const uint64_t version = db_->Register(*table_name, std::move(*next_table));

  if (durability_ != nullptr && options_.snapshot_every > 0 &&
      ++updates_since_snapshot_ >= options_.snapshot_every) {
    // Inline rotation: bounded WAL growth in exchange for one slow update
    // per window. Failure (disk full, ...) keeps the previous generation
    // intact and appends continue against the old WAL.
    Status rotated = durability_->Snapshot();
    if (rotated.ok()) {
      updates_since_snapshot_ = 0;
    } else {
      durability_errors_total_->Inc();
    }
  }

  std::string body = "{\"table\": \"" + JsonEscape(AsciiLower(*table_name)) +
                     "\", \"op\": \"" + op +
                     "\", \"version\": " + std::to_string(version) +
                     ", \"num_rows\": " + std::to_string(num_rows) + "}\n";
  HttpResponse response;
  response.body = std::move(body);
  return response;
}

Status Server::ApplyToView(ViewState* view, const Table& table,
                           const Row& row, bool insert) {
  (void)table;
  const Value& group_value = row[view->group_col];
  const std::string label = group_value.ToString();
  Point point(view->attr_cols.size());
  for (size_t a = 0; a < view->attr_cols.size(); ++a) {
    const Value& cell = row[view->attr_cols[a]];
    GALAXY_ASSIGN_OR_RETURN(double v, cell.ToDouble());
    point[a] = v * view->signs[a];
  }
  auto it = view->group_ids.find(label);
  if (it == view->group_ids.end()) {
    if (!insert) {
      return Status::NotFound("no group " + label + " in the skyline view");
    }
    it = view->group_ids.emplace(label, view->inc.AddGroup(label)).first;
  }
  if (insert) return view->inc.AddRecord(it->second, point);
  return view->inc.RemoveRecord(it->second, point);
}

Result<Server::PendingDelta> Server::ValidateViewDelta(const ViewState& view,
                                                       const Row& row,
                                                       bool insert) {
  PendingDelta delta;
  delta.label = row[view.group_col].ToString();
  delta.insert = insert;
  delta.point.resize(view.attr_cols.size());
  for (size_t a = 0; a < view.attr_cols.size(); ++a) {
    GALAXY_ASSIGN_OR_RETURN(double v, row[view.attr_cols[a]].ToDouble());
    delta.point[a] = v * view.signs[a];
  }
  // No eager group-existence check for removes: a remove only reaches
  // here after matching a live table row, and every live row's group is
  // (or, once earlier deltas drain, will be) in the view — the view
  // mirrors the table's update history exactly.
  return delta;
}

Status Server::DrainViewDeltas(ViewState* view) {
  if (view->pending.empty()) return Status::OK();
  for (size_t i = 0; i < view->pending.size(); ++i) {
    const PendingDelta& delta = view->pending[i];
    Status applied;
    auto it = view->group_ids.find(delta.label);
    if (it == view->group_ids.end() && !delta.insert) {
      // Unreachable for acked updates (see ValidateViewDelta); means the
      // view and table have desynchronized.
      applied = Status::Internal("view drain: no group " + delta.label);
    } else {
      if (it == view->group_ids.end()) {
        it = view->group_ids
                 .emplace(delta.label, view->inc.AddGroup(delta.label))
                 .first;
      }
      applied = delta.insert ? view->inc.AddRecord(it->second, delta.point)
                             : view->inc.RemoveRecord(it->second, delta.point);
    }
    if (!applied.ok()) {
      // Keep the applied prefix out and drop the poisoned delta so a
      // retry does not re-apply earlier records.
      view->pending.erase(view->pending.begin(),
                          view->pending.begin() + static_cast<ptrdiff_t>(i) +
                              1);
      view_pending_deltas_->Set(static_cast<int64_t>(view->pending.size()));
      return applied;
    }
  }
  view->pending.clear();
  view_refreshes_total_->Inc();
  view_pending_deltas_->Set(0);
  return Status::OK();
}

Status Server::EnableSkylineView(const SkylineViewConfig& config) {
  if (!(config.gamma >= 0.5 && config.gamma <= 1.0)) {
    return Status::InvalidArgument("view gamma must be in [0.5, 1]");
  }
  if (config.attrs.empty()) {
    return Status::InvalidArgument("view needs at least one attribute");
  }
  GALAXY_ASSIGN_OR_RETURN(std::shared_ptr<const Table> snapshot,
                          db_->GetTable(config.table));
  const Table& table = *snapshot;

  auto view = std::make_unique<ViewState>(ViewState{
      config, core::IncrementalAggregateSkyline(config.attrs.size(),
                                                config.gamma),
      {}, 0, {}, {}});
  view->config.table = AsciiLower(config.table);
  GALAXY_ASSIGN_OR_RETURN(view->group_col,
                          table.schema().IndexOf(config.group_column));
  for (const std::string& raw : config.attrs) {
    const bool minimize = !raw.empty() && raw[0] == '-';
    const std::string name = minimize ? raw.substr(1) : raw;
    GALAXY_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(name));
    view->attr_cols.push_back(col);
    view->signs.push_back(minimize ? -1.0 : 1.0);
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    // One-time view seeding, not a query hot path: boxing each row keeps
    // ApplyToView's row-shaped delta interface.
    // galaxy-lint: allow(row-major-access)
    GALAXY_RETURN_IF_ERROR(ApplyToView(view.get(), table, table.MaterializeRow(r),
                                       /*insert=*/true));
  }
  common::MutexLock lock(&view_mutex_);
  view_ = std::move(view);
  return Status::OK();
}

HttpResponse Server::HandleSkyline() {
  common::MutexLock lock(&view_mutex_);
  if (view_ == nullptr) {
    return JsonError(
        404, Status::NotFound(
                 "no skyline view configured (galaxy_served --view ...)"));
  }
  // Deferred maintenance: apply whatever /update queued since the last
  // read, as one refresh pass.
  Status drained = DrainViewDeltas(view_.get());
  if (!drained.ok()) return JsonError(500, drained);
  std::string body = "{\"table\": \"" + JsonEscape(view_->config.table) +
                     "\", \"group_column\": \"" +
                     JsonEscape(view_->config.group_column) +
                     "\", \"gamma\": " + FormatDouble(view_->inc.gamma(), 6) +
                     ", \"skyline\": [";
  bool first = true;
  for (uint32_t id : view_->inc.Skyline()) {
    if (!first) body += ", ";
    first = false;
    body += "\"" + JsonEscape(view_->inc.label(id)) + "\"";
  }
  body += "], \"num_groups\": " + std::to_string(view_->inc.num_groups()) +
          ", \"total_records\": " +
          std::to_string(view_->inc.total_records()) + "}\n";
  HttpResponse response;
  response.body = std::move(body);
  return response;
}

HttpResponse Server::HandleMetrics() {
  // Pull-style gauges are refreshed at scrape time.
  const ResultCache::Stats cache_stats = cache_.stats();
  cache_entries_gauge_->Set(static_cast<int64_t>(cache_.size()));
  cache_evictions_->Set(static_cast<int64_t>(cache_stats.evictions));
  cache_invalidations_->Set(static_cast<int64_t>(cache_stats.invalidations));
  queue_depth_->Set(
      static_cast<int64_t>(engine_ != nullptr ? engine_->waiting() : 0));
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  uptime_seconds_->Set(static_cast<int64_t>(uptime));

  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = metrics_.Render();
  return response;
}

}  // namespace galaxy::server
