#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/incremental.h"
#include "server/connection.h"
#include "server/http.h"
#include "server/metrics.h"
#include "server/result_cache.h"
#include "sql/catalog.h"
#include "storage/durability.h"

namespace galaxy::server {

/// Configuration of the incrementally maintained aggregate-skyline view
/// (core/incremental.h): /update routes record changes through it so the
/// exact |S ≻ R| domination counts — and with them GET /skyline — stay
/// current in O(records · d) per update instead of a full recomputation
/// (the operational face of the paper's Property 2).
struct SkylineViewConfig {
  std::string table;
  std::string group_column;
  /// Numeric attribute columns; a leading '-' minimizes that attribute
  /// (records are negated before entering the MAX-oriented core).
  std::vector<std::string> attrs;
  double gamma = 0.5;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Overload shedding, applied when a worker picks up a cache-missing
  /// /query: the query is answered 429 when more than `queue_capacity`
  /// requests are still waiting in the worker pool, or when it waited
  /// there longer than `queue_timeout` (by then the client's own deadline
  /// has typically passed anyway). Cache hits and /update are never shed.
  size_t queue_capacity = 64;
  std::chrono::milliseconds queue_timeout{2000};
  size_t cache_entries = 256;
  /// Deadline applied to queries that do not send X-Galaxy-Timeout-Ms;
  /// zero = unbounded.
  std::chrono::milliseconds default_timeout{0};
  /// A connection is closed (and counted in
  /// galaxy_connections_idle_closed) when no *complete* request arrives
  /// within this window. Trickling partial bytes does not reset it, so a
  /// slowloris client cannot pin a connection past one window.
  std::chrono::milliseconds idle_timeout{10000};
  /// Query-execution worker threads (the reactor itself never executes
  /// queries), and so the bound on queries executing at once.
  size_t io_workers = 4;
  /// Prefer epoll over the portable poll(2) backend.
  bool use_epoll = true;
  /// With durability attached: rotate to a fresh snapshot + WAL after this
  /// many logged updates (inline, on the update that crosses the
  /// threshold). 0 = never snapshot automatically.
  uint64_t snapshot_every = 0;
};

/// The serving layer: a minimal dependency-free HTTP/1.1 front end over a
/// sql::Database, with overload shedding, a version-validated result
/// cache, and a Prometheus metrics endpoint.
///
/// Endpoints (see README "Serving" for the full contract):
///   POST /query    SQL body -> JSON (default) or CSV (Accept: text/csv).
///                  Headers X-Galaxy-Timeout-Ms / X-Galaxy-Max-Comparisons
///                  arm the execution control plane; X-Galaxy-Strict: 1
///                  disables graceful degradation. 200 exact, 206 sound
///                  approximate superset (body carries "degraded": true),
///                  400 bad SQL, 404 unknown table, 408 strict-mode trip,
///                  429 overload.
///   POST /update   ?table=T&op=insert|remove, body = one CSV row typed by
///                  the table schema. Installs a new table snapshot (new
///                  catalog version -> precise cache invalidation) and
///                  feeds the configured incremental skyline view.
///   GET  /skyline  The incrementally maintained aggregate skyline.
///   GET  /metrics  Prometheus text format.
///   GET  /healthz  Liveness probe.
///
/// Threading model: a single reactor
/// thread (server/event_loop.h) owns the listen socket and every
/// connection — non-blocking reads feed per-connection incremental-parse
/// state machines (server/connection.h), complete requests are handed to a
/// small WorkerPool, and responses come back to the loop through a wakeup
/// pipe to be written with EPOLLOUT-driven buffering and per-connection
/// backpressure. Open connections therefore cost a few KB, not a thread.
/// The WorkerPool is the only request queue: `io_workers` bounds how many
/// queries execute at once, and ServerOptions::queue_capacity /
/// queue_timeout bound how long a cache-missing query may have queued
/// before it is shed with 429.
///
/// The Database outlives the server and may also be read/updated directly
/// by the embedding process (it is internally synchronized).
class Server {
 public:
  Server(sql::Database* db, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event engine (reactor + worker pool).
  /// Fails with InvalidArgument/Internal on bad host or occupied port.
  Status Start();

  /// Stops the event engine and closes the listener. Safe to call twice;
  /// called by the destructor.
  void Stop();

  /// The bound TCP port (after Start()).
  uint16_t port() const { return port_; }

  /// Builds the incremental aggregate-skyline view from the table's
  /// current contents; subsequent /update calls maintain it.
  Status EnableSkylineView(const SkylineViewConfig& config)
      EXCLUDES(view_mutex_);

  /// Attaches the write-ahead durability layer (storage/durability.h):
  /// from here on POST /update acks only after the mutation is logged
  /// (503 on any durability failure), and every
  /// ServerOptions::snapshot_every updates the server rotates the data
  /// directory inline. Call after DurabilityManager::Open recovered into
  /// the database and before Start(); the manager must outlive the server.
  /// Also publishes the recovery gauges.
  void AttachDurability(storage::DurabilityManager* durability);

  /// Metrics hooks to pass to DurabilityManager::Open so WAL appends,
  /// fsyncs and snapshots land in this server's registry. Valid for the
  /// server's lifetime.
  storage::DurabilityMetricsHooks DurabilityHooks();

  /// Routes one parsed request exactly as a connection would — the
  /// in-process testing seam (no sockets involved).
  HttpResponse Handle(const HttpRequest& request);

  MetricsRegistry& metrics() { return metrics_; }
  ResultCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  /// One /update's effect on the view, validated eagerly (O(d): label and
  /// point extracted, non-numeric attributes already rejected) but applied
  /// lazily: the O(records · d) incremental-maintenance work runs when a
  /// reader next asks for the skyline, so an update burst between reads
  /// costs one refresh, not one per update.
  struct PendingDelta {
    std::string label;
    std::vector<double> point;  // signs already applied
    bool insert = true;
  };

  struct ViewState {
    SkylineViewConfig config;
    core::IncrementalAggregateSkyline inc;
    std::map<std::string, uint32_t> group_ids;
    size_t group_col = 0;
    std::vector<size_t> attr_cols;
    std::vector<double> signs;  // +1 max, -1 min per attr
    std::vector<PendingDelta> pending;
  };

  HttpResponse HandleQuery(const HttpRequest& request);
  HttpResponse HandleUpdate(const HttpRequest& request)
      EXCLUDES(update_mutex_, view_mutex_);
  HttpResponse HandleSkyline() EXCLUDES(view_mutex_);
  HttpResponse HandleMetrics();
  void CountResponse(const HttpResponse& response);
  /// Applies one parsed update row to the incremental view.
  Status ApplyToView(ViewState* view, const Table& table, const Row& row,
                     bool insert);
  /// Validates the row against the view (label extracted, attributes
  /// numeric) and builds the PendingDelta — without queueing it, so the
  /// caller can reject the update before anything durable happens.
  Result<PendingDelta> ValidateViewDelta(const ViewState& view,
                                         const Row& row, bool insert);
  /// Replays queued deltas into the incremental maintainer; one call is
  /// one "view refresh" no matter how many deltas it drains.
  Status DrainViewDeltas(ViewState* view);

  sql::Database* const db_;
  const ServerOptions options_;

  MetricsRegistry metrics_;
  ResultCache cache_;
  const std::chrono::steady_clock::time_point start_time_;

  // Metric handles (owned by metrics_).
  Counter* requests_total_;
  Counter* connections_total_;
  Counter* queries_total_;
  Counter* updates_total_;
  Counter* rejected_total_;
  Counter* degraded_total_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  Counter* parse_errors_total_;
  Counter* sky_record_comparisons_;
  Counter* sky_group_pairs_;
  Counter* sky_mbb_shortcuts_;
  Counter* sky_stopped_early_;
  Counter* sky_window_candidates_;
  Counter* sky_pairs_skipped_dedup_;
  Histogram* query_latency_;
  Gauge* active_queries_;
  Gauge* queue_depth_;
  Gauge* cache_entries_gauge_;
  Gauge* cache_evictions_;
  Gauge* cache_invalidations_;
  Gauge* uptime_seconds_;
  Counter* wal_appends_total_;
  Counter* wal_bytes_total_;
  Counter* durability_errors_total_;
  Counter* view_refreshes_total_;
  Counter* view_deltas_total_;
  Histogram* wal_fsync_seconds_;
  Histogram* snapshot_duration_seconds_;
  Gauge* recovery_replayed_records_;
  Gauge* view_pending_deltas_;
  Gauge* connections_open_;
  Counter* connections_idle_closed_;
  Histogram* read_stall_seconds_;
  std::map<int, Counter*> responses_by_code_;
  Counter* responses_other_;

  /// Non-owning; null until AttachDurability. Written before Start, read
  /// by connection threads afterwards.
  storage::DurabilityManager* durability_ = nullptr;

  // Serializes read-modify-write /update cycles (the catalog itself only
  // guards single operations) — and with them WAL appends vs. snapshot
  // rotation, which DurabilityManager requires. Always taken before
  // view_mutex_ in HandleUpdate.
  common::Mutex update_mutex_ ACQUIRED_BEFORE(view_mutex_);
  uint64_t updates_since_snapshot_ GUARDED_BY(update_mutex_) = 0;

  common::Mutex view_mutex_;
  std::unique_ptr<ViewState> view_ GUARDED_BY(view_mutex_);

  // ---- Connection plumbing. ----------------------------------------------
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::unique_ptr<EventEngine> engine_;
};

}  // namespace galaxy::server
