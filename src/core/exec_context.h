#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "common/status.h"

namespace galaxy::core {

/// How complete an aggregate-skyline result is.
enum class ResultQuality {
  /// The result is the exact answer of Definition 2 (modulo the documented
  /// weak-transitivity gap of the pruned algorithms).
  kExact,
  /// The run was interrupted (deadline, cancellation or comparison budget)
  /// and degraded to its own marks plus the MBB corner test: the skyline
  /// is a *sound over-approximation* — a superset of the exact aggregate
  /// skyline. No group was wrongly excluded; some dominated groups may
  /// remain.
  kApproximateSuperset,
};

const char* ResultQualityToString(ResultQuality quality);

/// The execution control plane of one query run: a wall-clock deadline, a
/// cooperative cancellation token, and resource budgets (record
/// comparisons, resident bytes), shared between the caller and every
/// worker thread of the run.
///
/// Contract:
///  - Configuration (deadlines, budgets, injection points) happens before
///    the run starts and is not thread-safe.
///  - RequestCancel() may be called from any thread at any time.
///  - Workers call Charge(n) as they perform work (record comparisons in
///    the skyline operators, rows in the SQL executor). Once any limit
///    trips, Charge returns false, stopped() flips to true, and status()
///    reports the first trip reason; workers are expected to unwind within
///    one charge batch (ExecutionContext::kChargeBatch work units).
///  - The object must outlive the run it governs. It is single-use: a
///    stopped context stays stopped.
///
/// When no limit is configured the per-batch cost is one relaxed atomic
/// add, and operators that receive a null ExecutionContext* skip even
/// that, so the control plane is free on the unbounded hot path.
class ExecutionContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// Work units a worker may perform between two Charge calls; the unwind
  /// latency after a trip is bounded by one batch per worker. This is the
  /// "slice" of the cancellation-latency guarantee.
  static constexpr uint64_t kChargeBatch = 256;
  /// Comparisons between wall-clock polls: the deadline is checked at most
  /// once per this many charged units (across all threads), bounding both
  /// clock overhead and detection latency.
  static constexpr uint64_t kDeadlineCheckInterval = 4096;

  static constexpr uint64_t kUnlimited =
      std::numeric_limits<uint64_t>::max();

  ExecutionContext() = default;
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  // ---- Configuration (before the run; not thread-safe). -------------------

  /// Absolute wall-clock deadline.
  void set_deadline(Clock::time_point deadline);
  /// Relative deadline: now + timeout.
  void set_timeout(std::chrono::milliseconds timeout);
  /// Caps the total charged work units (record comparisons).
  void set_max_comparisons(uint64_t max_comparisons);
  /// Caps bytes reserved through ReserveBytes (R-tree, domination matrix).
  void set_max_resident_bytes(uint64_t max_bytes);

  /// Fault injection (testing): behaves exactly like RequestCancel() /
  /// deadline expiry the moment the charged-work counter reaches `n`.
  /// Deterministic, unlike a real timer, so harnesses can assert on the
  /// precise trigger point.
  void InjectCancelAtComparison(uint64_t n) { cancel_at_ = n; }
  void InjectDeadlineAtComparison(uint64_t n) { deadline_at_ = n; }

  // ---- Run-time interface (thread-safe). ----------------------------------

  /// Requests cooperative cancellation; idempotent, callable from any
  /// thread (e.g. a client-disconnect handler).
  void RequestCancel() { Trip(StopReason::kCancelled); }

  /// True once the run must stop (any limit tripped or cancel requested).
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

  /// OK while running; otherwise the first trip reason as a Status
  /// (kCancelled / kDeadlineExceeded / kResourceExhausted).
  Status status() const;

  /// True when the run stopped for a reason that permits graceful
  /// degradation to a sound superset — cancellation, deadline, or the
  /// comparison budget. A memory-budget trip is never degradable: the
  /// degraded pass copies O(n·d) MBB corners outside any reservation, so
  /// the cap surfaces as an error instead.
  bool degradable_trip() const;

  /// Charges `n` work units and re-evaluates the limits. Returns true when
  /// the run may continue. `n == 0` is a pure poll.
  bool Charge(uint64_t n);

  /// Reserves bytes against the resident-memory budget; on failure the
  /// context trips with kResourceExhausted and the reservation is not
  /// recorded. Pair with ReleaseBytes (or use ScopedReservation).
  Status ReserveBytes(uint64_t bytes);
  void ReleaseBytes(uint64_t bytes);

  // ---- Introspection. -----------------------------------------------------

  uint64_t comparisons() const {
    return comparisons_.load(std::memory_order_relaxed);
  }
  uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

 private:
  enum class StopReason : int {
    kNone = 0,
    kCancelled,
    kDeadlineExceeded,
    kComparisonBudget,
    kMemoryBudget,
  };

  /// Records the first stop reason (later trips lose) and latches stopped_.
  void Trip(StopReason reason);

  std::atomic<bool> stopped_{false};
  std::atomic<int> stop_reason_{static_cast<int>(StopReason::kNone)};
  std::atomic<uint64_t> comparisons_{0};
  std::atomic<uint64_t> resident_bytes_{0};
  std::atomic<uint64_t> next_deadline_check_{0};

  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  uint64_t max_comparisons_ = kUnlimited;
  uint64_t max_resident_bytes_ = kUnlimited;
  uint64_t cancel_at_ = kUnlimited;    // injection: cancel at this count
  uint64_t deadline_at_ = kUnlimited;  // injection: deadline at this count
};

/// RAII byte reservation against an ExecutionContext (no-op when the
/// context is null).
class ScopedReservation {
 public:
  ScopedReservation() = default;
  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;
  ~ScopedReservation() { Release(); }

  /// Attempts the reservation; on error nothing is held.
  Status Reserve(ExecutionContext* exec, uint64_t bytes);
  void Release();

 private:
  ExecutionContext* exec_ = nullptr;
  uint64_t bytes_ = 0;
};

}  // namespace galaxy::core

