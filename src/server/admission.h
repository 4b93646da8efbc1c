#pragma once

#include <chrono>
#include <cstddef>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace galaxy::server {

struct AdmissionOptions {
  /// Queries executing at once; further arrivals wait in the queue.
  size_t max_concurrent = 4;
  /// Waiters allowed behind the executing queries; arrivals beyond this
  /// are rejected immediately (HTTP 429).
  size_t queue_capacity = 64;
  /// How long a queued query may wait for an execution slot before it is
  /// timed out (also answered 429 — by then the client's own deadline has
  /// typically passed anyway).
  std::chrono::milliseconds queue_timeout{2000};
};

/// Gates query execution: at most `max_concurrent` queries run, at most
/// `queue_capacity` wait, everyone else is turned away immediately. This
/// is the server's overload story — under a traffic spike the queue fills,
/// latecomers get a fast 429 instead of piling onto the worker pool, and
/// the queue bound keeps worst-case queueing delay proportional to
/// queue_capacity / throughput.
///
/// Thread safety: all methods may be called from any thread.
class AdmissionController {
 public:
  enum class Outcome {
    kAdmitted,  ///< caller owns an execution slot; must call Release()
    kRejected,  ///< queue full — reject now
    kTimedOut,  ///< waited queue_timeout without getting a slot
  };

  explicit AdmissionController(const AdmissionOptions& options);

  /// Tries to obtain an execution slot, waiting in the bounded queue if
  /// necessary. Only kAdmitted confers a slot (and the obligation to call
  /// Release()).
  Outcome Acquire() EXCLUDES(mutex_);

  /// Returns an execution slot obtained by a successful Acquire().
  void Release() EXCLUDES(mutex_);

  size_t active() const EXCLUDES(mutex_);
  size_t queued() const EXCLUDES(mutex_);

 private:
  const AdmissionOptions options_;
  mutable common::Mutex mutex_;
  common::CondVar slot_free_;
  size_t active_ GUARDED_BY(mutex_) = 0;
  size_t queued_ GUARDED_BY(mutex_) = 0;
};

}  // namespace galaxy::server
