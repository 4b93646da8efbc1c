#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

#if defined(__SANITIZE_THREAD__)
#define GALAXY_TSAN_MUTEX_HOOKS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GALAXY_TSAN_MUTEX_HOOKS 1
#endif
#endif
#if defined(GALAXY_TSAN_MUTEX_HOOKS)
#include <sanitizer/tsan_interface.h>
#endif

/// Annotated mutex wrappers: the capability types that Clang's
/// -Wthread-safety analysis reasons about. libstdc++'s std::mutex carries
/// no capability attributes, so raw standard mutexes are invisible to the
/// analysis; every mutex member in this codebase uses these wrappers
/// instead (tools/galaxy_lint rule `raw-mutex` enforces it). The wrappers
/// are zero-cost: each is exactly the standard type plus attributes —
/// except under -DGALAXY_DEBUG_LOCK_ORDER=ON, where every acquisition
/// also feeds the runtime lock-order validator (common/lock_order.h).
/// The validator hooks run *before* blocking, so an ordering violation
/// aborts with a report instead of hanging in a real deadlock. Shared
/// (reader) acquisitions feed the same order graph: reader/writer cycles
/// deadlock just like exclusive ones.
namespace galaxy::common {

namespace internal {
/// Tells ThreadSanitizer that the mutex at `mu` is gone. std::mutex has a
/// trivial destructor, so TSan would otherwise keep the dead mutex's
/// lock-order edges and report an inversion against the next mutex built
/// at the same address. A no-op outside TSan builds.
inline void OnMutexDestroyed([[maybe_unused]] void* mu) {
#if defined(GALAXY_TSAN_MUTEX_HOOKS)
  __tsan_mutex_destroy(mu, 0);
#endif
}
}  // namespace internal

class CondVar;

/// An exclusive capability wrapping std::mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() {
    lock_order::OnDestroy(this);
    internal::OnMutexDestroyed(&mu_);
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    lock_order::OnAcquire(this);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    lock_order::OnRelease(this);
    mu_.unlock();
  }
  bool TryLock() TRY_ACQUIRE(true) {
    const bool acquired = mu_.try_lock();
    if (acquired) lock_order::OnAcquire(this);
    return acquired;
  }

 private:
  friend class CondVar;
  std::mutex mu_;  // galaxy-lint: allow(raw-mutex) — the wrapper itself
};

/// A reader/writer capability wrapping std::shared_mutex.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  ~SharedMutex() {
    lock_order::OnDestroy(this);
    internal::OnMutexDestroyed(&mu_);
  }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    lock_order::OnAcquire(this);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    lock_order::OnRelease(this);
    mu_.unlock();
  }
  bool TryLock() TRY_ACQUIRE(true) {
    const bool acquired = mu_.try_lock();
    if (acquired) lock_order::OnAcquire(this);
    return acquired;
  }

  void ReaderLock() ACQUIRE_SHARED() {
    lock_order::OnAcquire(this);
    mu_.lock_shared();
  }
  void ReaderUnlock() RELEASE_SHARED() {
    lock_order::OnRelease(this);
    mu_.unlock_shared();
  }
  bool ReaderTryLock() TRY_ACQUIRE_SHARED(true) {
    const bool acquired = mu_.try_lock_shared();
    if (acquired) lock_order::OnAcquire(this);
    return acquired;
  }

 private:
  std::shared_mutex mu_;  // galaxy-lint: allow(raw-mutex) — the wrapper itself
};

/// RAII exclusive critical section over a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// RAII exclusive (writer) critical section over a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII shared (reader) critical section over a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE_GENERIC() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable paired with Mutex. There are deliberately no
/// predicate overloads: the analysis cannot see a capability held across
/// a lambda boundary, so callers write the standard re-check loop in the
/// function that visibly holds the Mutex —
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(&mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu, blocks, and re-acquires before returning.
  /// May wake spuriously — always re-check the condition in a loop.
  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's critical section continues
  }

  /// Wait() with a wakeup deadline. Returns std::cv_status::timeout when
  /// the deadline passed (the condition must still be re-checked: a slot
  /// may have been signalled between expiry and re-acquisition).
  std::cv_status WaitUntil(Mutex* mu,
                           std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // galaxy-lint: allow(raw-mutex) — the wrapper itself
  std::condition_variable cv_;
};

}  // namespace galaxy::common
