#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace galaxy::server {

/// One readiness notification from a Poller.
struct ReadyEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Peer hung up or the fd errored; the owner should tear the fd down
  /// (a final read usually still drains buffered bytes first).
  bool hangup = false;
};

/// Readiness-notification backend. Two implementations sit behind this
/// interface: an epoll(7) poller (Linux) and a portable poll(2) fallback,
/// so the event loop itself never touches either API directly. All methods
/// are single-threaded (the loop thread); Wait may block.
class Poller {
 public:
  virtual ~Poller() = default;

  /// Registers `fd` for readiness tracking with the given interest set.
  virtual Status Add(int fd, bool want_read, bool want_write) = 0;
  /// Replaces the interest set of a registered fd.
  virtual Status Update(int fd, bool want_read, bool want_write) = 0;
  /// Stops tracking `fd`. Safe to call for fds about to be closed.
  virtual void Remove(int fd) = 0;
  /// Blocks up to `timeout_ms` (-1 = indefinitely, 0 = poll) and appends
  /// every ready fd to `out`. Returns OK on timeout with no events.
  virtual Status Wait(int timeout_ms, std::vector<ReadyEvent>* out) = 0;
  /// "epoll" or "poll" — surfaced in logs and tests.
  virtual const char* name() const = 0;
};

/// Builds the best available poller: epoll when compiled on Linux and
/// `prefer_epoll` is set, the portable poll(2) backend otherwise. Both obey
/// the same interface and the same tests run against each.
std::unique_ptr<Poller> MakePoller(bool prefer_epoll);

/// A hashed timing wheel for coarse connection deadlines (idle/slowloris
/// timeouts). O(1) schedule/cancel; expiry scans only the slots the clock
/// actually passed. Deadlines fire at tick granularity — late by at most
/// one tick, never early. Single-threaded (the loop thread).
class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;

  /// `tick` is the wheel's resolution, `slots` its circumference; deadlines
  /// further out than tick*slots simply wrap and are re-examined (their
  /// stored absolute deadline keeps them from firing early).
  TimerWheel(std::chrono::milliseconds tick, size_t slots);

  /// Schedules (or reschedules) timer `id` to fire at `deadline`.
  void Schedule(uint64_t id, Clock::time_point deadline);
  /// Removes timer `id` if present.
  void Cancel(uint64_t id);
  /// Appends every timer whose deadline has passed by `now` to `expired`
  /// and removes it from the wheel.
  void ExpireUpTo(Clock::time_point now, std::vector<uint64_t>* expired);
  /// Milliseconds the loop may sleep before the next possible expiry
  /// (-1 = no timers scheduled). Never overshoots a pending deadline by
  /// more than one tick.
  int NextTimeoutMs(Clock::time_point now) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Clock::time_point deadline;
    size_t slot = 0;
  };

  size_t SlotFor(Clock::time_point deadline) const;

  const std::chrono::milliseconds tick_;
  std::vector<std::vector<uint64_t>> slots_;
  std::map<uint64_t, Entry> entries_;
  /// The last slot ExpireUpTo fully processed, as an absolute tick count.
  int64_t last_processed_tick_;
  const Clock::time_point epoch_;
};

/// A small fixed-size pool of threads executing queued closures in FIFO
/// order. This is the serving layer's query-execution pool and its only
/// request queue: the event loop hands parsed requests to it so a running
/// query never stalls network I/O, at most num_threads() requests execute
/// at once, and the server sheds cache-missing queries that find the queue
/// too long or waited in it too long (Server::HandleQuery).
class WorkerPool {
 public:
  explicit WorkerPool(size_t num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Start();
  /// Enqueues `task`. Tasks submitted after Stop() (or still queued when
  /// Stop() runs) are discarded — by then every connection is closing and
  /// their results would be dropped anyway.
  void Submit(std::function<void()> task) EXCLUDES(mutex_);
  /// Finishes the currently running tasks, discards the rest, joins.
  void Stop() EXCLUDES(mutex_);

  size_t num_threads() const { return num_threads_; }
  /// Tasks submitted but not yet picked up by a worker.
  size_t waiting() const EXCLUDES(mutex_);

 private:
  void WorkerMain() EXCLUDES(mutex_);

  const size_t num_threads_;
  mutable common::Mutex mutex_;
  common::CondVar work_available_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
  bool started_ GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;
};

/// Annotation-only capability standing for "this code runs on the reactor
/// (EventLoop::Run) thread". There is nothing to lock at runtime: the
/// reactor claims the role where it holds by construction, loop-thread-only
/// state is GUARDED_BY(loop_thread_role), and loop-thread-only methods are
/// REQUIRES(loop_thread_role) — so clang -Wthread-safety proves that no
/// worker or external thread reaches them, the same way it proves mutex
/// discipline. A single process-wide token suffices: one call chain never
/// services two loops' fds.
class CAPABILITY("reactor thread") LoopThreadRole {};

/// The token named by every reactor-thread annotation.
inline LoopThreadRole loop_thread_role;

/// Tells the analysis the current context is the reactor thread. Only call
/// where that is true by construction: the top of EventLoop::Run, inside
/// closures handed to Post/SetTimerCallback (they execute on the loop
/// thread), or while the loop thread provably does not exist (before the
/// loop starts, after it is joined).
inline void ClaimLoopThreadRole() ASSERT_CAPABILITY(loop_thread_role) {}

/// The reactor: one thread multiplexing every connection's readiness
/// through a Poller, with cross-thread task posting (wakeup pipe) and a
/// timer wheel for connection deadlines.
///
/// Threading model: Run() executes on a dedicated thread; AddFd/UpdateFd/
/// RemoveFd/ScheduleTimer/CancelTimer and handler callbacks all happen on
/// that thread only (enforced via loop_thread_role). Post() and Stop() may
/// be called from any thread — they enqueue under a mutex and wake the
/// loop through the pipe. Worker threads therefore never touch connection
/// state directly; they Post a closure that the loop runs.
class EventLoop {
 public:
  /// Per-fd callbacks. Implemented by connections and the acceptor.
  /// Callbacks run on the loop thread; a handler may RemoveFd + close its
  /// own fd inside a callback (the dispatch loop re-checks registration).
  /// Callbacks always fire on the loop thread; implementations claim the
  /// thread role in their bodies (ClaimLoopThreadRole) rather than via a
  /// REQUIRES on these virtuals, so overrides stay attribute-free.
  class FdHandler {
   public:
    virtual void OnReadable() = 0;
    virtual void OnWritable() = 0;
    virtual void OnHangup() = 0;

   protected:
    ~FdHandler() = default;
  };

  struct Options {
    bool use_epoll = true;
    /// Timer wheel resolution; idle deadlines fire within one tick.
    std::chrono::milliseconds timer_tick{20};
    size_t timer_slots = 512;
  };

  explicit EventLoop(const Options& options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the poller and wakeup pipe. Must succeed before Run().
  Status Init();

  /// Blocks dispatching events until Stop(). Call on a dedicated thread.
  void Run() EXCLUDES(post_mutex_);

  /// Requests Run() to return after the current iteration. Any thread.
  void Stop();

  /// Enqueues `fn` to run on the loop thread; wakes the loop. Any thread.
  /// Safe before Run() starts and after it returns (the closure is then
  /// simply never executed).
  void Post(std::function<void()> fn) EXCLUDES(post_mutex_);

  // ---- Loop-thread-only API. ---------------------------------------------
  Status AddFd(int fd, FdHandler* handler, bool want_read, bool want_write)
      REQUIRES(loop_thread_role);
  Status UpdateFd(int fd, bool want_read, bool want_write)
      REQUIRES(loop_thread_role);
  void RemoveFd(int fd) REQUIRES(loop_thread_role);

  /// Arms (or re-arms) timer `id`; on expiry the timer callback runs on
  /// the loop thread.
  void ScheduleTimer(uint64_t id, TimerWheel::Clock::time_point deadline)
      REQUIRES(loop_thread_role);
  void CancelTimer(uint64_t id) REQUIRES(loop_thread_role);
  void SetTimerCallback(std::function<void(uint64_t)> cb)
      REQUIRES(loop_thread_role);

  const char* poller_name() const;

 private:
  void DrainWakeupPipe();
  void RunPostedTasks() EXCLUDES(post_mutex_);

  const Options options_;
  std::unique_ptr<Poller> poller_;
  TimerWheel timers_ GUARDED_BY(loop_thread_role);
  std::function<void(uint64_t)> timer_callback_ GUARDED_BY(loop_thread_role);
  std::map<int, FdHandler*> handlers_ GUARDED_BY(loop_thread_role);

  int wakeup_read_fd_ = -1;
  int wakeup_write_fd_ = -1;

  std::atomic<bool> stopping_{false};
  common::Mutex post_mutex_;
  std::vector<std::function<void()>> posted_ GUARDED_BY(post_mutex_);
  bool wakeup_pending_ GUARDED_BY(post_mutex_) = false;
};

}  // namespace galaxy::server
