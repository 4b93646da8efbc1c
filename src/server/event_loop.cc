#include "server/event_loop.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "common/logging.h"

namespace galaxy::server {

namespace {

// galaxy-lint: allow-file(raw-file-io) -- wakeup eventfd + epoll fd, not
// data files; durability's Env seam does not apply to kernel event fds.

/// Timer-wheel resolution: idle deadlines fire within one tick.
constexpr std::chrono::milliseconds kTimerTick{20};
/// Timer-wheel circumference in ticks (about ten seconds at kTimerTick).
constexpr size_t kTimerSlots = 512;

/// Level-triggered: the connection machine re-arms interest explicitly
/// (EPOLLOUT only while the output buffer is non-empty).
struct epoll_event EpollEvent(int fd, bool want_read, bool want_write) {
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.data.fd = fd;
  if (want_read) ev.events |= EPOLLIN | EPOLLRDHUP;
  if (want_write) ev.events |= EPOLLOUT;
  return ev;
}

}  // namespace

// ---- Poller ----------------------------------------------------------------

Poller::~Poller() {
  if (epfd_ >= 0) ::close(epfd_);
}

Status Poller::Init() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    return Status::Internal("epoll_create1: " +
                            std::string(::strerror(errno)));
  }
  return Status::OK();
}

Status Poller::Add(int fd, bool want_read, bool want_write) {
  struct epoll_event ev = EpollEvent(fd, want_read, want_write);
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Status::Internal("epoll_ctl(ADD): " +
                            std::string(::strerror(errno)));
  }
  return Status::OK();
}

Status Poller::Update(int fd, bool want_read, bool want_write) {
  struct epoll_event ev = EpollEvent(fd, want_read, want_write);
  if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Status::Internal("epoll_ctl(MOD): " +
                            std::string(::strerror(errno)));
  }
  return Status::OK();
}

void Poller::Remove(int fd) {
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
}

Status Poller::Wait(int timeout_ms, std::vector<ReadyEvent>* out) {
  struct epoll_event events[256];
  int n = ::epoll_wait(epfd_, events, 256, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return Status::OK();
    return Status::Internal("epoll_wait: " + std::string(::strerror(errno)));
  }
  for (int i = 0; i < n; ++i) {
    ReadyEvent ev;
    ev.fd = events[i].data.fd;
    ev.readable = (events[i].events & (EPOLLIN | EPOLLPRI)) != 0;
    ev.writable = (events[i].events & EPOLLOUT) != 0;
    ev.hangup = (events[i].events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
    out->push_back(ev);
  }
  return Status::OK();
}

// ---- TimerWheel ------------------------------------------------------------

TimerWheel::TimerWheel(std::chrono::milliseconds tick, size_t slots)
    : tick_(tick.count() > 0 ? tick : std::chrono::milliseconds{1}),
      slots_(std::max<size_t>(slots, 2)),
      last_processed_tick_(0),
      epoch_(Clock::now()) {}

size_t TimerWheel::SlotFor(Clock::time_point deadline) const {
  auto since_epoch =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - epoch_);
  int64_t ticks = since_epoch.count() / tick_.count();
  if (ticks < 0) ticks = 0;
  return static_cast<size_t>(ticks) % slots_.size();
}

void TimerWheel::Schedule(uint64_t id, Clock::time_point deadline) {
  Cancel(id);
  Entry e;
  e.deadline = deadline;
  e.slot = SlotFor(deadline);
  slots_[e.slot].push_back(id);
  entries_[id] = e;
}

void TimerWheel::Cancel(uint64_t id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  std::vector<uint64_t>& slot = slots_[it->second.slot];
  slot.erase(std::remove(slot.begin(), slot.end(), id), slot.end());
  entries_.erase(it);
}

void TimerWheel::ExpireUpTo(Clock::time_point now, std::vector<uint64_t>* expired) {
  if (entries_.empty()) {
    last_processed_tick_ =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - epoch_)
            .count() /
        tick_.count();
    return;
  }
  int64_t now_tick =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - epoch_)
          .count() /
      tick_.count();
  // Scan every slot the clock passed since the last call; if the loop
  // stalled for longer than a full wheel revolution, one pass over the
  // whole wheel suffices.
  int64_t span = now_tick - last_processed_tick_;
  if (span > static_cast<int64_t>(slots_.size())) {
    span = static_cast<int64_t>(slots_.size());
  }
  for (int64_t t = now_tick - span; t <= now_tick; ++t) {
    if (t < 0) continue;
    std::vector<uint64_t>& slot =
        slots_[static_cast<size_t>(t) % slots_.size()];
    for (size_t i = 0; i < slot.size();) {
      uint64_t id = slot[i];
      auto it = entries_.find(id);
      if (it == entries_.end()) {
        slot.erase(slot.begin() + static_cast<ptrdiff_t>(i));
        continue;
      }
      if (it->second.deadline <= now) {
        expired->push_back(id);
        entries_.erase(it);
        slot.erase(slot.begin() + static_cast<ptrdiff_t>(i));
        continue;
      }
      ++i;  // Wrapped-around entry from a later revolution; keep it.
    }
  }
  last_processed_tick_ = now_tick;
}

int TimerWheel::NextTimeoutMs(Clock::time_point now) const {
  (void)now;
  if (entries_.empty()) return -1;
  // Sleep at most one tick rather than computing the true minimum deadline:
  // that keeps this O(1) under 10k scheduled idle timers, and a tick is by
  // definition the wheel's acceptable lateness.
  return static_cast<int>(tick_.count());
}

// ---- WorkerPool ------------------------------------------------------------

WorkerPool::WorkerPool(size_t num_threads)
    : num_threads_(std::max<size_t>(num_threads, 1)) {}

WorkerPool::~WorkerPool() { Stop(); }

void WorkerPool::Start() {
  {
    common::MutexLock lock(&mutex_);
    if (started_) return;
    started_ = true;
    stopping_ = false;
  }
  threads_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

void WorkerPool::Submit(std::function<void()> task) {
  {
    common::MutexLock lock(&mutex_);
    if (stopping_) return;
    queue_.push_back(std::move(task));
  }
  work_available_.NotifyOne();
}

void WorkerPool::Stop() {
  {
    common::MutexLock lock(&mutex_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    queue_.clear();
  }
  work_available_.NotifyAll();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  common::MutexLock lock(&mutex_);
  started_ = false;
}

size_t WorkerPool::waiting() const {
  common::MutexLock lock(&mutex_);
  return queue_.size();
}

void WorkerPool::WorkerMain() {
  for (;;) {
    std::function<void()> task;
    {
      common::MutexLock lock(&mutex_);
      while (queue_.empty() && !stopping_) {
        // CondVar::Wait returns void (same name as Poller::Wait).
        // galaxy-lint: allow(status-consumed)
        work_available_.Wait(&mutex_);
      }
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

// ---- EventLoop -------------------------------------------------------------

EventLoop::EventLoop() : timers_(kTimerTick, kTimerSlots) {}

EventLoop::~EventLoop() {
  if (wakeup_fd_ >= 0) ::close(wakeup_fd_);
}

Status EventLoop::Init() {
  GALAXY_RETURN_IF_ERROR(poller_.Init());
  wakeup_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakeup_fd_ < 0) {
    return Status::Internal("eventfd: " + std::string(::strerror(errno)));
  }
  return poller_.Add(wakeup_fd_, /*want_read=*/true, /*want_write=*/false);
}

void EventLoop::Post(std::function<void()> fn) {
  bool need_wakeup = false;
  {
    common::MutexLock lock(&post_mutex_);
    posted_.push_back(std::move(fn));
    if (!wakeup_pending_) {
      wakeup_pending_ = true;
      need_wakeup = true;
    }
  }
  if (need_wakeup && wakeup_fd_ >= 0) {
    // wakeup_pending_ coalesces Posts into one write per loop iteration,
    // so the counter never nears its EAGAIN ceiling (2^64 - 2).
    const uint64_t one = 1;
    ssize_t rc = ::write(wakeup_fd_, &one, sizeof(one));
    (void)rc;
  }
}

void EventLoop::Stop() {
  stopping_.store(true, std::memory_order_release);
  // Empty post purely to wake the loop out of Wait().
  Post([] {});
}

void EventLoop::DrainWakeup() {
  // One read returns the counter and resets it to zero.
  uint64_t count = 0;
  ssize_t rc = ::read(wakeup_fd_, &count, sizeof(count));
  (void)rc;
}

void EventLoop::RunPostedTasks() {
  std::vector<std::function<void()>> tasks;
  {
    common::MutexLock lock(&post_mutex_);
    tasks.swap(posted_);
    wakeup_pending_ = false;
  }
  for (auto& t : tasks) t();
}

Status EventLoop::AddFd(int fd, FdHandler* handler, bool want_read,
                        bool want_write) {
  Status s = poller_.Add(fd, want_read, want_write);
  if (s.ok()) handlers_[fd] = handler;
  return s;
}

Status EventLoop::UpdateFd(int fd, bool want_read, bool want_write) {
  return poller_.Update(fd, want_read, want_write);
}

void EventLoop::RemoveFd(int fd) {
  poller_.Remove(fd);
  handlers_.erase(fd);
}

void EventLoop::ScheduleTimer(uint64_t id,
                              TimerWheel::Clock::time_point deadline) {
  timers_.Schedule(id, deadline);
}

void EventLoop::CancelTimer(uint64_t id) { timers_.Cancel(id); }

void EventLoop::SetTimerCallback(std::function<void(uint64_t)> cb) {
  timer_callback_ = std::move(cb);
}

void EventLoop::Run() {
  // Run's thread IS the reactor thread for the rest of this function.
  ClaimLoopThreadRole();
  GALAXY_CHECK(wakeup_fd_ >= 0) << "EventLoop::Init not called";
  std::vector<ReadyEvent> events;
  std::vector<uint64_t> expired;
  while (!stopping_.load(std::memory_order_acquire)) {
    events.clear();
    int timeout_ms = timers_.NextTimeoutMs(TimerWheel::Clock::now());
    if (timeout_ms < 0) timeout_ms = 1000;  // Re-check stopping_ regularly.
    Status s = poller_.Wait(timeout_ms, &events);
    if (!s.ok()) {
      std::fprintf(stderr, "galaxy event loop: %s\n", s.ToString().c_str());
      break;
    }
    for (const ReadyEvent& ev : events) {
      if (ev.fd == wakeup_fd_) {
        DrainWakeup();
        continue;
      }
      // Re-look-up per callback: an earlier callback this iteration (or a
      // posted task) may have removed and closed this fd.
      auto it = handlers_.find(ev.fd);
      if (it == handlers_.end()) continue;
      FdHandler* h = it->second;
      if (ev.readable) h->OnReadable();
      if (ev.writable && handlers_.count(ev.fd)) h->OnWritable();
      if (ev.hangup && !ev.readable && handlers_.count(ev.fd)) h->OnHangup();
    }
    RunPostedTasks();
    expired.clear();
    timers_.ExpireUpTo(TimerWheel::Clock::now(), &expired);
    if (timer_callback_) {
      for (uint64_t id : expired) timer_callback_(id);
    }
  }
  // Final drain so Stop()-time posts (e.g. response completions) are not
  // leaked while connections still hold references into the loop.
  RunPostedTasks();
}

}  // namespace galaxy::server
