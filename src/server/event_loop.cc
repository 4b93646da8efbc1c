#include "server/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <cstdio>

#include "common/logging.h"

namespace galaxy::server {

namespace {

/// The wakeup pipe carries at most one pending byte; coalescing is handled
/// by EventLoop::wakeup_pending_, so a short read/write here is harmless.
// galaxy-lint: allow-file(raw-file-io) -- wakeup pipe + poller fds, not
// data files; durability's Env seam does not apply to kernel event fds.

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK): " +
                            std::string(::strerror(errno)));
  }
  return Status::OK();
}

// ---- poll(2) backend -------------------------------------------------------

class PollPoller final : public Poller {
 public:
  Status Add(int fd, bool want_read, bool want_write) override {
    if (index_.count(fd) != 0) {
      return Status::AlreadyExists("poll: fd already registered");
    }
    struct pollfd p;
    p.fd = fd;
    p.events = Events(want_read, want_write);
    p.revents = 0;
    index_[fd] = fds_.size();
    fds_.push_back(p);
    return Status::OK();
  }

  Status Update(int fd, bool want_read, bool want_write) override {
    auto it = index_.find(fd);
    if (it == index_.end()) {
      return Status::NotFound("poll: fd not registered");
    }
    fds_[it->second].events = Events(want_read, want_write);
    return Status::OK();
  }

  void Remove(int fd) override {
    auto it = index_.find(fd);
    if (it == index_.end()) return;
    size_t pos = it->second;
    size_t last = fds_.size() - 1;
    if (pos != last) {
      fds_[pos] = fds_[last];
      index_[fds_[pos].fd] = pos;
    }
    fds_.pop_back();
    index_.erase(it);
  }

  Status Wait(int timeout_ms, std::vector<ReadyEvent>* out) override {
    int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return Status::OK();
      return Status::Internal("poll: " + std::string(::strerror(errno)));
    }
    for (const struct pollfd& p : fds_) {
      if (n == 0) break;
      if (p.revents == 0) continue;
      --n;
      ReadyEvent ev;
      ev.fd = p.fd;
      ev.readable = (p.revents & (POLLIN | POLLPRI)) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.hangup = (p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
      out->push_back(ev);
    }
    return Status::OK();
  }

  const char* name() const override { return "poll"; }

 private:
  static short Events(bool want_read, bool want_write) {
    short e = 0;
    if (want_read) e |= POLLIN;
    if (want_write) e |= POLLOUT;
    return e;
  }

  std::vector<struct pollfd> fds_;
  std::map<int, size_t> index_;
};

// ---- epoll backend ---------------------------------------------------------

#ifdef __linux__
class EpollPoller final : public Poller {
 public:
  EpollPoller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}
  ~EpollPoller() override {
    if (epfd_ >= 0) ::close(epfd_);
  }

  bool valid() const { return epfd_ >= 0; }

  Status Add(int fd, bool want_read, bool want_write) override {
    struct epoll_event ev = Event(fd, want_read, want_write);
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      return Status::Internal("epoll_ctl(ADD): " +
                              std::string(::strerror(errno)));
    }
    return Status::OK();
  }

  Status Update(int fd, bool want_read, bool want_write) override {
    struct epoll_event ev = Event(fd, want_read, want_write);
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
      return Status::Internal("epoll_ctl(MOD): " +
                              std::string(::strerror(errno)));
    }
    return Status::OK();
  }

  void Remove(int fd) override {
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
  }

  Status Wait(int timeout_ms, std::vector<ReadyEvent>* out) override {
    struct epoll_event events[256];
    int n = ::epoll_wait(epfd_, events, 256, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return Status::OK();
      return Status::Internal("epoll_wait: " +
                              std::string(::strerror(errno)));
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

  const char* name() const override { return "epoll"; }

 private:
  // Level-triggered: the connection machine re-arms interest explicitly
  // (EPOLLOUT only while the output buffer is non-empty), which keeps the
  // poll(2) backend behaviorally identical.
  static struct epoll_event Event(int fd, bool want_read, bool want_write) {
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.data.fd = fd;
    if (want_read) ev.events |= EPOLLIN | EPOLLRDHUP;
    if (want_write) ev.events |= EPOLLOUT;
    return ev;
  }

  int epfd_;
};
#endif  // __linux__

}  // namespace

std::unique_ptr<Poller> MakePoller(bool prefer_epoll) {
#ifdef __linux__
  if (prefer_epoll) {
    auto ep = std::make_unique<EpollPoller>();
    if (ep->valid()) return ep;
    // epoll_create1 failed (fd exhaustion?); the poll(2) backend still works.
  }
#else
  (void)prefer_epoll;
#endif
  return std::make_unique<PollPoller>();
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

EventLoop::EventLoop(const Options& options)
    : options_(options), timers_(options.timer_tick, options.timer_slots) {}

EventLoop::~EventLoop() {
  if (wakeup_read_fd_ >= 0) ::close(wakeup_read_fd_);
  if (wakeup_write_fd_ >= 0) ::close(wakeup_write_fd_);
}

Status EventLoop::Init() {
  poller_ = MakePoller(options_.use_epoll);
  int fds[2];
  if (::pipe(fds) < 0) {
    return Status::Internal("pipe: " + std::string(::strerror(errno)));
  }
  wakeup_read_fd_ = fds[0];
  wakeup_write_fd_ = fds[1];
  Status s = SetNonBlocking(wakeup_read_fd_);
  if (s.ok()) s = SetNonBlocking(wakeup_write_fd_);
  if (!s.ok()) return s;
  return poller_->Add(wakeup_read_fd_, /*want_read=*/true,
                      /*want_write=*/false);
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
  if (need_wakeup && wakeup_write_fd_ >= 0) {
    char b = 1;
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    ssize_t rc = ::write(wakeup_write_fd_, &b, 1);
    (void)rc;
  }
}

void EventLoop::Stop() {
  stopping_.store(true, std::memory_order_release);
  // Empty post purely to wake the loop out of Wait().
  Post([] {});
}

void EventLoop::DrainWakeupPipe() {
  char buf[64];
  while (::read(wakeup_read_fd_, buf, sizeof(buf)) > 0) {
  }
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
  Status s = poller_->Add(fd, want_read, want_write);
  if (s.ok()) handlers_[fd] = handler;
  return s;
}

Status EventLoop::UpdateFd(int fd, bool want_read, bool want_write) {
  return poller_->Update(fd, want_read, want_write);
}

void EventLoop::RemoveFd(int fd) {
  poller_->Remove(fd);
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

const char* EventLoop::poller_name() const {
  return poller_ ? poller_->name() : "none";
}

void EventLoop::Run() {
  // Run's thread IS the reactor thread for the rest of this function.
  ClaimLoopThreadRole();
  GALAXY_CHECK(poller_ != nullptr) << "EventLoop::Init not called";
  std::vector<ReadyEvent> events;
  std::vector<uint64_t> expired;
  while (!stopping_.load(std::memory_order_acquire)) {
    events.clear();
    int timeout_ms = timers_.NextTimeoutMs(TimerWheel::Clock::now());
    if (timeout_ms < 0) timeout_ms = 1000;  // Re-check stopping_ regularly.
    Status s = poller_->Wait(timeout_ms, &events);
    if (!s.ok()) {
      std::fprintf(stderr, "galaxy event loop: %s\n", s.ToString().c_str());
      break;
    }
    for (const ReadyEvent& ev : events) {
      if (ev.fd == wakeup_read_fd_) {
        DrainWakeupPipe();
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
