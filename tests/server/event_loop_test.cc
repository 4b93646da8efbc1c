// Unit tests for the event-driven serving substrate (server/event_loop.h):
// the timer wheel's at-tick-granularity / never-early contract, the epoll
// Poller's readiness scenarios, the worker pool's FIFO/shutdown semantics,
// and the EventLoop's cross-thread Post (eventfd wakeup and its
// coalescing) and timer dispatch.

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "server/event_loop.h"

namespace galaxy::server {
namespace {

using Clock = TimerWheel::Clock;
using std::chrono::milliseconds;

// ---- TimerWheel ------------------------------------------------------------
// Time is injected through ExpireUpTo's `now`, so none of these sleep.

TEST(TimerWheelTest, FiresOnlyAfterDeadlinePasses) {
  TimerWheel wheel(milliseconds(10), 64);
  const Clock::time_point base = Clock::now();
  wheel.Schedule(1, base + milliseconds(30));

  std::vector<uint64_t> expired;
  wheel.ExpireUpTo(base, &expired);
  EXPECT_TRUE(expired.empty());  // never early
  wheel.ExpireUpTo(base + milliseconds(20), &expired);
  EXPECT_TRUE(expired.empty());
  // Late by at most one tick: by deadline + tick it must have fired.
  wheel.ExpireUpTo(base + milliseconds(40), &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 1u);
  EXPECT_EQ(wheel.size(), 0u);

  // Firing removed it; advancing further must not re-fire.
  expired.clear();
  wheel.ExpireUpTo(base + milliseconds(500), &expired);
  EXPECT_TRUE(expired.empty());
}

TEST(TimerWheelTest, CancelAndReschedule) {
  TimerWheel wheel(milliseconds(10), 64);
  const Clock::time_point base = Clock::now();
  wheel.Schedule(1, base + milliseconds(20));
  wheel.Schedule(2, base + milliseconds(20));
  EXPECT_EQ(wheel.size(), 2u);

  wheel.Cancel(1);
  EXPECT_EQ(wheel.size(), 1u);
  // Rescheduling an armed timer moves it instead of duplicating it.
  wheel.Schedule(2, base + milliseconds(200));
  EXPECT_EQ(wheel.size(), 1u);

  std::vector<uint64_t> expired;
  wheel.ExpireUpTo(base + milliseconds(100), &expired);
  EXPECT_TRUE(expired.empty());  // old deadline no longer fires
  wheel.ExpireUpTo(base + milliseconds(220), &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 2u);
}

TEST(TimerWheelTest, DeadlinesBeyondTheCircumferenceWrapWithoutFiringEarly) {
  // Circumference = 10ms * 8 = 80ms; a 300ms deadline wraps several times.
  TimerWheel wheel(milliseconds(10), 8);
  const Clock::time_point base = Clock::now();
  wheel.Schedule(7, base + milliseconds(300));

  std::vector<uint64_t> expired;
  for (int ms = 0; ms <= 290; ms += 25) {
    wheel.ExpireUpTo(base + milliseconds(ms), &expired);
    EXPECT_TRUE(expired.empty()) << "fired early at +" << ms << "ms";
  }
  wheel.ExpireUpTo(base + milliseconds(320), &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 7u);
}

TEST(TimerWheelTest, NextTimeoutBoundsTheLoopSleep) {
  TimerWheel wheel(milliseconds(10), 64);
  const Clock::time_point base = Clock::now();
  EXPECT_EQ(wheel.NextTimeoutMs(base), -1);  // nothing armed: sleep freely

  // With anything armed the sleep is capped at one tick — the wheel's
  // acceptable lateness — rather than the true minimum deadline (O(1)
  // under 10k scheduled idle timers).
  wheel.Schedule(1, base + milliseconds(50));
  int timeout = wheel.NextTimeoutMs(base);
  ASSERT_GE(timeout, 0);
  EXPECT_LE(timeout, 10);

  // Even a deadline already in the past wakes the loop within one tick.
  wheel.Schedule(2, base - milliseconds(5));
  timeout = wheel.NextTimeoutMs(base);
  ASSERT_GE(timeout, 0);
  EXPECT_LE(timeout, 10);
}

// ---- Poller ----------------------------------------------------------------

class PollerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(poller_.Init().ok());
    ASSERT_EQ(::pipe(pipe_), 0);
  }
  void TearDown() override {
    if (pipe_[0] >= 0) ::close(pipe_[0]);
    if (pipe_[1] >= 0) ::close(pipe_[1]);
  }

  std::vector<ReadyEvent> Wait(int timeout_ms) {
    std::vector<ReadyEvent> events;
    EXPECT_TRUE(poller_.Wait(timeout_ms, &events).ok());
    return events;
  }

  Poller poller_;
  int pipe_[2] = {-1, -1};
};

TEST_F(PollerTest, ReportsReadableOnlyOnceDataArrives) {
  ASSERT_TRUE(poller_.Add(pipe_[0], /*want_read=*/true, false).ok());
  EXPECT_TRUE(Wait(0).empty());

  ASSERT_EQ(::write(pipe_[1], "x", 1), 1);
  std::vector<ReadyEvent> events = Wait(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, pipe_[0]);
  EXPECT_TRUE(events[0].readable);
  EXPECT_FALSE(events[0].writable);
}

TEST_F(PollerTest, UpdateReplacesTheInterestSet) {
  // Registered with an empty interest set: data arriving is not reported.
  ASSERT_TRUE(poller_.Add(pipe_[0], false, false).ok());
  ASSERT_EQ(::write(pipe_[1], "x", 1), 1);
  EXPECT_TRUE(Wait(0).empty());

  ASSERT_TRUE(poller_.Update(pipe_[0], /*want_read=*/true, false).ok());
  std::vector<ReadyEvent> events = Wait(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].readable);
}

TEST_F(PollerTest, WritableEndOfAnEmptyPipeIsWritable) {
  ASSERT_TRUE(poller_.Add(pipe_[1], false, /*want_write=*/true).ok());
  std::vector<ReadyEvent> events = Wait(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, pipe_[1]);
  EXPECT_TRUE(events[0].writable);
}

TEST_F(PollerTest, RemovedFdIsNeverReported) {
  ASSERT_TRUE(poller_.Add(pipe_[0], true, false).ok());
  poller_.Remove(pipe_[0]);
  ASSERT_EQ(::write(pipe_[1], "x", 1), 1);
  EXPECT_TRUE(Wait(0).empty());
  // Double-registration after removal works (fd slots are recycled).
  ASSERT_TRUE(poller_.Add(pipe_[0], true, false).ok());
  EXPECT_EQ(Wait(1000).size(), 1u);
}

TEST_F(PollerTest, PeerCloseSurfacesAsHangupOrFinalRead) {
  ASSERT_TRUE(poller_.Add(pipe_[0], true, false).ok());
  ::close(pipe_[1]);
  pipe_[1] = -1;
  std::vector<ReadyEvent> events = Wait(1000);
  ASSERT_EQ(events.size(), 1u);
  // Pipes report EPOLLHUP on writer close; either flavor tells the owner to
  // drain and tear down, which is all the loop relies on.
  EXPECT_TRUE(events[0].hangup || events[0].readable);
}

// ---- WorkerPool ------------------------------------------------------------

TEST(WorkerPoolTest, SingleThreadExecutesInFifoOrder) {
  WorkerPool pool(1);
  pool.Start();
  std::mutex mutex;
  std::condition_variable done;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&, i] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
      if (order.size() == 16) done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(done.wait_for(lock, std::chrono::seconds(10),
                            [&] { return order.size() == 16; }));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
  pool.Stop();
}

TEST(WorkerPoolTest, SubmitAfterStopIsDiscarded) {
  WorkerPool pool(2);
  pool.Start();
  pool.Stop();
  std::atomic<bool> ran{false};
  pool.Submit([&] { ran.store(true); });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(ran.load());
}

TEST(WorkerPoolTest, StopIsIdempotentAndDestructorSafe) {
  auto pool = std::make_unique<WorkerPool>(2);
  pool->Start();
  std::atomic<int> ran{0};
  pool->Submit([&] { ran.fetch_add(1); });
  pool->Stop();
  pool->Stop();
  pool.reset();  // destructor after explicit Stop must not crash
  EXPECT_LE(ran.load(), 1);
}

// ---- EventLoop -------------------------------------------------------------

class EventLoopTest : public ::testing::Test {
 protected:
  void StartLoop() {
    loop_ = std::make_unique<EventLoop>();
    ASSERT_TRUE(loop_->Init().ok());
    thread_ = std::thread([this] { loop_->Run(); });
  }
  void TearDown() override {
    if (loop_ != nullptr) loop_->Stop();
    if (thread_.joinable()) thread_.join();
  }

  std::unique_ptr<EventLoop> loop_;
  std::thread thread_;
};

TEST_F(EventLoopTest, PostedClosuresRunOnTheLoopThread) {
  StartLoop();
  std::mutex mutex;
  std::condition_variable cv;
  std::thread::id loop_thread_id;
  bool ran = false;
  loop_->Post([&] {
    std::lock_guard<std::mutex> lock(mutex);
    loop_thread_id = std::this_thread::get_id();
    ran = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return ran; }));
  EXPECT_EQ(loop_thread_id, thread_.get_id());
  EXPECT_NE(loop_thread_id, std::this_thread::get_id());
}

TEST_F(EventLoopTest, PostStormRunsEveryClosureOnceOnTheLoopThread) {
  // Concurrent posters race the loop's drain: every Post either finds a
  // wakeup pending or writes the eventfd itself, so none may be stranded,
  // run twice or run off the loop thread.
  constexpr int kPosters = 4;
  constexpr int kPostsEach = 10000;
  constexpr int kTotal = kPosters * kPostsEach;
  // Shared with the closures, so a failed wait below cannot leave queued
  // closures pointing at this frame when TearDown drains the loop.
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<int> runs = std::vector<int>(kTotal, 0);  // loop thread only
    std::atomic<int> off_loop{0};
    int ran = 0;        // guarded by mutex
    int late_runs = 0;  // guarded by mutex
  };
  auto state = std::make_shared<State>();
  StartLoop();
  const std::thread::id loop_id = thread_.get_id();
  std::vector<std::thread> posters;
  for (int p = 0; p < kPosters; ++p) {
    posters.emplace_back([this, state, loop_id, p] {
      for (int i = 0; i < kPostsEach; ++i) {
        const int slot = p * kPostsEach + i;
        loop_->Post([state, loop_id, slot] {
          if (std::this_thread::get_id() != loop_id) state->off_loop++;
          ++state->runs[slot];
          std::lock_guard<std::mutex> lock(state->mutex);
          if (++state->ran == kTotal) state->cv.notify_one();
        });
      }
    });
  }
  for (std::thread& t : posters) t.join();
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    ASSERT_TRUE(state->cv.wait_for(lock, std::chrono::seconds(30),
                                   [&] { return state->ran == kTotal; }));
  }
  EXPECT_EQ(state->off_loop.load(), 0);
  // The last closure to run took the mutex after its own ++runs[slot]; the
  // wait above acquired it, so every increment is visible here.
  int wrong = 0;
  for (int r : state->runs) wrong += r != 1 ? 1 : 0;
  EXPECT_EQ(wrong, 0);

  // With the queue drained and the loop idle for more than one timer tick
  // (20 ms), a lone Post must still wake it: the storm left no stale
  // wakeup_pending_ and no unread eventfd count behind. The bound is well
  // under the loop's 1 s idle wait, so from the second round on a lost
  // wakeup cannot pass by riding that timeout.
  for (int round = 1; round <= 3; ++round) {
    std::this_thread::sleep_for(milliseconds(50));
    loop_->Post([state] {
      std::lock_guard<std::mutex> lock(state->mutex);
      ++state->late_runs;
      state->cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(state->mutex);
    ASSERT_TRUE(state->cv.wait_for(lock, milliseconds(500), [&] {
      return state->late_runs == round;
    })) << "round " << round;
  }
}

TEST_F(EventLoopTest, TimerCallbackFiresOnTheLoopThread) {
  StartLoop();
  std::mutex mutex;
  std::condition_variable cv;
  uint64_t fired_id = 0;
  std::thread::id fired_on;
  // SetTimerCallback and ScheduleTimer are loop-thread-only; reach them
  // through Post. (Setting the callback directly here would race with the
  // running loop's reads of it — the thread-role annotation rejects it.)
  loop_->Post([&] {
    ClaimLoopThreadRole();  // Posted closures run on the loop thread.
    loop_->SetTimerCallback([&](uint64_t id) {
      std::lock_guard<std::mutex> lock(mutex);
      fired_id = id;
      fired_on = std::this_thread::get_id();
      cv.notify_one();
    });
    loop_->ScheduleTimer(42, TimerWheel::Clock::now() + milliseconds(20));
  });
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return fired_id != 0; }));
  EXPECT_EQ(fired_id, 42u);
  EXPECT_EQ(fired_on, thread_.get_id());
}

}  // namespace
}  // namespace galaxy::server
