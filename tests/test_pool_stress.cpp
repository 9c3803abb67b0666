// Stress coverage for the FIFO worker pool: nested parallel_for, a
// parallel_for that the caller finishes alone, FIFO order of submissions,
// body errors, and concurrent submitters. These are the scenarios the
// batch driver and the daemon rely on; the file also anchors the
// ThreadSanitizer CI job, so prefer many small concurrent interactions
// over big single-threaded assertions.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace {

using namespace cps;

/// Blocks the worker that picks it up until release(); wait_started lets
/// the test wait until the task is actually running (not merely queued),
/// which makes single-worker ordering tests deterministic.
class Gate {
 public:
  std::function<void()> task() {
    return [this] {
      started_.set_value();
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return open_; });
    };
  }
  void wait_started() { started_.get_future().wait(); }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  std::promise<void> started_;
};

TEST(PoolStress, NestedParallelForThreeLevelsDeepAtEveryPoolSize) {
  // 4 × 4 × 4 innermost bodies. Every level's caller takes indices
  // itself and waits only for bodies running elsewhere, so nesting never
  // waits on a queued helper: a lost index undercounts, a wait on the
  // queue hangs.
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> total{0};
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) {
        pool.parallel_for(4, [&](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      });
    });
    EXPECT_EQ(total.load(), 64) << "pool size " << threads;
  }
}

TEST(PoolStress, CallerFinishesAloneWhileTheOnlyWorkerIsHeld) {
  // The single worker is pinned at the gate, so parallel_for's helper
  // stays queued and the caller runs every index itself. The helper runs
  // after the call returned and `body` is gone: it must find no index
  // left and must not touch the body (a sanitizer build would flag the
  // dangling call).
  ThreadPool pool(1);
  Gate gate;
  pool.submit(gate.task());
  gate.wait_started();
  std::set<std::thread::id> threads;
  std::atomic<int> ran{0};
  {
    const std::function<void(std::size_t)> body = [&](std::size_t) {
      threads.insert(std::this_thread::get_id());  // caller only: no race
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    pool.parallel_for(8, body);
  }
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
  // FIFO: the marker runs after the stale helper.
  std::atomic<bool> marker{false};
  pool.submit([&] { marker.store(true); });
  gate.release();
  pool.wait_idle();
  EXPECT_TRUE(marker.load());
  EXPECT_EQ(ran.load(), 8);
}

TEST(PoolStress, SubmissionsDrainInFifoOrder) {
  // One worker, held at the gate while the backlog builds up, then
  // released: submissions drain in arrival order.
  ThreadPool pool(1);
  Gate gate;
  pool.submit(gate.task());
  gate.wait_started();
  std::mutex mutex;
  std::vector<int> order;
  for (int value = 0; value < 16; ++value) {
    pool.submit([&mutex, &order, value] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(value);
    });
  }
  gate.release();
  pool.wait_idle();
  std::vector<int> expected(16);
  for (int value = 0; value < 16; ++value) expected[value] = value;
  EXPECT_EQ(order, expected);
}

TEST(PoolStress, DestructorRunsEveryQueuedJob) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    Gate gate;
    pool.submit(gate.task());
    gate.wait_started();
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    gate.release();
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(PoolStress, ParallelForPropagatesBodyErrorAndPoolSurvives) {
  // Over repeated rounds, on whichever thread the failing index lands:
  // the error reaches the caller only after every running body finished,
  // and the pool serves the next call normally.
  ThreadPool pool(3);
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> running{0};
    EXPECT_THROW(pool.parallel_for(32,
                                   [&](std::size_t i) {
                                     running.fetch_add(1);
                                     std::this_thread::yield();
                                     running.fetch_sub(1);
                                     if (i == 7) {
                                       throw std::logic_error("boom");
                                     }
                                   }),
                 std::logic_error)
        << "round " << round;
    EXPECT_EQ(running.load(), 0) << "round " << round;
    std::atomic<int> ran{0};
    pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8) << "round " << round;
  }
  pool.wait_idle();
}

TEST(PoolStress, ConcurrentSubmittersAndCallers) {
  // Four outside threads submit jobs while two others run parallel_for
  // on the same pool; every job and every index runs exactly once.
  ThreadPool pool(3);
  std::atomic<int> jobs{0};
  std::vector<std::atomic<int>> hits(2 * 64);
  for (auto& h : hits) h = 0;
  std::vector<std::thread> outside;
  for (int t = 0; t < 4; ++t) {
    outside.emplace_back([&] {
      for (int i = 0; i < 256; ++i) {
        pool.submit([&jobs] { jobs.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (std::size_t t = 0; t < 2; ++t) {
    outside.emplace_back([&, t] {
      pool.parallel_for(64, [&, t](std::size_t i) { ++hits[t * 64 + i]; });
    });
  }
  for (std::thread& t : outside) t.join();
  pool.wait_idle();
  EXPECT_EQ(jobs.load(), 4 * 256);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
