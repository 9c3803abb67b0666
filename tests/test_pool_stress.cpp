// Stress coverage for the work-stealing runtime: nesting (tasks that
// submit and help-run child tasks), exceptions crossing steal boundaries,
// worker_index() stability under help-running, FIFO order of external
// submissions, and the scheduler counters. These are the scenarios the
// batch driver and the daemon rely on; the file also anchors the
// ThreadSanitizer CI job, so prefer many small concurrent interactions
// over big single-threaded assertions.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace {

using namespace cps;

/// Blocks the worker that picks it up until release(); start_future lets
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

void spawn_tree(ThreadPool& pool, std::atomic<int>& count, int depth) {
  if (depth == 0) return;
  TaskGroup group(pool);
  for (int i = 0; i < 3; ++i) {
    group.submit([&pool, &count, depth] {
      count.fetch_add(1, std::memory_order_relaxed);
      spawn_tree(pool, count, depth - 1);
    });
  }
  group.wait();
}

TEST(PoolStress, NestedSubmitsCompleteAtEveryPoolSize) {
  // 3 + 9 + 27 + 81 tasks over four nesting levels; every level waits on
  // the next, so any lost task or nesting deadlock hangs or undercounts.
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> count{0};
    spawn_tree(pool, count, 4);
    EXPECT_EQ(count.load(), 120) << "pool size " << threads;
  }
}

TEST(PoolStress, NestedParallelForSaturatesWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(16, [&](std::size_t) {
    pool.parallel_for(64, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 16 * 64);
  const PoolStats stats = pool.stats();
  EXPECT_GT(stats.submitted, 16u);
  EXPECT_GT(stats.local_hits + stats.steals + stats.help_runs, 0u);
}

TEST(PoolStress, FirstExceptionBySubmissionOrderWinsAcrossStealBoundaries) {
  // Which thread runs which task is a race; the *reported* error is not:
  // wait() rethrows the first thrower by submission order, so task 3 wins
  // every round no matter how late it is scheduled or where it runs.
  ThreadPool pool(3);
  for (int round = 0; round < 25; ++round) {
    TaskGroup group(pool);
    for (int i = 0; i < 16; ++i) {
      group.submit([i] {
        if (i % 4 == 3) throw std::runtime_error(std::to_string(i));
      });
    }
    try {
      group.wait();
      FAIL() << "expected wait() to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3");
    }
  }
}

TEST(PoolStress, ParallelForPropagatesBodyErrorAndPoolSurvives) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(32,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::logic_error("boom");
                                 }),
               std::logic_error);
  // The pool outlives the failure: subsequent work runs normally.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
  pool.wait_idle();
}

TEST(PoolStress, WorkerIndexIsStableUnderHelpRunning) {
  // worker_index() must identify the *executing thread*, not the task's
  // origin: a help-run child observes the waiter's index. Recording every
  // (thread, index) pair over a nested workload, each thread must see
  // exactly one index — anything else would misroute push_task to
  // another worker's deque.
  ThreadPool pool(2);
  std::mutex mutex;
  std::map<std::thread::id, std::set<std::size_t>> seen;
  const auto record = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    seen[std::this_thread::get_id()].insert(pool.worker_index());
  };
  TaskGroup outer(pool);
  for (int i = 0; i < 8; ++i) {
    outer.submit([&] {
      record();
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) inner.submit(record);
      inner.wait();  // help-runs children on this worker
      record();
    });
  }
  outer.wait();  // help-runs tasks on the external caller too
  record();
  for (const auto& entry : seen) {
    EXPECT_EQ(entry.second.size(), 1u);
    const std::size_t index = *entry.second.begin();
    EXPECT_TRUE(index == ThreadPool::kNotAWorker ||
                index < pool.thread_count());
  }
  // The external caller is never a worker, even while help-running.
  const auto it = seen.find(std::this_thread::get_id());
  ASSERT_NE(it, seen.end());
  EXPECT_EQ(*it->second.begin(), ThreadPool::kNotAWorker);
}

TEST(PoolStress, ExternalSubmissionsDrainInFifoOrder) {
  // One worker, held at the gate while the backlog builds up, then
  // released: submissions from outside the pool drain in arrival order.
  ThreadPool pool(1);
  Gate gate;
  pool.submit(gate.task());
  gate.wait_started();
  std::mutex mutex;
  std::vector<int> order;
  const auto tag = [&](int value) {
    return [&mutex, &order, value] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(value);
    };
  };
  for (int value = 0; value < 5; ++value) pool.submit(tag(value));
  gate.release();
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(PoolStress, WaiterHelpRunsTheGroupWhenAllWorkersAreBusy) {
  // The single worker is pinned at the gate, so every group task must be
  // help-run by the waiting (external) thread — nesting never waits on a
  // worker becoming free.
  ThreadPool pool(1);
  const PoolStats before = pool.stats();
  Gate gate;
  pool.submit(gate.task());
  gate.wait_started();
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.submit([&] { ran.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 8);
  const PoolStats delta = pool.stats().delta_since(before);
  EXPECT_EQ(delta.help_runs, 8u);
  EXPECT_GE(delta.max_help_depth, 1u);
  gate.release();
  pool.wait_idle();
}

TEST(PoolStress, CountersBalanceOnceIdle) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 64u);
  EXPECT_EQ(stats.executed, 64u);
  // The drained pool must report a *balanced* snapshot: nothing pending,
  // nothing unaccounted. (PR 6 left stats() racy against in-flight
  // submissions; pending makes the ledger explicit.)
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.dropped_errors, 0u);
  // External submissions arrive through the injection queue; every pop
  // is attributed to exactly one source.
  EXPECT_EQ(stats.local_hits + stats.steals + stats.injected, 64u);
  EXPECT_GT(stats.injected, 0u);
}

TEST(PoolStress, CountersBalanceUnderConcurrentNestedChurn) {
  // Hammer the ledger from many directions at once — external submits,
  // nested groups — then drain and require exact balance: submitted ==
  // executed and pending == 0 after wait_idle(), at every pool size. This
  // is the invariant stats() readers (batch JSON) rely on.
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    pool.parallel_for(16, [&](std::size_t) {
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) {
        inner.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
      inner.wait();
    });
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 16 * 8) << "pool size " << threads;
    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.submitted, stats.executed) << "pool size " << threads;
    EXPECT_EQ(stats.pending, 0u) << "pool size " << threads;
    EXPECT_EQ(stats.cancelled_tasks, 0u);
    EXPECT_EQ(stats.dropped_errors, 0u);
  }
}

TEST(PoolStress, ParallelForQuiescesItsTasksBeforeReturning) {
  // parallel_for runs its helpers as one TaskGroup. A group task counts
  // itself executed before it releases the group's waiter
  // (ThreadPool::run_task), so the ledger must balance the moment
  // parallel_for returns — no wait_idle() allowed here, that is the point.
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (std::size_t count : {2u, 7u, 64u}) {
      std::atomic<std::size_t> ran{0};
      pool.parallel_for(count, [&](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
      EXPECT_EQ(ran.load(), count);
      const PoolStats stats = pool.stats();
      EXPECT_GT(stats.submitted, 0u) << "count " << count;
      EXPECT_EQ(stats.submitted, stats.executed)
          << "pool size " << threads << ", count " << count;
      EXPECT_EQ(stats.pending, 0u)
          << "pool size " << threads << ", count " << count;
    }
  }
}

}  // namespace
