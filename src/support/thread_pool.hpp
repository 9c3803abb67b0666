// Work-stealing task runtime.
//
// The parallel subsystems — batch co-synthesis and the daemon's
// requests — run whole items on it, one task per item; each item runs
// the serial co-synthesis walk.
//
// Scheduler shape (cf. managarm's per-CPU run queues in SNIPPETS):
//  * per-worker deques — the owner pushes and pops at the back (LIFO: a
//    worker's freshest task is the hottest), thieves steal from the front
//    (FIFO: the oldest task is the largest remaining piece of work, and
//    the owner's end stays uncontended);
//  * a global injection queue for submissions from non-worker threads;
//  * nesting support — a task that must wait for child tasks *help-runs*
//    them (TaskGroup::wait) instead of blocking its worker, so a task can
//    fan work out on the same pool (parallel_for from inside a job)
//    without deadlock and without idling the worker.
//
// Design constraints, in order:
//  * determinism friendliness — the pool never decides *what* result is
//    produced, only *where* a pure function runs. Callers that need
//    byte-identical output across thread counts (the batch driver) keep
//    their own commit ordering; the pool makes no ordering promise.
//  * deadlock freedom under nesting — TaskGroup::wait help-runs its own
//    group's queued tasks (a waiter never idles while its children are
//    runnable).
//  * cheap idling — workers sleep on a condition variable; an idle pool
//    costs nothing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cps {

/// Cumulative scheduler counters. Timing-dependent by nature (which
/// worker pops which task is a race the scheduler is *allowed* to have):
/// consumers surface them only through timing-gated outputs, never
/// through byte-identical ones. All counters are monotonic except
/// max_help_depth, which is a high-water mark.
struct PoolStats {
  std::uint64_t submitted = 0;   ///< tasks handed to the pool
  std::uint64_t executed = 0;    ///< tasks completed (any thread)
  std::uint64_t local_hits = 0;  ///< owner popped its own deque (LIFO)
  std::uint64_t steals = 0;      ///< popped another worker's deque (FIFO)
  std::uint64_t injected = 0;    ///< popped the external injection queue
  std::uint64_t help_runs = 0;   ///< tasks run inside a TaskGroup::wait
  std::uint64_t max_help_depth = 0;  ///< deepest observed help nesting
  /// Tasks queued but not yet claimed at snapshot time (a level, not a
  /// monotonic counter). The balance invariant of a snapshot is
  /// submitted == executed + pending + in-flight; after wait_idle() both
  /// pending and in-flight are zero, so submitted == executed exactly.
  std::uint64_t pending = 0;
  /// Task bodies skipped because their TaskGroup was cancelled (the
  /// wrapper still runs and counts as executed).
  std::uint64_t cancelled_tasks = 0;
  /// TaskGroups destroyed with a captured exception nobody observed
  /// (wait() not called after a task failed). Debug builds also assert.
  std::uint64_t dropped_errors = 0;

  /// Counter difference against an earlier snapshot of the same pool
  /// (max_help_depth keeps this snapshot's high-water mark, pending this
  /// snapshot's level).
  PoolStats delta_since(const PoolStats& before) const;
};

class TaskGroup;

class ThreadPool {
 public:
  /// Spawn `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1). A pool of size 1 is a valid degenerate case: submitted
  /// jobs run on the single worker, parallel_for degenerates to the
  /// caller plus one helper.
  explicit ThreadPool(std::size_t threads = 0);

  /// Blocks until every running job finishes; queued jobs still run
  /// before the workers exit (a submitted job is never dropped).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueue a job. Jobs must not throw (wrap and capture exceptions via
  /// std::exception_ptr on the caller's side, or use TaskGroup, which
  /// does exactly that); an escaping exception terminates the process, as
  /// with raw std::thread.
  void submit(std::function<void()> job);

  /// Block until the queue is empty and no job is running.
  void wait_idle();

  /// Run body(i) for every i in [0, count). The calling thread
  /// participates (work distribution over a shared atomic counter), and
  /// while waiting for straggler helpers it help-runs their queued tasks,
  /// so the call never deadlocks when invoked from inside another job on
  /// the same pool. Returns when every index has completed. `body` must
  /// be safe to invoke concurrently; if it throws, the first error (in
  /// caller-then-helper order) propagates after every index finished or
  /// was abandoned by its helper.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// Resolve a user-facing thread-count knob: 0 = hardware concurrency.
  static std::size_t resolve_threads(std::size_t requested);

  /// Returned by worker_index() for threads that are not workers of the
  /// queried pool.
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  /// Index of the calling thread among *this* pool's workers (in
  /// [0, thread_count())), or kNotAWorker for every other thread —
  /// including workers of a different pool. Stable across help-running:
  /// a task help-run inside TaskGroup::wait still executes on the thread
  /// that waited, and sees that thread's index.
  std::size_t worker_index() const;

  /// Snapshot of the cumulative scheduler counters (racy-but-consistent
  /// relaxed reads; see PoolStats for the determinism contract).
  PoolStats stats() const;

 private:
  friend class TaskGroup;

  /// A queued unit of work. `tag` identifies the TaskGroup (if any) so a
  /// waiter can help-run its own group's tasks; untagged tasks are only
  /// picked up by the worker loop.
  struct Task {
    std::function<void()> fn;
    const void* tag = nullptr;
  };

  /// Per-worker run queues plus the guarding mutex. Heap-allocated once
  /// so worker references stay valid and false sharing between workers
  /// is bounded to deque internals.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> runq;
  };

  void push_task(Task task);
  /// Remove the first task with this group tag from a deque. Owners
  /// search newest-first (the LIFO end they would pop anyway); thieves
  /// and the injection queue search oldest-first.
  static bool take_tagged(std::deque<Task>& q, const void* tag,
                          bool newest_first, Task* out);
  /// Pop a runnable task for `self` (kNotAWorker = external thread): own
  /// deque back, injection front, then every other worker's front.
  /// Decrements pending_ on success.
  bool try_pop(std::size_t self, Task* out);
  /// Like try_pop but only considers tasks with this group tag.
  bool try_pop_tagged(const void* tag, Task* out);
  void run_task(Task& task);
  /// Run one queued task of `tag`'s group on the calling thread,
  /// recording help-run depth. Returns false when none is queued.
  bool help_run_one(const void* tag);
  void worker_loop(std::size_t index);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex inject_mutex_;
  std::deque<Task> inject_;

  /// Tasks queued anywhere (deques + injection). The sleep protocol:
  /// pushers bump pending_ then notify under sleep_mutex_; a worker that
  /// found nothing re-checks pending_ under sleep_mutex_ before waiting,
  /// so no wakeup is lost.
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> active_{0};  ///< tasks currently executing
  std::atomic<bool> stop_{false};
  std::mutex sleep_mutex_;
  std::condition_variable work_cv_;  // workers wait for jobs
  std::condition_variable idle_cv_;  // wait_idle waits for drain

  // Scheduler counters (relaxed; see stats()).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> local_hits_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> help_runs_{0};
  std::atomic<std::uint64_t> max_help_depth_{0};
  std::atomic<std::uint64_t> cancelled_tasks_{0};
  std::atomic<std::uint64_t> dropped_errors_{0};
};

/// A set of tasks awaited together — the pool's unit of *nesting*. A task
/// that needs its children done calls wait(), which help-runs the group's
/// queued tasks on the waiting thread instead of blocking a worker: the
/// thread only sleeps when every remaining child is already running
/// elsewhere. Exceptions thrown by tasks are captured at the steal
/// boundary and the first one (by submission order — deterministic, not
/// by completion race) is rethrown from wait(). Destroying a group with
/// an unobserved captured exception counts a PoolStats::dropped_errors
/// and asserts in debug builds; call wait() to observe errors, or
/// wait_dismissing_errors() to discard them deliberately. Tasks may
/// submit further tasks into their own group while it is being waited on.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(&pool) {}

  /// Waits for stragglers. An unobserved captured exception is counted
  /// (and debug-asserted) as dropped — see class comment.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void submit(std::function<void()> fn);

  /// Block until every submitted task completed, help-running queued
  /// group tasks meanwhile. Rethrows the first captured exception in
  /// submission order (at most once; later wait() calls return quietly).
  void wait() { wait_impl(/*rethrow=*/true); }

  /// Like wait(), but deliberately discards any captured exception —
  /// for callers that already hold a better error of their own (see
  /// parallel_for: when the caller's body threw, the caller's error
  /// wins over whatever the helpers captured).
  void wait_dismissing_errors();

  /// Request cancellation: queued tasks of this group that have not
  /// started yet run as no-ops (counted in PoolStats::cancelled_tasks),
  /// so a cancelled group drains in queue-pop time instead of executing
  /// its backlog. Tasks already running are not interrupted — they
  /// observe cancellation cooperatively via their own RunBudget, if any.
  /// wait() still accounts for every submitted task.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  void wait_impl(bool rethrow);

  ThreadPool* pool_;
  std::atomic<bool> cancelled_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;   // guarded by mutex_
  std::size_t next_seq_ = 0;  // guarded by mutex_
  std::size_t error_seq_ = 0;
  std::exception_ptr error_;  // first by submission seq, guarded by mutex_
};

}  // namespace cps
