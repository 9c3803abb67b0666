// Fixed-size worker pool over one FIFO queue.
//
// The parallel subsystems — batch co-synthesis and the daemon's
// requests — run whole items on it, one task per item; each item runs
// the serial co-synthesis walk. Every production submission comes from a
// thread outside the pool (run_batch's caller through parallel_for, the
// daemon's event loop through submit), so one mutex-guarded queue,
// drained in arrival order, is all the scheduling there is.
//
// Design constraints, in order:
//  * determinism friendliness — the pool never decides *what* result is
//    produced, only *where* a pure function runs. Callers that need
//    byte-identical output across thread counts (the batch driver) keep
//    their own commit ordering.
//  * deadlock freedom under nesting — parallel_for's caller takes indices
//    itself and then waits only for bodies already running on other
//    threads, so a parallel_for from inside a job never waits on a queued
//    task.
//  * cheap idling — workers sleep on a condition variable; an idle pool
//    costs nothing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cps {

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

  /// Enqueue a job at the back of the queue. Jobs must not throw (capture
  /// exceptions via std::exception_ptr on the caller's side); an escaping
  /// exception terminates the process, as with raw std::thread.
  void submit(std::function<void()> job);

  /// Block until the queue is empty and no job is running.
  void wait_idle();

  /// Run body(i) for every i in [0, count). The calling thread takes
  /// indices too, next to up to thread_count() queued helpers, and then
  /// waits only for bodies already running on other threads; so the call
  /// never waits on a queued task and cannot deadlock when invoked from
  /// inside a job on the same pool. A helper that starts after every
  /// index was taken finds nothing left to do. `body` must be safe to
  /// invoke concurrently. If it throws, no further index is handed out
  /// and the first error propagates once every running body finished.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// Resolve a user-facing thread-count knob: 0 = hardware concurrency.
  static std::size_t resolve_threads(std::size_t requested);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait for jobs
  std::condition_variable idle_cv_;  // wait_idle waits for drain
  std::deque<std::function<void()>> queue_;  // guarded by mutex_
  std::size_t active_ = 0;                   // running jobs, mutex_
  bool stop_ = false;                        // guarded by mutex_
};

}  // namespace cps
