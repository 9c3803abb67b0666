#include "support/thread_pool.hpp"

#include <cassert>
#include <utility>

#include "support/error.hpp"
#include "support/fault.hpp"

namespace cps {

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace {

// Identity of the calling thread: the pool it works for (if any) and its
// index there. Set once at worker startup; read by worker_index(). The
// identity does NOT change while help-running — a task run inside
// TaskGroup::wait executes on the waiting thread and sees its slot.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_index = ThreadPool::kNotAWorker;

// Nesting depth of help-running on this thread (0 = a worker's normal
// top-level task or a non-pool thread).
thread_local std::size_t tls_help_depth = 0;

}  // namespace

PoolStats PoolStats::delta_since(const PoolStats& before) const {
  PoolStats d;
  d.submitted = submitted - before.submitted;
  d.executed = executed - before.executed;
  d.local_hits = local_hits - before.local_hits;
  d.steals = steals - before.steals;
  d.injected = injected - before.injected;
  d.help_runs = help_runs - before.help_runs;
  d.max_help_depth = max_help_depth;  // high-water mark, not a counter
  d.pending = pending;                // level, not a counter
  d.cancelled_tasks = cancelled_tasks - before.cancelled_tasks;
  d.dropped_errors = dropped_errors - before.dropped_errors;
  return d;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = resolve_threads(threads);
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_.store(true);
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::worker_index() const {
  return tls_pool == this ? tls_index : kNotAWorker;
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.local_hits = local_hits_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.injected = injected_.load(std::memory_order_relaxed);
  s.help_runs = help_runs_.load(std::memory_order_relaxed);
  s.max_help_depth = max_help_depth_.load(std::memory_order_relaxed);
  s.pending = pending_.load(std::memory_order_relaxed);
  s.cancelled_tasks = cancelled_tasks_.load(std::memory_order_relaxed);
  s.dropped_errors = dropped_errors_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::submit(std::function<void()> job) {
  CPS_REQUIRE(job != nullptr, "ThreadPool::submit: empty job");
  push_task(Task{std::move(job), nullptr});
}

void ThreadPool::push_task(Task task) {
  CPS_REQUIRE(!stop_.load(), "ThreadPool::submit after shutdown began");
  const std::size_t self = worker_index();
  if (self != kNotAWorker) {
    // Owner end: LIFO for the owner, FIFO (front) for thieves.
    std::lock_guard<std::mutex> lock(queues_[self]->mutex);
    queues_[self]->runq.push_back(std::move(task));
  } else {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    inject_.push_back(std::move(task));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1);
  {
    // A worker that just found nothing re-checks pending_ under
    // sleep_mutex_ before sleeping; pairing the notify with the same
    // mutex (empty critical section suffices) closes the lost-wakeup
    // window between its check and its wait.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  work_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, Task* out) {
  const std::size_t n = queues_.size();
  const auto claim = [this] {
    // active_ rises before pending_ falls so (pending_ + active_) never
    // transiently hits zero while a task is in flight (wait_idle).
    active_.fetch_add(1);
    pending_.fetch_sub(1);
  };
  if (self != kNotAWorker) {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.runq.empty()) {
      *out = std::move(own.runq.back());
      own.runq.pop_back();
      local_hits_.fetch_add(1, std::memory_order_relaxed);
      claim();
      return true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    if (!inject_.empty()) {
      *out = std::move(inject_.front());
      inject_.pop_front();
      injected_.fetch_add(1, std::memory_order_relaxed);
      claim();
      return true;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = self == kNotAWorker ? k : (self + 1 + k) % n;
    if (v == self) continue;
    WorkerQueue& victim = *queues_[v];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.runq.empty()) {
      *out = std::move(victim.runq.front());
      victim.runq.pop_front();
      steals_.fetch_add(1, std::memory_order_relaxed);
      claim();
      return true;
    }
  }
  return false;
}

bool ThreadPool::take_tagged(std::deque<Task>& q, const void* tag,
                             bool newest_first, Task* out) {
  if (newest_first) {
    for (auto it = q.rbegin(); it != q.rend(); ++it) {
      if (it->tag == tag) {
        *out = std::move(*it);
        q.erase(std::next(it).base());
        return true;
      }
    }
  } else {
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (it->tag == tag) {
        *out = std::move(*it);
        q.erase(it);
        return true;
      }
    }
  }
  return false;
}

bool ThreadPool::try_pop_tagged(const void* tag, Task* out) {
  const std::size_t n = queues_.size();
  const std::size_t self = worker_index();
  const auto claim = [this] {
    active_.fetch_add(1);
    pending_.fetch_sub(1);
  };
  if (self != kNotAWorker) {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (take_tagged(own.runq, tag, /*newest_first=*/true, out)) {
      local_hits_.fetch_add(1, std::memory_order_relaxed);
      claim();
      return true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    if (take_tagged(inject_, tag, /*newest_first=*/false, out)) {
      injected_.fetch_add(1, std::memory_order_relaxed);
      claim();
      return true;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = self == kNotAWorker ? k : (self + 1 + k) % n;
    if (v == self) continue;
    WorkerQueue& victim = *queues_[v];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (take_tagged(victim.runq, tag, /*newest_first=*/false, out)) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      claim();
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(Task& task) {
  task.fn();
  // A group task counts itself, before it releases the group's waiter
  // (TaskGroup::submit), so a snapshot taken once wait() returns balances.
  if (task.tag == nullptr) executed_.fetch_add(1, std::memory_order_relaxed);
  if (active_.fetch_sub(1) == 1 && pending_.load() == 0) {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    idle_cv_.notify_all();
  }
}

bool ThreadPool::help_run_one(const void* tag) {
  Task task;
  if (!try_pop_tagged(tag, &task)) return false;
  help_runs_.fetch_add(1, std::memory_order_relaxed);
  const auto depth = static_cast<std::uint64_t>(++tls_help_depth);
  std::uint64_t seen = max_help_depth_.load(std::memory_order_relaxed);
  while (seen < depth &&
         !max_help_depth_.compare_exchange_weak(
             seen, depth, std::memory_order_relaxed)) {
  }
  run_task(task);
  --tls_help_depth;
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_pool = this;
  tls_index = index;
  while (true) {
    Task task;
    if (try_pop(index, &task)) {
      run_task(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (pending_.load() > 0) continue;  // appeared between scan and lock
    if (stop_.load()) return;           // drained and stopping
    work_cv_.wait(lock,
                  [this] { return stop_.load() || pending_.load() > 0; });
    if (stop_.load() && pending_.load() == 0) return;
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(sleep_mutex_);
  idle_cv_.wait(lock, [this] {
    return pending_.load() == 0 && active_.load() == 0;
  });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Shared by the caller and the helper tasks; kept alive by shared_ptr
  // so a helper scheduled after the caller finished (all indices
  // consumed) still has valid state to look at.
  struct State {
    std::atomic<std::size_t> next{0};
    std::size_t count = 0;
    const std::function<void(std::size_t)>* body = nullptr;
  };
  auto state = std::make_shared<State>();
  state->count = count;
  state->body = &body;

  const auto drain = [](State& s) {
    while (true) {
      const std::size_t i = s.next.fetch_add(1);
      if (i >= s.count) break;
      (*s.body)(i);
    }
  };

  std::exception_ptr caller_error;
  {
    TaskGroup group(*this);
    // One helper per worker, capped by the remaining items beyond the
    // caller's own share.
    const std::size_t helpers =
        count > 1 ? std::min(thread_count(), count - 1) : 0;
    for (std::size_t i = 0; i < helpers; ++i) {
      group.submit([state, drain] { drain(*state); });
    }
    try {
      drain(*state);
    } catch (...) {
      caller_error = std::current_exception();
      // Fail fast: stop handing out further indices to the helpers.
      state->next.store(state->count);
    }
    // The group wait help-runs queued helpers, so a parallel_for from
    // inside another pool job never deadlocks. When the caller's own
    // body threw, the caller's error wins: any error a helper captured
    // meanwhile is dismissed explicitly (not silently dropped — the
    // destructor would count that against PoolStats::dropped_errors).
    if (caller_error) {
      group.wait_dismissing_errors();
    } else {
      group.wait();
    }
  }
  if (caller_error) std::rethrow_exception(caller_error);
}

TaskGroup::~TaskGroup() {
  wait_impl(/*rethrow=*/false);
  // pending_ hit zero under mutex_ before we got here, so no task is
  // touching group state anymore: error_ is safe to read unlocked.
  if (error_ != nullptr) {
    pool_->dropped_errors_.fetch_add(1, std::memory_order_relaxed);
    assert(!"TaskGroup destroyed with an unobserved task exception; "
            "call wait() or wait_dismissing_errors()");
  }
}

void TaskGroup::wait_dismissing_errors() {
  wait_impl(/*rethrow=*/false);
  std::lock_guard<std::mutex> lock(mutex_);
  error_ = nullptr;
}

void TaskGroup::submit(std::function<void()> fn) {
  CPS_REQUIRE(fn != nullptr, "TaskGroup::submit: empty job");
  std::size_t seq;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    seq = next_seq_++;
    ++pending_;
  }
  pool_->push_task(
      ThreadPool::Task{[this, seq, f = std::move(fn)] {
                         try {
                           // A cancelled group's queued bodies are
                           // skipped: the backlog drains at pop speed.
                           if (cancelled_.load(std::memory_order_relaxed)) {
                             pool_->cancelled_tasks_.fetch_add(
                                 1, std::memory_order_relaxed);
                           } else {
                             CPS_FAULT_POINT("pool.group_task");
                             f();
                           }
                         } catch (...) {
                           std::lock_guard<std::mutex> lock(mutex_);
                           if (error_ == nullptr || seq < error_seq_) {
                             error_ = std::current_exception();
                             error_seq_ = seq;
                           }
                         }
                         // Nothing below may touch group state after the
                         // count hits zero outside this critical section:
                         // the waiter is free to destroy the group as
                         // soon as it observes pending_ == 0 under the
                         // mutex, which happens-after this unlock.
                         std::lock_guard<std::mutex> lock(mutex_);
                         pool_->executed_.fetch_add(
                             1, std::memory_order_relaxed);
                         if (--pending_ == 0) cv_.notify_all();
                       },
                       this});
}

void TaskGroup::wait_impl(bool rethrow) {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (pending_ == 0) break;
    }
    // Help-run our own queued tasks instead of blocking the thread; only
    // sleep once every remaining task is already running elsewhere. (A
    // task queued *while* we sleep — tasks may submit into their own
    // group — is picked up by a worker; we only need the zero wakeup.)
    if (pool_->help_run_one(this)) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return pending_ == 0; });
    break;
  }
  if (!rethrow) return;
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace cps
