#include "support/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "support/error.hpp"

namespace cps {

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = resolve_threads(threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  CPS_REQUIRE(job != nullptr, "ThreadPool::submit: empty job");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CPS_REQUIRE(!stop_, "ThreadPool::submit after shutdown began");
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and the queue is drained
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    job();
    job = nullptr;  // release captures before reporting idle
    lock.lock();
    if (--active_ == 0 && queue_.empty()) idle_cv_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Shared by the caller and its helpers. A helper that starts after the
  // call returned keeps the state alive through its shared_ptr, finds
  // next == count and never touches `body`.
  struct State {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t next = 0;     // next index to hand out
    std::size_t count = 0;
    std::size_t running = 0;  // bodies in progress, on any thread
    const std::function<void(std::size_t)>* body = nullptr;
    std::exception_ptr error;  // the first body error
  };
  auto state = std::make_shared<State>();
  state->count = count;
  state->body = &body;

  const auto drain = [](State& s) {
    std::unique_lock<std::mutex> lock(s.mutex);
    while (s.next < s.count) {
      const std::size_t i = s.next++;
      ++s.running;
      lock.unlock();
      std::exception_ptr error;
      try {
        (*s.body)(i);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error != nullptr && s.error == nullptr) {
        s.error = error;
        s.next = s.count;  // fail fast: hand out no further index
      }
      if (--s.running == 0) s.done_cv.notify_all();
    }
  };

  const std::size_t helpers = std::min(thread_count(), count - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    submit([state, drain] { drain(*state); });
  }
  drain(*state);
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done_cv.wait(lock, [&] { return state->running == 0; });
  if (state->error != nullptr) std::rethrow_exception(state->error);
}

}  // namespace cps
