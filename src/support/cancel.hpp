// Cooperative cancellation and run budgets.
//
// The co-synthesis pipeline is a deep stack of loops — the engine's
// event loop, the merge's decision-tree walk, the per-path walk, batch
// items — and every one of them can be handed a RunBudget: a non-owning
// bundle of an optional CancelToken, an optional wall-clock deadline,
// and optional step/path budgets. Loops poll it cooperatively (there is
// no preemption); a trip surfaces as a typed ErrorCode at the layer
// that observed it (see support/error.hpp), never as a torn state —
// after any trip every EngineWorkspace stays reusable and a subsequent
// clean run is byte-identical to a never-interrupted one.
//
// Polling cost is bounded by BudgetPoll: the cancel flag is a relaxed
// atomic load checked on every poll, the clock is read only once per
// kStride polls (a steady_clock read is ~20ns but engine steps can be
// ~100ns, so per-step clock reads would be measurable).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "support/error.hpp"

namespace cps {

/// Thread-safe one-way cancellation flag. The requesting side calls
/// cancel() (any thread, any time); workers observe it through
/// RunBudget/BudgetPoll polls. reset() re-arms the token for reuse —
/// only safe between runs, when no loop is polling it.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Limits for one co-synthesis run (or one batch item). Non-owning and
/// shared: the same budget is handed by pointer to every layer of one
/// run — engine, merge walk, per-path walk — so the step counter is global
/// to the run, not per engine invocation.
/// Non-copyable (the step counter is an atomic); pass by pointer.
struct RunBudget {
  using clock = std::chrono::steady_clock;

  /// Optional external cancellation (non-owning; may be null).
  const CancelToken* token = nullptr;
  /// Wall-clock deadline, meaningful only when has_deadline is set.
  clock::time_point deadline{};
  bool has_deadline = false;
  /// Committed engine steps across the whole run; 0 = unlimited.
  std::uint64_t max_steps = 0;
  /// Alternative-path budget folded into CoSynthesisOptions::max_paths
  /// (the smaller nonzero value wins); 0 = unlimited.
  std::size_t max_paths = 0;

  RunBudget() = default;
  RunBudget(const RunBudget&) = delete;
  RunBudget& operator=(const RunBudget&) = delete;

  void set_deadline_after(double ms) {
    deadline = clock::now() +
               std::chrono::duration_cast<clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
    has_deadline = true;
  }

  /// Count `n` committed engine steps against max_steps. Returns
  /// kStepBudgetExceeded once the cumulative total crosses the budget.
  ErrorCode charge_steps(std::uint64_t n) {
    if (max_steps == 0) return ErrorCode::kOk;
    const std::uint64_t used =
        steps_used_.fetch_add(n, std::memory_order_relaxed) + n;
    return used > max_steps ? ErrorCode::kStepBudgetExceeded : ErrorCode::kOk;
  }

  std::uint64_t steps_used() const {
    return steps_used_.load(std::memory_order_relaxed);
  }

  /// Cancel flag only (one relaxed load; safe to call every iteration).
  ErrorCode check_cheap() const {
    if (token != nullptr && token->cancelled()) return ErrorCode::kCancelled;
    return ErrorCode::kOk;
  }

  /// Cancel flag + wall clock (reads the clock; amortize via BudgetPoll).
  ErrorCode check_now() const {
    const ErrorCode c = check_cheap();
    if (c != ErrorCode::kOk) return c;
    if (has_deadline && clock::now() >= deadline) {
      return ErrorCode::kDeadlineExceeded;
    }
    return ErrorCode::kOk;
  }

 private:
  std::atomic<std::uint64_t> steps_used_{0};
};

/// Bounded-interval poller over an optional budget: checks the cancel
/// token on every poll() and the wall clock once per kStride polls, so
/// hot loops can poll unconditionally. A null budget polls to kOk for
/// free (one pointer test).
class BudgetPoll {
 public:
  static constexpr std::uint32_t kStride = 64;

  explicit BudgetPoll(const RunBudget* budget) : budget_(budget) {}

  ErrorCode poll() {
    if (budget_ == nullptr) return ErrorCode::kOk;
    const ErrorCode c = budget_->check_cheap();
    if (c != ErrorCode::kOk) return c;
    if (++tick_ < kStride) return ErrorCode::kOk;
    tick_ = 0;
    return budget_->check_now();
  }

 private:
  const RunBudget* budget_;
  std::uint32_t tick_ = 0;
};

}  // namespace cps
