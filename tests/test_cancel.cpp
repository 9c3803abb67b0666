// Cooperative cancellation, deadlines and run budgets (support/cancel)
// across the co-synthesis pipeline, plus the graceful-degradation path
// (BudgetAction::kBound bounded-coverage results).
//
// The load-bearing invariant everywhere: after ANY trip — cancel,
// deadline, step budget, path budget — every workspace stays reusable
// and a subsequent clean run produces a result identical to one that
// was never interrupted.
#include <gtest/gtest.h>

#include <string>

#include "io/table_csv.hpp"
#include "sched/batch_driver.hpp"
#include "sched/driver.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace {

using namespace cps;
using cps::testing::series_of_conditions;

void expect_identical_results(const CoSynthesisResult& a,
                              const CoSynthesisResult& b) {
  ASSERT_EQ(a.path_count, b.path_count);
  EXPECT_EQ(a.table, b.table);
  EXPECT_EQ(a.delays.delta_m, b.delays.delta_m);
  EXPECT_EQ(a.delays.delta_max, b.delays.delta_max);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.total_leaves, b.total_leaves);
  EXPECT_EQ(a.coverage, b.coverage);
}

// ------------------------------------------------- budget primitives ---

TEST(RunBudget, ChecksReportTheRightCodes) {
  CancelToken token;
  RunBudget budget;
  budget.token = &token;
  EXPECT_EQ(budget.check_cheap(), ErrorCode::kOk);
  EXPECT_EQ(budget.check_now(), ErrorCode::kOk);
  token.cancel();
  EXPECT_EQ(budget.check_cheap(), ErrorCode::kCancelled);
  token.reset();
  EXPECT_EQ(budget.check_cheap(), ErrorCode::kOk);

  budget.set_deadline_after(-1.0);  // already expired
  EXPECT_EQ(budget.check_cheap(), ErrorCode::kOk);  // cheap skips the clock
  EXPECT_EQ(budget.check_now(), ErrorCode::kDeadlineExceeded);
  // Cancellation outranks the deadline (checked first).
  token.cancel();
  EXPECT_EQ(budget.check_now(), ErrorCode::kCancelled);
}

TEST(RunBudget, ChargeStepsTripsOnceCumulativeTotalCrosses) {
  RunBudget budget;
  budget.max_steps = 10;
  EXPECT_EQ(budget.charge_steps(4), ErrorCode::kOk);
  EXPECT_EQ(budget.charge_steps(6), ErrorCode::kOk);  // exactly at budget
  EXPECT_EQ(budget.charge_steps(1), ErrorCode::kStepBudgetExceeded);
  EXPECT_EQ(budget.steps_used(), 11u);
  RunBudget unlimited;
  EXPECT_EQ(unlimited.charge_steps(1u << 20), ErrorCode::kOk);
}

TEST(BudgetPoll, ChecksTokenEveryPollAndClockEveryStride) {
  RunBudget budget;
  budget.set_deadline_after(-1.0);
  BudgetPoll poll(&budget);
  // The expired deadline is only visible on the kStride-th poll; the
  // cancel flag would be visible immediately.
  for (std::uint32_t i = 0; i + 1 < BudgetPoll::kStride; ++i) {
    EXPECT_EQ(poll.poll(), ErrorCode::kOk) << "poll " << i;
  }
  EXPECT_EQ(poll.poll(), ErrorCode::kDeadlineExceeded);
  BudgetPoll null_poll(nullptr);
  EXPECT_EQ(null_poll.poll(), ErrorCode::kOk);
}

TEST(ErrorTaxonomy, InterruptCodesMapToTypedExceptions) {
  EXPECT_TRUE(is_interrupt(ErrorCode::kCancelled));
  EXPECT_TRUE(is_interrupt(ErrorCode::kDeadlineExceeded));
  EXPECT_TRUE(is_interrupt(ErrorCode::kStepBudgetExceeded));
  EXPECT_FALSE(is_interrupt(ErrorCode::kOk));
  EXPECT_FALSE(is_interrupt(ErrorCode::kUnschedulable));
  EXPECT_FALSE(is_interrupt(ErrorCode::kInjectedFault));
  EXPECT_THROW(throw_interrupt(ErrorCode::kCancelled, "x"), CancelledError);
  EXPECT_THROW(throw_interrupt(ErrorCode::kDeadlineExceeded, "x"),
               DeadlineExceededError);
  EXPECT_THROW(throw_interrupt(ErrorCode::kStepBudgetExceeded, "x"),
               BudgetExceededError);
  try {
    throw_interrupt(ErrorCode::kDeadlineExceeded, "ctx");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(error_code_of(e), ErrorCode::kDeadlineExceeded);
  }
  EXPECT_EQ(std::string(to_string(ErrorCode::kDeadlineExceeded)),
            "deadline_exceeded");
}

// ------------------------------------------- pipeline interruption -----

TEST(Cancellation, PreCancelledTokenStopsBeforeAnyWork) {
  const Cpg g = series_of_conditions(4);
  CancelToken token;
  token.cancel();
  RunBudget budget;
  budget.token = &token;
  CoSynthesisOptions options;
  options.budget = &budget;
  EXPECT_THROW(schedule_cpg(g, options), CancelledError);
  // Reset and rerun on the very same options: identical to never-cancelled.
  token.reset();
  const CoSynthesisResult clean = schedule_cpg(g, options);
  const CoSynthesisResult reference = schedule_cpg(g);
  expect_identical_results(clean, reference);
}

TEST(Cancellation, ExpiredDeadlineThrowsDeadlineExceeded) {
  const Cpg g = series_of_conditions(4);
  RunBudget budget;
  budget.set_deadline_after(-1.0);
  CoSynthesisOptions options;
  options.budget = &budget;
  EXPECT_THROW(schedule_cpg(g, options), DeadlineExceededError);
  // A fresh (unexpired) budget on the same options runs to completion.
  RunBudget fresh;
  fresh.set_deadline_after(60000.0);
  options.budget = &fresh;
  expect_identical_results(schedule_cpg(g, options), schedule_cpg(g));
}

TEST(Cancellation, StepBudgetTripsInsideTheEngine) {
  // max_steps is charged by the engine main loop itself, so this
  // exercises the deepest interrupt path: engine -> check_path_result ->
  // typed throw.
  const Cpg g = series_of_conditions(5);  // 32 leaves
  RunBudget budget;
  budget.max_steps = 3;  // far less than one path needs
  CoSynthesisOptions options;
  options.budget = &budget;
  try {
    schedule_cpg(g, options);
    FAIL() << "expected a step-budget trip";
  } catch (const BudgetExceededError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kStepBudgetExceeded);
  }
  EXPECT_GT(budget.steps_used(), 0u);
  // Workspace-reuse invariant: the same options with an unlimited budget
  // produce the untouched reference result.
  RunBudget unlimited;
  options.budget = &unlimited;
  expect_identical_results(schedule_cpg(g, options), schedule_cpg(g));
}

TEST(Cancellation, RunBudgetMaxPathsFoldsIntoOptionsBudget) {
  const Cpg g = series_of_conditions(6);  // 64 leaves
  RunBudget budget;
  budget.max_paths = 16;  // tighter than options.max_paths below
  CoSynthesisOptions options;
  options.max_paths = 1000;
  options.budget = &budget;
  try {
    schedule_cpg(g, options);
    FAIL() << "expected a path-budget trip";
  } catch (const BudgetExceededError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPathBudgetExceeded);
  }
}

// --------------------------------------------- graceful degradation ----

TEST(BoundedCoverage, KBoundReturnsTruncatedResultWithCoverage) {
  const Cpg g = series_of_conditions(6);  // 64 leaves
  CoSynthesisOptions options;
  options.max_paths = 16;
  options.on_budget = BudgetAction::kBound;
  const CoSynthesisResult bounded = schedule_cpg(g, options);
  EXPECT_EQ(bounded.status, ErrorCode::kPathBudgetExceeded);
  EXPECT_EQ(bounded.path_count, 16u);
  EXPECT_EQ(bounded.total_leaves, 64u);
  EXPECT_DOUBLE_EQ(bounded.coverage, 0.25);
  EXPECT_GT(bounded.table.entry_count(), 0u);

  // Complete results report full coverage.
  CoSynthesisOptions full;
  const CoSynthesisResult complete = schedule_cpg(g, full);
  EXPECT_EQ(complete.status, ErrorCode::kOk);
  EXPECT_EQ(complete.total_leaves, 64u);
  EXPECT_DOUBLE_EQ(complete.coverage, 1.0);
}

TEST(BoundedCoverage, TruncationAtTheBudgetBoundaryIsIdentical) {
  // The walk's streaming path counter is the only budget check. One path
  // under the leaf count trips it; the exact leaf count and one more run
  // the whole graph. The kept prefix is a pure function of the
  // enumeration order, so a repeated bounded run keeps the same bytes.
  const Cpg g = series_of_conditions(6);  // 64 leaves
  const auto run = [&](std::size_t max_paths, BudgetAction action) {
    CoSynthesisOptions options;
    options.max_paths = max_paths;
    options.on_budget = action;
    return schedule_cpg(g, options);
  };
  const auto expect_same_bytes = [](const CoSynthesisResult& a,
                                    const CoSynthesisResult& b) {
    expect_identical_results(a, b);
    EXPECT_EQ(table_csv_string(a.table), table_csv_string(b.table));
  };
  const CoSynthesisResult truncated = run(63, BudgetAction::kBound);
  const CoSynthesisResult full = run(0, BudgetAction::kThrow);
  ASSERT_EQ(full.path_count, 64u);

  try {
    run(63, BudgetAction::kThrow);
    FAIL() << "expected a path-budget trip at 63";
  } catch (const BudgetExceededError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPathBudgetExceeded);
  }
  const CoSynthesisResult bounded = run(63, BudgetAction::kBound);
  EXPECT_EQ(bounded.status, ErrorCode::kPathBudgetExceeded);
  EXPECT_EQ(bounded.path_count, 63u);
  EXPECT_EQ(bounded.total_leaves, 64u);
  EXPECT_DOUBLE_EQ(bounded.coverage, 63.0 / 64.0);
  expect_same_bytes(bounded, truncated);

  for (const std::size_t max_paths : {64u, 65u}) {
    SCOPED_TRACE("max_paths " + std::to_string(max_paths));
    for (const BudgetAction action :
         {BudgetAction::kThrow, BudgetAction::kBound}) {
      expect_same_bytes(run(max_paths, action), full);
    }
  }
}

// ------------------------------------------------------ batch level ----

TEST(BatchCancellation, CancelledBatchCompletesWithTypedItems) {
  BatchConfig config;
  config.count = 6;
  config.threads = 1;
  CancelToken token;
  token.cancel();
  config.cancel = &token;
  const BatchResult result = run_batch(config);
  ASSERT_EQ(result.items.size(), 6u);
  for (const BatchItem& item : result.items) {
    EXPECT_FALSE(item.ok);
    EXPECT_EQ(item.code, ErrorCode::kCancelled);
    EXPECT_EQ(item.attempts, 1u);  // cancellation never retries
    EXPECT_FALSE(item.error.empty());
  }
  EXPECT_EQ(result.summary.cancelled, 6u);
  EXPECT_EQ(result.summary.ok_count, 0u);

  // The failed items carry their typed code in the JSON.
  BatchJsonOptions json;
  json.include_timing = false;
  const std::string out = batch_result_to_json(result, json);
  EXPECT_NE(out.find("\"error_code\": \"cancelled\""), std::string::npos);

  // Un-cancelling makes the same config fully succeed: the batch state
  // is not poisoned by the cancelled run.
  token.reset();
  const BatchResult clean = run_batch(config);
  EXPECT_EQ(clean.summary.ok_count, 6u);
  EXPECT_EQ(clean.summary.cancelled, 0u);
}

TEST(BatchCancellation, PerItemDeadlineIsolatesTimedOutItems) {
  BatchConfig config;
  config.count = 4;
  config.threads = 1;
  config.deadline_ms = 1e-6;  // expires before the entry check runs
  const BatchResult result = run_batch(config);
  ASSERT_EQ(result.items.size(), 4u);
  for (const BatchItem& item : result.items) {
    EXPECT_FALSE(item.ok);
    EXPECT_EQ(item.code, ErrorCode::kDeadlineExceeded);
  }
  EXPECT_EQ(result.summary.timeouts, 4u);
  // The batch completed: every item reported, nothing thrown.
  EXPECT_EQ(result.summary.count, 4u);

  // A generous deadline changes nothing about the results themselves.
  BatchConfig relaxed = config;
  relaxed.deadline_ms = 600000.0;
  BatchConfig unlimited = config;
  unlimited.deadline_ms = 0.0;
  BatchJsonOptions json;
  json.include_timing = false;
  EXPECT_EQ(batch_result_to_json(run_batch(relaxed), json),
            batch_result_to_json(run_batch(unlimited), json));
}

TEST(BatchCancellation, BoundedItemsSerializeCoverage) {
  BatchConfig config;
  config.count = 3;
  config.threads = 1;
  config.cpg.path_count = 8;
  config.synthesis.max_paths = 2;
  config.synthesis.on_budget = BudgetAction::kBound;
  const BatchResult result = run_batch(config);
  bool any_bounded = false;
  for (const BatchItem& item : result.items) {
    EXPECT_TRUE(item.ok);
    if (item.code == ErrorCode::kPathBudgetExceeded) {
      any_bounded = true;
      EXPECT_EQ(item.paths, 2u);
      EXPECT_GT(item.total_leaves, 2u);
      EXPECT_LT(item.coverage, 1.0);
      EXPECT_GT(item.coverage, 0.0);
    }
  }
  EXPECT_TRUE(any_bounded);
  BatchJsonOptions json;
  json.include_timing = false;
  const std::string out = batch_result_to_json(result, json);
  EXPECT_NE(out.find("\"status\": \"path_budget_exceeded\""),
            std::string::npos);
  EXPECT_NE(out.find("\"coverage\""), std::string::npos);
}

}  // namespace
