// The engine's start order. A schedule the engine returns carries the order
// in which its tasks started; PathSchedule::tasks_by_start() reads it and
// only orders each run of equal starts by id. Every engine result here —
// per-path runs on Fig. 1, the ladder around the 64-condition masks, seeded
// random CPGs with and without zero-duration processes, and locked
// requests as the merge issues them — must give the same order as a plain
// (start, id) sort of its slots. Schedules placed any other way must
// still be sorted in full.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "models/fig1.hpp"
#include "sched/list_scheduler.hpp"
#include "test_util.hpp"

namespace {

using namespace cps;
using cps::testing::ladder_cpg;
using cps::testing::small_arch;

/// Scheduled tasks sorted by (start, id), independent of PathSchedule.
std::vector<TaskId> sorted_by_start(const PathSchedule& s) {
  std::vector<std::pair<Time, TaskId>> keys;
  for (TaskId t = 0; t < s.task_count(); ++t) {
    if (s.scheduled(t)) keys.emplace_back(s.slot(t).start, t);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<TaskId> out;
  for (const auto& key : keys) out.push_back(key.second);
  return out;
}

struct OrderCounts {
  std::size_t schedules = 0;
  /// Runs of two or more tasks sharing a start.
  std::size_t equal_start_runs = 0;
  /// Runs the engine started in an order other than id order.
  std::size_t reordered_runs = 0;
};

/// Check one engine result: it hands over its start order (every
/// scheduled task once, by start), and tasks_by_start() equals the
/// reference sort.
void check_engine_schedule(const PathSchedule& s, OrderCounts& counts) {
  const std::vector<TaskId> want = sorted_by_start(s);
  const std::vector<TaskId>& recorded = s.start_order();
  ASSERT_EQ(recorded.size(), want.size());
  std::vector<TaskId> members = recorded;
  std::sort(members.begin(), members.end());
  std::vector<TaskId> want_members = want;
  std::sort(want_members.begin(), want_members.end());
  ASSERT_EQ(members, want_members);
  for (std::size_t i = 1; i < recorded.size(); ++i) {
    ASSERT_LE(s.slot(recorded[i - 1]).start, s.slot(recorded[i]).start);
  }
  ASSERT_EQ(s.tasks_by_start(), want);
  ++counts.schedules;
  for (std::size_t i = 0; i < recorded.size();) {
    std::size_t j = i + 1;
    while (j < recorded.size() &&
           s.slot(recorded[j]).start == s.slot(recorded[i]).start) {
      ++j;
    }
    if (j - i > 1) {
      ++counts.equal_start_runs;
      const TaskId* run = recorded.data() + i;
      if (!std::is_sorted(run, run + (j - i))) ++counts.reordered_runs;
    }
    i = j;
  }
}

void check_all_paths(const Cpg& g, OrderCounts& counts) {
  const FlatGraph fg = FlatGraph::expand(g);
  EngineWorkspace ws;
  for (const AltPath& path : enumerate_paths(g)) {
    const EngineRequest req = make_path_request(
        fg, path, PriorityPolicy::kCriticalPath, nullptr,
        ReadySelection::kHeap, nullptr);
    const EngineResult res = run_list_scheduler(fg, req, ws);
    ASSERT_TRUE(res.feasible) << res.reason;
    check_engine_schedule(res.schedule, counts);
  }
}

/// Zero-duration processes whose ids run against their dependencies: Z0
/// waits for Z1, which waits for Z2, so all three start at one instant in
/// the order Z2, Z1, Z0 and the run must come out by id.
Cpg reversed_zero_chain() {
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const ProcessId d = b.add_process("D", 0, 2);
  const ProcessId z0 = b.add_process("Z0", 0, 0);
  const ProcessId z1 = b.add_process("Z1", 0, 0);
  const ProcessId z2 = b.add_process("Z2", 0, 0);
  const ProcessId t = b.add_process("T", 1, 3);
  const ProcessId f = b.add_process("F", 0, 1);
  b.add_edge(d, z2);
  b.add_edge(z2, z1);
  b.add_edge(z1, z0);
  b.add_cond_edge(z0, t, Literal{c, true}, 2);
  b.add_cond_edge(z0, f, Literal{c, false});
  return b.build();
}

TEST(StartOrder, Fig1EveryPath) {
  OrderCounts counts;
  check_all_paths(build_fig1_cpg(), counts);
  EXPECT_EQ(counts.schedules, 6u);
  EXPECT_GT(counts.equal_start_runs, 0u);
}

TEST(StartOrder, ZeroDurationChainIsOrderedById) {
  OrderCounts counts;
  check_all_paths(reversed_zero_chain(), counts);
  EXPECT_EQ(counts.schedules, 2u);
  EXPECT_GT(counts.reordered_runs, 0u);
}

TEST(StartOrder, LadderAroundTheMaskBoundary) {
  for (const std::size_t conditions : {63u, 64u, 65u}) {
    SCOPED_TRACE(std::to_string(conditions) + " conditions");
    OrderCounts counts;
    check_all_paths(ladder_cpg(conditions), counts);
    EXPECT_EQ(counts.schedules, conditions + 1);
    EXPECT_GT(counts.equal_start_runs, 0u);
  }
}

// 40 seeded random CPGs; every other one draws execution times from
// [0, 20], so zero-duration processes start in the same instant as their
// successors.
TEST(StartOrder, SeededRandomCpgs) {
  OrderCounts counts;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const Architecture arch = generate_random_architecture(rng);
    RandomCpgParams params;
    params.process_count = 20 + (seed % 4) * 10;
    params.path_count = 2 + seed % 7;
    if (seed % 2 == 0) params.exec_min = 0;
    const Cpg g = generate_random_cpg(arch, params, rng);
    check_all_paths(g, counts);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(counts.equal_start_runs, 0u);
  EXPECT_GT(counts.reordered_runs, 0u);
}

// Locked requests as the merge's adjustments issue them, built as in
// HeapEquivalence.LockedRequestsMatchLinearScan: each path's own schedule
// with a random subset of its tasks locked at their slots or shifted by
// -3..+3 (clamped at 0), on one shared workspace.
TEST(StartOrder, LockedRequests) {
  OrderCounts counts;
  std::size_t feasible = 0;
  EngineWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const Architecture arch = generate_random_architecture(rng);
    RandomCpgParams params;
    params.process_count = 12 + (seed % 3) * 8;
    params.path_count = 2 + (seed % 3) * 2;
    const Cpg g = generate_random_cpg(arch, params, rng);
    const FlatGraph fg = FlatGraph::expand(g);
    for (const AltPath& path : enumerate_paths(g)) {
      const EngineRequest base = make_path_request(
          fg, path, PriorityPolicy::kCriticalPath, nullptr,
          ReadySelection::kHeap, nullptr);
      const PathSchedule own = run_list_scheduler(fg, base, ws).schedule;
      for (int variant = 0; variant < 4; ++variant) {
        const bool shifted = variant >= 2;
        const std::size_t keep_one_in = variant % 2 == 0 ? 2 : 4;
        EngineRequest req = base;
        req.locks.assign(fg.task_count(), std::nullopt);
        for (TaskId t = 0; t < fg.task_count(); ++t) {
          if (!own.scheduled(t) || rng.index(keep_one_in) != 0) continue;
          Time start = own.slot(t).start;
          if (shifted) start += static_cast<Time>(rng.index(7)) - 3;
          req.locks[t] = TaskLock{std::max<Time>(start, 0),
                                  own.slot(t).resource};
        }
        const EngineResult res = run_list_scheduler(fg, req, ws);
        if (!res.feasible) continue;
        ++feasible;
        check_engine_schedule(res.schedule, counts);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(counts.equal_start_runs, 0u);
}

TEST(StartOrder, HandPlacedScheduleIsSortedInFull) {
  PathSchedule s(6);
  s.place(4, 7, 9, 0);
  s.place(1, 3, 5, 0);
  s.place(5, 3, 3, 1);
  s.place(0, 0, 3, 0);
  s.place(2, 7, 7, 1);
  EXPECT_TRUE(s.start_order().empty());
  EXPECT_EQ(s.tasks_by_start(), (std::vector<TaskId>{0, 1, 5, 2, 4}));
}

TEST(StartOrder, PlaceAfterTheEngineDropsTheOrder) {
  const Cpg g = build_fig1_cpg();
  const FlatGraph fg = FlatGraph::expand(g);
  PathSchedule s = schedule_path(fg, enumerate_paths(g).front());
  ASSERT_FALSE(s.start_order().empty());
  // Move the first task past every other start: only a full sort puts it
  // last.
  const TaskId first = s.tasks_by_start().front();
  const Time late = s.makespan() + 10;
  s.place(first, late, late + 1, s.slot(first).resource);
  EXPECT_TRUE(s.start_order().empty());
  const std::vector<TaskId> order = s.tasks_by_start();
  EXPECT_EQ(order, sorted_by_start(s));
  EXPECT_EQ(order.back(), first);
}

}  // namespace
