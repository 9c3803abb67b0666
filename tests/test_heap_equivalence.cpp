// Equivalence of the production engine with the independent linear-scan
// reference (reference_engine.hpp): across 200 seeded random CPGs both
// must produce identical per-path schedules, on locked requests the same
// outcome (slots, feasibility, offending lock), and identical schedules
// on a ladder CPG just below, at and past the 64-condition packed-mask
// bound.
#include <gtest/gtest.h>

#include <iostream>
#include <map>
#include <utility>

#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "models/fig1.hpp"
#include "reference_engine.hpp"
#include "sched/driver.hpp"
#include "test_util.hpp"

namespace {

using namespace cps;
using cps::testing::reference_run;

EngineRequest path_request(const FlatGraph& fg, const AltPath& path,
                           PriorityPolicy policy) {
  return make_path_request(fg, path, policy, nullptr, ReadySelection::kHeap,
                           nullptr);
}

void expect_identical_schedules(const FlatGraph& fg, const PathSchedule& a,
                                const PathSchedule& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    EXPECT_EQ(a.scheduled(t), b.scheduled(t)) << fg.task(t).name;
    if (!a.scheduled(t) || !b.scheduled(t)) continue;
    EXPECT_EQ(a.slot(t).start, b.slot(t).start) << fg.task(t).name;
    EXPECT_EQ(a.slot(t).end, b.slot(t).end) << fg.task(t).name;
    EXPECT_EQ(a.slot(t).resource, b.slot(t).resource) << fg.task(t).name;
  }
}

TEST(HeapEquivalence, Fig1AllPaths) {
  const Cpg g = build_fig1_cpg();
  const FlatGraph fg = FlatGraph::expand(g);
  for (const AltPath& path : enumerate_paths(g)) {
    const PathSchedule heap = schedule_path(fg, path);
    const EngineResult linear = reference_run(
        fg, path_request(fg, path, PriorityPolicy::kCriticalPath));
    ASSERT_TRUE(linear.feasible) << linear.reason;
    expect_identical_schedules(fg, heap, linear.schedule);
    cps::testing::expect_schedule_invariants(fg, heap,
                                             fg.active_tasks(path.label));
  }
}

// The headline equivalence sweep: 200 random CPGs over random
// architectures, varying size, path count and priority policy.
TEST(HeapEquivalence, RandomCpgs200) {
  const std::size_t path_counts[] = {2, 4, 8, 12};
  const PriorityPolicy policies[] = {PriorityPolicy::kCriticalPath,
                                     PriorityPolicy::kTaskOrder};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const Architecture arch = generate_random_architecture(rng);
    RandomCpgParams params;
    params.process_count = 20 + (seed % 4) * 10;
    params.path_count = path_counts[seed % 4];
    const Cpg g = generate_random_cpg(arch, params, rng);
    const FlatGraph fg = FlatGraph::expand(g);
    const auto paths = enumerate_paths(g);
    const PriorityPolicy policy = policies[seed % 2];
    CoverCache cache;
    for (const AltPath& path : paths) {
      const PathSchedule heap = schedule_path(fg, path, policy, nullptr,
                                              &cache);
      const EngineResult linear =
          reference_run(fg, path_request(fg, path, policy));
      ASSERT_TRUE(linear.feasible) << linear.reason;
      expect_identical_schedules(fg, heap, linear.schedule);
    }
    if (::testing::Test::HasFailure()) break;
  }
}

// Locked requests, the input of every merge adjustment: each path's own
// schedule with a random subset of its tasks locked, at their slots and
// shifted by -3..+3 (clamped at 0), so the sweep reaches what the merge
// produces rarely — zero-length locks, several locks at one instant on one
// resource, broadcast locks and missed reservations. The engine's lock
// cursors must reproduce the reference's outcome exactly: feasible or
// not, code, offending lock and every slot. The second pass shares one
// warm workspace across every heap run, so state left over from an
// earlier run (a cursor not reset) would show.
struct LockSweepCounts {
  std::size_t requests = 0;
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  /// Lock pairs sharing a sequential resource and a start time.
  std::size_t same_start_pairs = 0;
  std::size_t zero_duration_locks = 0;
  std::size_t broadcast_locks = 0;
  std::size_t mismatches = 0;
};

void sweep_locked_requests(EngineWorkspace* shared, LockSweepCounts& counts) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    const Architecture arch = generate_random_architecture(rng);
    RandomCpgParams params;
    params.process_count = 12 + (seed % 3) * 8;
    params.path_count = 2 + (seed % 3) * 2;
    const Cpg g = generate_random_cpg(arch, params, rng);
    const FlatGraph fg = FlatGraph::expand(g);
    for (const AltPath& path : enumerate_paths(g)) {
      const EngineRequest base =
          path_request(fg, path, PriorityPolicy::kCriticalPath);
      const PathSchedule own = run_list_scheduler(fg, base).schedule;
      for (int variant = 0; variant < 4; ++variant) {
        const bool shifted = variant >= 2;
        const std::size_t keep_one_in = variant % 2 == 0 ? 2 : 4;
        EngineRequest req = base;
        req.locks.assign(fg.task_count(), std::nullopt);
        std::map<std::pair<PeId, Time>, std::size_t> at;
        for (TaskId t = 0; t < fg.task_count(); ++t) {
          if (!own.scheduled(t) || rng.index(keep_one_in) != 0) continue;
          const Slot& slot = own.slot(t);
          Time start = slot.start;
          if (shifted) start += static_cast<Time>(rng.index(7)) - 3;
          if (start < 0) start = 0;
          req.locks[t] = TaskLock{start, slot.resource};
          if (fg.task(t).duration == 0) ++counts.zero_duration_locks;
          if (fg.task(t).is_broadcast()) ++counts.broadcast_locks;
          if (fg.arch().pe(slot.resource).sequential()) {
            counts.same_start_pairs += at[{slot.resource, start}]++;
          }
        }
        const EngineResult heap = shared != nullptr
                                      ? run_list_scheduler(fg, req, *shared)
                                      : run_list_scheduler(fg, req);
        const EngineResult linear = reference_run(fg, req);

        ++counts.requests;
        ++(linear.feasible ? counts.feasible : counts.infeasible);
        bool same = heap.feasible == linear.feasible &&
                    heap.code == linear.code &&
                    heap.offending_lock == linear.offending_lock &&
                    heap.schedule.task_count() ==
                        linear.schedule.task_count();
        for (TaskId t = 0; same && t < heap.schedule.task_count(); ++t) {
          const Slot& a = heap.schedule.slot(t);
          const Slot& b = linear.schedule.slot(t);
          same = a.start == b.start && a.end == b.end &&
                 a.resource == b.resource;
        }
        if (!same) {
          ++counts.mismatches;
          ADD_FAILURE() << "seed " << seed << " path "
                        << path.label.to_string() << " variant " << variant
                        << ": heap feasible=" << heap.feasible << " ("
                        << heap.reason << ") vs linear feasible="
                        << linear.feasible << " (" << linear.reason << ")";
          if (counts.mismatches >= 5) return;
        }
      }
    }
  }
}

TEST(HeapEquivalence, LockedRequestsMatchLinearScan) {
  EngineWorkspace warm;
  EngineWorkspace* const passes[] = {nullptr, &warm};
  for (EngineWorkspace* shared : passes) {
    SCOPED_TRACE(shared != nullptr ? "one warm workspace"
                                   : "fresh workspaces");
    LockSweepCounts counts;
    sweep_locked_requests(shared, counts);
    EXPECT_EQ(counts.mismatches, 0u);
    // The sweep must actually reach every corner it exists for.
    EXPECT_GT(counts.feasible, 0u);
    EXPECT_GT(counts.infeasible, 0u);
    EXPECT_GT(counts.same_start_pairs, 0u);
    EXPECT_GT(counts.zero_duration_locks, 0u);
    EXPECT_GT(counts.broadcast_locks, 0u);
    std::cout << "[locked sweep] " << counts.requests << " requests, "
              << counts.feasible << " feasible, " << counts.infeasible
              << " infeasible, " << counts.same_start_pairs
              << " same-start pairs, " << counts.zero_duration_locks
              << " zero-duration locks, " << counts.broadcast_locks
              << " broadcast locks\n";
  }
}

// The packed-mask boundary. Guard masks cover condition ids below 64
// (Cube::kPackedBits); a model with more conditions takes the engine's
// known-cube knowledge and cover-cache fallbacks instead. A ladder CPG —
// the false arm of condition i leads to the disjunction of condition i+1,
// processes alternate processors, the true arms run on hardware — has n
// conditions and n + 1 paths; it is built just below, at and just above
// the bound.
Cpg ladder_cpg(std::size_t conditions) {
  Architecture arch;
  const PeId cpu[] = {arch.add_processor("cpu0"), arch.add_processor("cpu1")};
  const PeId hw = arch.add_hardware("hw");
  arch.add_bus("bus");
  arch.set_cond_broadcast_time(1);
  CpgBuilder b(arch);
  ProcessId d = b.add_process("D0", cpu[0], 2);
  for (std::size_t i = 0; i < conditions; ++i) {
    const CondId c = b.add_condition("C" + std::to_string(i));
    const ProcessId t = b.add_process("T" + std::to_string(i), hw,
                                      static_cast<Time>(1 + i % 3));
    const ProcessId next = b.add_process("D" + std::to_string(i + 1),
                                         cpu[(i + 1) % 2],
                                         static_cast<Time>(1 + i % 2));
    b.add_cond_edge(d, t, Literal{c, true}, 2);
    b.add_cond_edge(d, next, Literal{c, false}, 2);
    d = next;
  }
  return b.build();
}

TEST(HeapEquivalence, PackedMaskBoundaryLadder) {
  for (const std::size_t conditions : {63u, 64u, 65u}) {
    SCOPED_TRACE(std::to_string(conditions) + " conditions");
    const Cpg g = ladder_cpg(conditions);
    const FlatGraph fg = FlatGraph::expand(g);
    EXPECT_EQ(fg.masks_enabled(), conditions <= 64);
    const auto paths = enumerate_paths(g);
    ASSERT_EQ(paths.size(), conditions + 1);
    for (const AltPath& path : paths) {
      const PathSchedule heap = schedule_path(fg, path);
      const EngineResult linear = reference_run(
          fg, path_request(fg, path, PriorityPolicy::kCriticalPath));
      ASSERT_TRUE(linear.feasible) << linear.reason;
      expect_identical_schedules(fg, heap, linear.schedule);
    }
    EXPECT_NO_THROW(schedule_cpg(g));  // validates the merged table
  }
}

}  // namespace
