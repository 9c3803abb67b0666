// Equivalence of the heap ready-list engine with the original linear-scan
// selection: across 200 seeded random CPGs, both engines must produce
// byte-identical per-path schedules, on locked requests the same outcome
// (slots, feasibility, offending lock), and the full co-synthesis flow
// must produce identical schedule tables and delay reports.
#include <gtest/gtest.h>

#include <iostream>
#include <map>
#include <utility>

#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "models/fig1.hpp"
#include "sched/driver.hpp"
#include "test_util.hpp"

namespace {

using namespace cps;

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
    const PathSchedule heap = schedule_path(
        fg, path, PriorityPolicy::kCriticalPath, nullptr,
        ReadySelection::kHeap);
    const PathSchedule linear = schedule_path(
        fg, path, PriorityPolicy::kCriticalPath, nullptr,
        ReadySelection::kLinearScan);
    expect_identical_schedules(fg, heap, linear);
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
                                              ReadySelection::kHeap, &cache);
      const PathSchedule linear = schedule_path(
          fg, path, policy, nullptr, ReadySelection::kLinearScan);
      expect_identical_schedules(fg, heap, linear);
    }
    if (::testing::Test::HasFailure()) break;
  }
}

// Locked requests, the input of every merge adjustment: each path's own
// schedule with a random subset of its tasks locked, at their slots and
// shifted by -3..+3 (clamped at 0), so the sweep reaches what the merge
// produces rarely — zero-length locks, several locks at one instant on one
// resource, broadcast locks and missed reservations. The heap engine's
// lock cursors must reproduce the linear scan's outcome exactly: feasible
// or not, code, offending lock and every slot. The second pass shares one
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
          make_path_request(fg, path, PriorityPolicy::kCriticalPath, nullptr,
                            ReadySelection::kHeap, nullptr);
      const PathSchedule own = run_list_scheduler(fg, base).schedule;
      for (int variant = 0; variant < 4; ++variant) {
        const bool shifted = variant >= 2;
        const std::size_t keep_one_in = variant % 2 == 0 ? 2 : 4;
        EngineRequest heap_req = base;
        heap_req.locks.assign(fg.task_count(), std::nullopt);
        std::map<std::pair<PeId, Time>, std::size_t> at;
        for (TaskId t = 0; t < fg.task_count(); ++t) {
          if (!own.scheduled(t) || rng.index(keep_one_in) != 0) continue;
          const Slot& slot = own.slot(t);
          Time start = slot.start;
          if (shifted) start += static_cast<Time>(rng.index(7)) - 3;
          if (start < 0) start = 0;
          heap_req.locks[t] = TaskLock{start, slot.resource};
          if (fg.task(t).duration == 0) ++counts.zero_duration_locks;
          if (fg.task(t).is_broadcast()) ++counts.broadcast_locks;
          if (fg.arch().pe(slot.resource).sequential()) {
            counts.same_start_pairs += at[{slot.resource, start}]++;
          }
        }
        EngineRequest linear_req = heap_req;
        linear_req.selection = ReadySelection::kLinearScan;
        const EngineResult heap =
            shared != nullptr ? run_list_scheduler(fg, heap_req, *shared)
                              : run_list_scheduler(fg, heap_req);
        const EngineResult linear = run_list_scheduler(fg, linear_req);

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

// Full-flow equivalence: identical schedule tables (entry-for-entry) and
// identical delay reports on a smaller sample (the merge exercises the
// engine with locks, where the heap must respect reservation windows).
TEST(HeapEquivalence, FullFlowTablesMatch) {
  for (std::uint64_t seed = 301; seed <= 330; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const Architecture arch = generate_random_architecture(rng);
    RandomCpgParams params;
    params.process_count = 30;
    params.path_count = 8;
    const Cpg g = generate_random_cpg(arch, params, rng);

    CoSynthesisOptions heap_options;
    heap_options.merge.ready = ReadySelection::kHeap;
    CoSynthesisOptions linear_options;
    linear_options.merge.ready = ReadySelection::kLinearScan;
    const CoSynthesisResult a = schedule_cpg(g, heap_options);
    const CoSynthesisResult b = schedule_cpg(g, linear_options);

    EXPECT_EQ(a.delays.delta_m, b.delays.delta_m);
    EXPECT_EQ(a.delays.delta_max, b.delays.delta_max);
    EXPECT_EQ(a.table.entry_count(), b.table.entry_count());
    ASSERT_EQ(a.flat->task_count(), b.flat->task_count());
    for (TaskId t = 0; t < a.flat->task_count(); ++t) {
      const auto& ra = a.table.row(t);
      const auto& rb = b.table.row(t);
      ASSERT_EQ(ra.size(), rb.size()) << a.flat->task(t).name;
      for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].column, rb[i].column) << a.flat->task(t).name;
        EXPECT_EQ(ra[i].start, rb[i].start) << a.flat->task(t).name;
        EXPECT_EQ(ra[i].resource, rb[i].resource) << a.flat->task(t).name;
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
