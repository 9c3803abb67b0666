#include <gtest/gtest.h>

#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "models/fig1.hpp"
#include "reference_engine.hpp"
#include "sched/list_scheduler.hpp"
#include "test_util.hpp"

namespace cps {
namespace {

using testing::expect_schedule_invariants;
using testing::small_arch;

TEST(ListScheduler, SequentialChainOnOneProcessor) {
  Architecture arch;
  arch.add_processor("p");
  CpgBuilder b(arch);
  const ProcessId p1 = b.add_process("P1", 0, 3);
  const ProcessId p2 = b.add_process("P2", 0, 4);
  b.add_edge(p1, p2);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);
  ASSERT_EQ(paths.size(), 1u);
  const PathSchedule s = schedule_path(fg, paths[0]);
  EXPECT_EQ(s.slot(fg.task_of_process(p1)).start, 0);
  EXPECT_EQ(s.slot(fg.task_of_process(p2)).start, 3);
  EXPECT_EQ(s.delay(fg), 7);
}

TEST(ListScheduler, ProcessorSerializesHardwareDoesNot) {
  // Two independent processes: on a processor they serialize, on an ASIC
  // they overlap.
  for (const bool hardware : {false, true}) {
    Architecture arch;
    PeId pe;
    if (hardware) {
      pe = arch.add_hardware("hw");
    } else {
      pe = arch.add_processor("p");
    }
    CpgBuilder b(arch);
    b.add_process("A", pe, 5);
    b.add_process("B", pe, 5);
    const Cpg g = b.build();
    const FlatGraph fg = FlatGraph::expand(g);
    const auto paths = enumerate_paths(g);
    const PathSchedule s = schedule_path(fg, paths[0]);
    EXPECT_EQ(s.delay(fg), hardware ? 5 : 10);
  }
}

TEST(ListScheduler, CommunicationOccupiesBus) {
  // Two transfers over one bus serialize.
  Architecture arch = small_arch();
  CpgBuilder b(arch);
  const ProcessId a = b.add_process("A", 0, 2);
  const ProcessId b1 = b.add_process("B1", 1, 1);
  const ProcessId b2 = b.add_process("B2", 1, 1);
  b.add_edge(a, b1, 4);
  b.add_edge(a, b2, 4);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);
  const PathSchedule s = schedule_path(fg, paths[0]);
  // A ends at 2; the two comms run 2-6 and 6-10; B's run 1 each.
  EXPECT_EQ(s.delay(fg), 11);
  expect_schedule_invariants(fg, s, fg.active_tasks(paths[0].label));
}

TEST(ListScheduler, CriticalPathPriorityPrefersUrgentTask) {
  // Two ready tasks on one processor: A (short, no successors) and B
  // (feeds a long chain). Critical-path priority must start B first.
  Architecture arch;
  arch.add_processor("p");
  CpgBuilder b(arch);
  const ProcessId ta = b.add_process("A", 0, 5);
  const ProcessId tb = b.add_process("B", 0, 2);
  const ProcessId tc = b.add_process("C", 0, 10);
  b.add_edge(tb, tc);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);
  const PathSchedule s = schedule_path(fg, paths[0]);
  // B (urgency 12) precedes A (urgency 5); C follows B; A runs last.
  EXPECT_EQ(s.slot(fg.task_of_process(tb)).start, 0);
  EXPECT_EQ(s.slot(fg.task_of_process(tc)).start, 2);
  EXPECT_EQ(s.slot(fg.task_of_process(ta)).start, 12);
  EXPECT_EQ(s.delay(fg), 17);
}

TEST(ListScheduler, KnowledgeRuleDelaysGuardedProcessOnRemotePe) {
  // P1 on cpu1 computes C at t=2; P2 (guard C) runs on cpu2 and needs the
  // broadcast: start >= end(P1) + tau0 and after the comm of its input.
  Architecture arch = small_arch();
  CpgBuilder b(arch);
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 1, 3);
  b.add_cond_edge(p1, p2, Literal{c, true}, /*comm=*/1);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  for (const AltPath& path : enumerate_paths(g)) {
    const PathSchedule s = schedule_path(fg, path);
    expect_schedule_invariants(fg, s, fg.active_tasks(path.label));
    if (path.label.value_of(c) == true) {
      const Slot& p2s = s.slot(fg.task_of_process(p2));
      const auto bcast = fg.broadcast_task(c);
      ASSERT_TRUE(bcast.has_value());
      ASSERT_TRUE(s.scheduled(*bcast));
      // P2 cannot start before the broadcast has delivered C to cpu2.
      EXPECT_GE(p2s.start, s.slot(*bcast).end);
    }
  }
}

TEST(ListScheduler, GuardTrueProcessNeedsNoKnowledge) {
  // A process with guard true on a remote PE may start before any
  // broadcast arrives.
  Architecture arch = small_arch();
  CpgBuilder b(arch);
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 5);
  const ProcessId p2 = b.add_process("P2", 0, 5);
  const ProcessId p3 = b.add_process("P3", 1, 1);  // independent, guard true
  b.add_cond_edge(p1, p2, Literal{c, true});
  (void)p3;
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);
  for (const AltPath& path : paths) {
    const PathSchedule s = schedule_path(fg, path);
    EXPECT_EQ(s.slot(fg.task_of_process(p3)).start, 0);
  }
}

TEST(ListScheduler, BroadcastUsesFirstAvailableBus) {
  const Cpg g = build_fig1_cpg();
  const FlatGraph fg = FlatGraph::expand(g);
  for (const AltPath& path : enumerate_paths(g)) {
    const PathSchedule s = schedule_path(fg, path);
    const auto active = fg.active_tasks(path.label);
    expect_schedule_invariants(fg, s, active);
    for (CondId c = 0; c < 3; ++c) {
      const auto bt = fg.broadcast_task(c);
      if (!active[*bt]) continue;
      const Slot& bs = s.slot(*bt);
      EXPECT_TRUE(fg.arch().pe(bs.resource).is_bus());
      // Broadcast never precedes its disjunction.
      EXPECT_GE(bs.start, s.slot(fg.disjunction_task(c)).end);
    }
  }
}

TEST(ListScheduler, ResourceReadiedMidPassIsVisitedInThatPass) {
  // A step visits the sequential resources in PeId order. When the
  // zero-duration disjunction D completes on cpu1 at t=2, it readies both
  // its transfer to cpu2 and the broadcast of C on the bus. The bus comes
  // after cpu1, so the same pass visits it and starts the transfer; the
  // broadcast, whose step of the pass is already over, waits for the bus.
  // Starting the broadcast first would delay the transfer and Z by one.
  // The reference engine pins the same order.
  Architecture arch;
  const PeId cpu1 = arch.add_processor("cpu1");
  const PeId cpu2 = arch.add_processor("cpu2");
  const PeId bus = arch.add_bus("bus");
  arch.set_cond_broadcast_time(1);
  CpgBuilder b(arch);
  const CondId c = b.add_condition("C");
  const ProcessId p = b.add_process("P", cpu1, 2);
  const ProcessId d = b.add_process("D", cpu1, 0);
  const ProcessId x = b.add_process("X", cpu1, 2);
  const ProcessId y = b.add_process("Y", cpu1, 3);
  const ProcessId z = b.add_process("Z", cpu2, 1);
  b.add_edge(p, d);
  b.add_edge(d, z, 3);
  b.add_cond_edge(d, x, Literal{c, true});
  b.add_cond_edge(d, y, Literal{c, false});
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  TaskId transfer = 0;
  for (const Task& task : fg.tasks()) {
    if (task.name == "D->Z") transfer = task.id;
  }
  ASSERT_TRUE(fg.task(transfer).is_comm());
  const auto bcast = fg.broadcast_task(c);
  ASSERT_TRUE(bcast.has_value());
  const auto paths = enumerate_paths(g);
  ASSERT_EQ(paths.size(), 2u);
  for (const bool reference : {false, true}) {
    for (const AltPath& path : paths) {
      SCOPED_TRACE(reference ? "reference" : "engine");
      const EngineRequest req =
          make_path_request(fg, path, PriorityPolicy::kCriticalPath, nullptr,
                            ReadySelection::kHeap, nullptr);
      const EngineResult res = reference ? testing::reference_run(fg, req)
                                         : run_list_scheduler(fg, req);
      ASSERT_TRUE(res.feasible) << res.reason;
      const PathSchedule& s = res.schedule;
      expect_schedule_invariants(fg, s, fg.active_tasks(path.label));
      EXPECT_EQ(s.slot(transfer).start, 2);
      EXPECT_EQ(s.slot(transfer).resource, bus);
      EXPECT_EQ(s.slot(*bcast).start, 5);
      EXPECT_EQ(s.slot(fg.task_of_process(z)).start, 5);
      EXPECT_EQ(s.delay(fg), 6);
    }
  }
}

TEST(ListScheduler, LockedTaskStartsExactlyAtReservation) {
  Architecture arch;
  arch.add_processor("p");
  CpgBuilder b(arch);
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 0, 3);
  b.add_edge(p1, p2);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);

  EngineRequest req;
  req.label = paths[0].label;
  req.active = fg.active_tasks(paths[0].label);
  req.priority = compute_priorities(fg, req.active,
                                    PriorityPolicy::kCriticalPath);
  req.locks.assign(fg.task_count(), std::nullopt);
  const TaskId t2 = fg.task_of_process(p2);
  req.locks[t2] = TaskLock{10, 0};
  const EngineResult res = run_list_scheduler(fg, req);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.schedule.slot(t2).start, 10);
  EXPECT_EQ(res.schedule.slot(fg.task_of_process(p1)).start, 0);
}

TEST(ListScheduler, InfeasibleLockIsReported) {
  Architecture arch;
  arch.add_processor("p");
  CpgBuilder b(arch);
  const ProcessId p1 = b.add_process("P1", 0, 5);
  const ProcessId p2 = b.add_process("P2", 0, 3);
  b.add_edge(p1, p2);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);

  EngineRequest req;
  req.label = paths[0].label;
  req.active = fg.active_tasks(paths[0].label);
  req.priority = compute_priorities(fg, req.active,
                                    PriorityPolicy::kCriticalPath);
  req.locks.assign(fg.task_count(), std::nullopt);
  const TaskId t2 = fg.task_of_process(p2);
  req.locks[t2] = TaskLock{2, 0};  // before P1 can finish
  const EngineResult res = run_list_scheduler(fg, req);
  EXPECT_FALSE(res.feasible);
  ASSERT_TRUE(res.offending_lock.has_value());
  EXPECT_EQ(*res.offending_lock, t2);
}

TEST(ListScheduler, NegativeReservationIsRejected) {
  // Reservations come from table cells (non-negative); the clock starts
  // at 0, so the engine and the reference reject one that could never be
  // honored.
  Architecture arch;
  arch.add_processor("p");
  CpgBuilder b(arch);
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);

  EngineRequest req;
  req.label = paths[0].label;
  req.active = fg.active_tasks(paths[0].label);
  req.priority = compute_priorities(fg, req.active,
                                    PriorityPolicy::kCriticalPath);
  req.locks.assign(fg.task_count(), std::nullopt);
  req.locks[fg.task_of_process(p1)] = TaskLock{-1, 0};
  EXPECT_THROW(run_list_scheduler(fg, req), InvalidArgument);
  EXPECT_THROW(testing::reference_run(fg, req), InvalidArgument);
}

TEST(ListScheduler, UnlockedTasksFlowAroundReservations) {
  // One processor; a lock reserves [0, 4) for B; A (ready at 0, duration
  // 3) must wait until 4 — it cannot overlap the reservation.
  Architecture arch;
  arch.add_processor("p");
  CpgBuilder b(arch);
  const ProcessId pa = b.add_process("A", 0, 3);
  const ProcessId pb = b.add_process("B", 0, 4);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);

  EngineRequest req;
  req.label = paths[0].label;
  req.active = fg.active_tasks(paths[0].label);
  req.priority = compute_priorities(fg, req.active,
                                    PriorityPolicy::kCriticalPath);
  req.locks.assign(fg.task_count(), std::nullopt);
  req.locks[fg.task_of_process(pb)] = TaskLock{0, 0};
  const EngineResult res = run_list_scheduler(fg, req);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.schedule.slot(fg.task_of_process(pb)).start, 0);
  EXPECT_EQ(res.schedule.slot(fg.task_of_process(pa)).start, 4);
}

TEST(ListScheduler, GapFillingBeforeReservation) {
  // Reservation at [5, 9); a 3-unit task fits in front of it.
  Architecture arch;
  arch.add_processor("p");
  CpgBuilder b(arch);
  const ProcessId pa = b.add_process("A", 0, 3);
  const ProcessId pb = b.add_process("B", 0, 4);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);

  EngineRequest req;
  req.label = paths[0].label;
  req.active = fg.active_tasks(paths[0].label);
  req.priority = compute_priorities(fg, req.active,
                                    PriorityPolicy::kCriticalPath);
  req.locks.assign(fg.task_count(), std::nullopt);
  req.locks[fg.task_of_process(pb)] = TaskLock{5, 0};
  const EngineResult res = run_list_scheduler(fg, req);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.schedule.slot(fg.task_of_process(pa)).start, 0);
  EXPECT_EQ(res.schedule.slot(fg.task_of_process(pb)).start, 5);
}

// --------------------------------------------------------------------------
// Workspace reuse.

/// Both runs must be byte-identical: feasibility, every slot, and (when
/// infeasible) the offending lock.
void expect_engine_equal(const FlatGraph& fg, const EngineResult& a,
                         const EngineResult& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  if (!a.feasible) {
    EXPECT_EQ(a.offending_lock, b.offending_lock);
    return;
  }
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    ASSERT_EQ(a.schedule.scheduled(t), b.schedule.scheduled(t))
        << "task " << t;
    if (!a.schedule.scheduled(t)) continue;
    EXPECT_EQ(a.schedule.slot(t).start, b.schedule.slot(t).start)
        << "task " << t;
    EXPECT_EQ(a.schedule.slot(t).end, b.schedule.slot(t).end)
        << "task " << t;
    EXPECT_EQ(a.schedule.slot(t).resource, b.schedule.slot(t).resource)
        << "task " << t;
  }
}

TEST(ListScheduler, WorkspaceReuseKeepsRunsIdentical) {
  // The same request run twice on one workspace (warm buffers, warm
  // private cover cache) must reproduce the cold run exactly.
  Rng rng(11);
  const Architecture arch = generate_random_architecture(rng);
  RandomCpgParams params;
  params.process_count = 30;
  params.path_count = 6;
  const Cpg g = generate_random_cpg(arch, params, rng);
  const FlatGraph fg = FlatGraph::expand(g);
  EngineWorkspace ws;
  for (const AltPath& path : enumerate_paths(g)) {
    EngineRequest req;
    req.label = path.label;
    req.active = fg.active_tasks(path.label);
    req.priority = compute_priorities(fg, req.active,
                                      PriorityPolicy::kCriticalPath);
    const EngineResult cold = run_list_scheduler(fg, req);
    const EngineResult warm = run_list_scheduler(fg, req, ws);
    expect_engine_equal(fg, cold, warm);
  }
  EXPECT_EQ(ws.stats.runs, enumerate_paths(g).size());
  EXPECT_EQ(ws.stats.reuse_hits, ws.stats.runs - 1);
}

TEST(ListScheduler, DeadlockIsReportedNotThrown) {
  // An active guarded task whose disjunction is (artificially) inactive
  // can never learn its condition: the engine must report the deadlock
  // through the result — with no offending lock, since no lock caused it
  // — instead of aborting. This is the condition the merge propagates as
  // MergeResult::ok == false.
  Architecture arch;
  arch.add_processor("p");
  CpgBuilder b(arch);
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 0, 3);
  b.add_cond_edge(p1, p2, Literal{c, true});
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);
  const AltPath* with_c = nullptr;
  for (const AltPath& path : paths) {
    if (path.label.value_of(c) == true) with_c = &path;
  }
  ASSERT_NE(with_c, nullptr);

  EngineRequest req;
  req.label = with_c->label;
  req.active = fg.active_tasks(with_c->label);
  req.priority = compute_priorities(fg, req.active,
                                    PriorityPolicy::kCriticalPath);
  req.active[fg.task_of_process(p1)] = false;  // corrupt: P2 starves
  const EngineResult res = run_list_scheduler(fg, req);
  EXPECT_FALSE(res.feasible);
  EXPECT_FALSE(res.offending_lock.has_value());
  EXPECT_NE(res.reason.find("deadlock"), std::string::npos);
}

// Property sweep: schedules of random CPGs satisfy all physical
// invariants on every path and with every priority policy.
struct SweepParam {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t paths;
};

class ScheduleSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ScheduleSweep, InvariantsHoldOnAllPaths) {
  const SweepParam param = GetParam();
  Rng rng(param.seed);
  const Architecture arch = generate_random_architecture(rng);
  RandomCpgParams params;
  params.process_count = param.nodes;
  params.path_count = param.paths;
  const Cpg g = generate_random_cpg(arch, params, rng);
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);
  EXPECT_EQ(paths.size(), param.paths);

  for (const PriorityPolicy policy :
       {PriorityPolicy::kCriticalPath, PriorityPolicy::kTaskOrder,
        PriorityPolicy::kRandom}) {
    Rng prio_rng(7);
    for (const AltPath& path : paths) {
      const PathSchedule s = schedule_path(fg, path, policy, &prio_rng);
      expect_schedule_invariants(fg, s, fg.active_tasks(path.label));
      EXPECT_GT(s.delay(fg), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, ScheduleSweep,
    ::testing::Values(SweepParam{1, 20, 4}, SweepParam{2, 30, 6},
                      SweepParam{3, 40, 10}, SweepParam{4, 25, 12},
                      SweepParam{5, 50, 8}, SweepParam{6, 35, 5},
                      SweepParam{7, 45, 16}, SweepParam{8, 60, 10}));

}  // namespace
}  // namespace cps
