#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "models/fig1.hpp"
#include "test_util.hpp"

namespace cps {
namespace {

using testing::small_arch;

// A FlatGraph points at its graph, so expand must not take a temporary:
// a call on an rvalue Cpg does not compile (C++17 detection idiom), a
// call on a named graph does.
template <typename Arg, typename = void>
struct ExpandsFrom : std::false_type {};
template <typename Arg>
struct ExpandsFrom<
    Arg, std::void_t<decltype(FlatGraph::expand(std::declval<Arg>()))>>
    : std::true_type {};
static_assert(ExpandsFrom<const Cpg&>::value, "expand takes a named graph");
static_assert(ExpandsFrom<Cpg&>::value, "expand takes a named graph");
static_assert(!ExpandsFrom<Cpg>::value, "expand rejects a temporary graph");
static_assert(!ExpandsFrom<const Cpg>::value,
              "expand rejects a const temporary graph");

TEST(FlatGraph, InsertsCommTasksOnlyForInterPeEdges) {
  CpgBuilder b(small_arch());
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 0, 2);  // same PE
  const ProcessId p3 = b.add_process("P3", 1, 2);  // other PE
  b.add_edge(p1, p2, /*comm=*/5);                  // ignored (intra)
  b.add_edge(p1, p3, /*comm=*/5);                  // comm task
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);

  std::size_t comm_tasks = 0;
  for (const Task& t : fg.tasks()) {
    if (t.is_comm()) {
      ++comm_tasks;
      EXPECT_EQ(t.duration, 5);
      EXPECT_EQ(t.name, "P1->P3");
      EXPECT_TRUE(fg.arch().pe(t.resource).is_bus());
    }
  }
  EXPECT_EQ(comm_tasks, 1u);
  // Dependency chain P1 -> comm -> P3.
  const TaskId t1 = fg.task_of_process(p1);
  const TaskId t3 = fg.task_of_process(p3);
  EXPECT_FALSE(fg.deps().has_edge(t1, t3));
  bool via_comm = false;
  for (EdgeId e : fg.deps().out_edges(t1)) {
    const TaskId mid = fg.deps().edge(e).dst;
    if (fg.task(mid).is_comm() && fg.deps().has_edge(mid, t3)) {
      via_comm = true;
    }
  }
  EXPECT_TRUE(via_comm);
}

TEST(FlatGraph, CommGuardIsSourceGuardAndLiteral) {
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 1, 2);
  b.add_cond_edge(p1, p2, Literal{c, true}, /*comm=*/3);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  for (const Task& t : fg.tasks()) {
    if (t.is_comm()) {
      EXPECT_EQ(t.guard, Dnf(Cube(Literal{c, true})));
    }
  }
}

TEST(FlatGraph, BroadcastTasksPerCondition) {
  const Cpg g = build_fig1_cpg();
  const FlatGraph fg = FlatGraph::expand(g);
  EXPECT_TRUE(fg.broadcasts_enabled());
  for (CondId c = 0; c < 3; ++c) {
    const auto bt = fg.broadcast_task(c);
    ASSERT_TRUE(bt.has_value());
    const Task& t = fg.task(*bt);
    EXPECT_TRUE(t.is_broadcast());
    EXPECT_EQ(t.duration, g.arch().cond_broadcast_time());
    EXPECT_EQ(t.name, g.conditions().name(c));
    // Broadcast guard = guard of the disjunction process.
    EXPECT_EQ(t.guard, g.process(g.disjunction_of(c)).guard);
    // Dependency disjunction -> broadcast.
    EXPECT_TRUE(fg.deps().has_edge(fg.disjunction_task(c), *bt));
  }
}

TEST(FlatGraph, SingleResourceModelSkipsBroadcasts) {
  Architecture arch;
  arch.add_processor("only");
  CpgBuilder b(arch);
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 0, 2);
  b.add_cond_edge(p1, p2, Literal{c, true});
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  EXPECT_FALSE(fg.broadcasts_enabled());
  EXPECT_FALSE(fg.broadcast_task(c).has_value());
}

TEST(FlatGraph, ConditionalModelWithoutBroadcastBusIsRejected) {
  Architecture arch;
  arch.add_processor("p1");
  arch.add_processor("p2");
  arch.add_bus("b", /*connects_all=*/false);
  CpgBuilder b(arch);
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 1, 2);
  b.add_cond_edge(p1, p2, Literal{c, true}, 3);
  const Cpg g = b.build();
  EXPECT_THROW(FlatGraph::expand(g), ValidationError);
}

TEST(FlatGraph, CommFasterThanTau0IsRejected) {
  Architecture arch = small_arch();
  arch.set_cond_broadcast_time(4);
  CpgBuilder b(arch);
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 1, 2);
  b.add_cond_edge(p1, p2, Literal{c, true}, /*comm=*/2);  // < tau0
  const Cpg g = b.build();
  EXPECT_THROW(FlatGraph::expand(g), ValidationError);
}

TEST(FlatGraph, ActiveTasksFollowLabels) {
  const Cpg g = build_fig1_cpg();
  const FlatGraph fg = FlatGraph::expand(g);
  for (const AltPath& path : enumerate_paths(g)) {
    const auto active = fg.active_tasks(path.label);
    // Process tasks match the path's process activation.
    for (ProcessId p = 0; p < g.process_count(); ++p) {
      EXPECT_EQ(active[fg.task_of_process(p)], path.active[p]);
    }
    // A comm task is active iff its transmission guard holds.
    for (const Task& t : fg.tasks()) {
      if (!t.is_comm()) continue;
      EXPECT_EQ(active[t.id], t.guard.covered_by_context(path.label));
    }
  }
}

TEST(FlatGraph, Fig1TaskInventory) {
  const Cpg g = build_fig1_cpg();
  const FlatGraph fg = FlatGraph::expand(g);
  std::size_t processes = 0;
  std::size_t comms = 0;
  std::size_t bcasts = 0;
  for (const Task& t : fg.tasks()) {
    switch (t.kind) {
      case TaskKind::kProcess: ++processes; break;
      case TaskKind::kComm: ++comms; break;
      case TaskKind::kBroadcast: ++bcasts; break;
    }
  }
  EXPECT_EQ(processes, 19u);  // 17 ordinary + source + sink
  // The 14 published communication times map to 14 communication
  // processes (paper: P18..P31).
  EXPECT_EQ(comms, 14u);
  EXPECT_EQ(bcasts, 3u);
}

TEST(FlatGraph, FlatViewsMirrorDepsAndTasks) {
  // The engine reads the flat views in place of deps() and task(), so
  // they must hold the same data in the same order.
  const Cpg g = build_fig1_cpg();
  const FlatGraph fg = FlatGraph::expand(g);
  for (const Task& task : fg.tasks()) {
    const TaskId t = task.id;
    std::vector<TaskId> succs;
    for (EdgeId e : fg.deps().out_edges(t)) {
      succs.push_back(fg.deps().edge(e).dst);
    }
    std::vector<TaskId> preds;
    for (EdgeId e : fg.deps().in_edges(t)) {
      preds.push_back(fg.deps().edge(e).src);
    }
    EXPECT_EQ(std::vector<TaskId>(fg.succs(t).begin(), fg.succs(t).end()),
              succs);
    EXPECT_EQ(std::vector<TaskId>(fg.preds(t).begin(), fg.preds(t).end()),
              preds);
    EXPECT_EQ(fg.succs(t).size(), succs.size());
    EXPECT_EQ(fg.duration(t), task.duration);
    EXPECT_EQ(fg.resource(t), task.resource);
    EXPECT_EQ(fg.is_broadcast(t), task.is_broadcast());
  }
  // topo_order() lists every task once, each after its predecessors.
  std::vector<std::size_t> position(fg.task_count(), fg.task_count());
  for (std::size_t i = 0; i < fg.topo_order().size(); ++i) {
    position[fg.topo_order()[i]] = i;
  }
  ASSERT_EQ(fg.topo_order().size(), fg.task_count());
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    ASSERT_LT(position[t], fg.task_count());
    for (TaskId pred : fg.preds(t)) EXPECT_LT(position[pred], position[t]);
  }
  const auto out_of_range = static_cast<TaskId>(fg.task_count());
  EXPECT_THROW(fg.succs(out_of_range), InvalidArgument);
  EXPECT_THROW(fg.preds(out_of_range), InvalidArgument);
  EXPECT_THROW(fg.duration(out_of_range), InvalidArgument);
  EXPECT_THROW(fg.resource(out_of_range), InvalidArgument);
  EXPECT_THROW(fg.is_broadcast(out_of_range), InvalidArgument);
}

}  // namespace
}  // namespace cps
