// The tree-mode driver (PathScheduling::kTree): each leaf of the guard
// trie resumes from the previous leaf's checkpoints. On seeded CPGs and
// adversarial trie shapes (diamond reconvergence, maximum-depth condition
// chains, sibling conditions on distinct PEs, the max_paths budget
// tripping mid-trie) its paths, schedules and tables must be
// byte-identical to the retained path-list reference.
#include <gtest/gtest.h>

#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "sched/driver.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace {

using namespace cps;
using cps::testing::small_arch;

// `regions` independent two-way condition regions in series: 2^regions
// alternative paths — the maximum-depth condition chain for its size.
Cpg series_of_conditions(std::size_t regions) {
  CpgBuilder b(small_arch());
  std::optional<ProcessId> prev;
  for (std::size_t i = 0; i < regions; ++i) {
    const std::string n = std::to_string(i);
    const CondId c = b.add_condition("C" + n);
    const ProcessId d = b.add_process("D" + n, 0, 1);
    const ProcessId t = b.add_process("T" + n, 0, 1);
    const ProcessId f = b.add_process("F" + n, 0, 1);
    const ProcessId j = b.add_process("J" + n, 0, 1);
    b.add_cond_edge(d, t, Literal{c, true});
    b.add_cond_edge(d, f, Literal{c, false});
    b.add_edge(t, j);
    b.add_edge(f, j);
    b.mark_conjunction(j);
    if (prev) b.add_edge(*prev, d);
    prev = j;
  }
  return b.build();
}

// Diamond reconvergence: C selects one of two arms that both feed the
// conjunction J; on C, K splits again (nested diamond). Three leaves of
// different depth.
Cpg diamond_reconvergence() {
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const CondId k = b.add_condition("K");
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 0, 2);
  const ProcessId p3 = b.add_process("P3", 1, 2);
  const ProcessId p4 = b.add_process("P4", 0, 2);
  const ProcessId p5 = b.add_process("P5", 0, 2);
  b.add_cond_edge(p1, p2, Literal{c, true});
  b.add_cond_edge(p1, p5, Literal{c, false});
  b.add_cond_edge(p2, p3, Literal{k, true});
  b.add_cond_edge(p2, p4, Literal{k, false});
  b.add_edge(p3, p5, 2);
  b.add_edge(p4, p5);
  b.mark_conjunction(p5);
  return b.build();
}

// Two independent condition regions whose disjunction processes run on
// *different* processors: sibling branches of the trie whose knowledge
// becomes available on distinct resources (broadcasts required).
Cpg sibling_conditions_on_distinct_pes() {
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const CondId d = b.add_condition("D");
  const ProcessId pc = b.add_process("PC", 0, 2);
  const ProcessId ct = b.add_process("CT", 0, 3);
  const ProcessId cf = b.add_process("CF", 0, 1);
  const ProcessId pd = b.add_process("PD", 1, 2);
  const ProcessId dt = b.add_process("DT", 1, 3);
  const ProcessId df = b.add_process("DF", 1, 1);
  const ProcessId join = b.add_process("J", 0, 1);
  b.add_cond_edge(pc, ct, Literal{c, true});
  b.add_cond_edge(pc, cf, Literal{c, false});
  b.add_cond_edge(pd, dt, Literal{d, true});
  b.add_cond_edge(pd, df, Literal{d, false});
  b.add_edge(ct, join);
  b.add_edge(cf, join);
  b.add_edge(dt, join, 2);
  b.add_edge(df, join, 2);
  b.mark_conjunction(join);
  return b.build();
}

// ---------------------------------------------------------------------
// Tree-mode driver vs the retained path-list reference.
// ---------------------------------------------------------------------

void expect_identical_results(const CoSynthesisResult& a,
                              const CoSynthesisResult& b) {
  ASSERT_EQ(a.path_count, b.path_count);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].label, b.paths[i].label);
    EXPECT_EQ(a.paths[i].active, b.paths[i].active);
    ASSERT_EQ(a.path_schedules[i].task_count(),
              b.path_schedules[i].task_count());
    for (TaskId t = 0; t < a.path_schedules[i].task_count(); ++t) {
      EXPECT_EQ(a.path_schedules[i].slot(t).start,
                b.path_schedules[i].slot(t).start);
      EXPECT_EQ(a.path_schedules[i].slot(t).end,
                b.path_schedules[i].slot(t).end);
      EXPECT_EQ(a.path_schedules[i].slot(t).resource,
                b.path_schedules[i].slot(t).resource);
    }
  }
  EXPECT_EQ(a.table, b.table);
  EXPECT_EQ(a.delays.delta_m, b.delays.delta_m);
  EXPECT_EQ(a.delays.delta_max, b.delays.delta_max);
}

TEST(TreeWalk, TreeMatchesListOnSeededCpgs) {
  const std::size_t path_counts[] = {4, 8, 12, 24};
  std::size_t total_resumes = 0;
  for (std::uint64_t seed = 501; seed <= 540; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const Architecture arch = generate_random_architecture(rng);
    RandomCpgParams params;
    params.process_count = 20 + (seed % 4) * 10;
    params.path_count = path_counts[seed % 4];
    if (seed % 2 == 0) {
      // Balanced durations keep sibling priorities identical across
      // shared prefixes — the regime where the chain actually resumes.
      // Odd seeds keep heterogeneous durations: priorities diverge, the
      // engine adaptively skips recording, and the equivalence must hold
      // all the same.
      params.exec_min = params.exec_max = 5;
      params.comm_min = params.comm_max = 2;
    }
    const Cpg g = generate_random_cpg(arch, params, rng);

    CoSynthesisOptions list;
    list.path_scheduling = PathScheduling::kList;
    const CoSynthesisResult reference = schedule_cpg(g, list);

    CoSynthesisOptions tree;
    tree.path_scheduling = PathScheduling::kTree;
    const CoSynthesisResult result = schedule_cpg(g, tree);
    expect_identical_results(result, reference);
    EXPECT_EQ(reference.tree.prefix_resumes, 0u);
    total_resumes += result.tree.prefix_resumes;
    if (::testing::Test::HasFailure()) break;
  }
  // The whole point of the trie walk: shared prefixes actually resume.
  EXPECT_GT(total_resumes, 0u);
}

TEST(TreeWalk, DeepConditionNestResumesAlmostEveryLeaf) {
  const Cpg g = series_of_conditions(6);  // 64 leaves
  const CoSynthesisResult result = schedule_cpg(g);
  EXPECT_EQ(result.path_count, 64u);
  // Every leaf after the first shares a prefix with its predecessor; on
  // this chain-shaped model the checkpoints always reach back far enough.
  EXPECT_GT(result.tree.prefix_resumes, 32u);
  EXPECT_GT(result.tree.resumed_steps, 0u);

  CoSynthesisOptions list;
  list.path_scheduling = PathScheduling::kList;
  expect_identical_results(result, schedule_cpg(g, list));
}

TEST(TreeWalk, AdversarialShapesMatchListEndToEnd) {
  for (const Cpg& g :
       {diamond_reconvergence(), sibling_conditions_on_distinct_pes()}) {
    CoSynthesisOptions list;
    list.path_scheduling = PathScheduling::kList;
    expect_identical_results(schedule_cpg(g), schedule_cpg(g, list));
  }
}

TEST(TreeWalk, RandomPriorityPolicyMatchesList) {
  // The per-path priority draws consume the flow RNG in enumeration
  // order; tree mode must preserve that order.
  const Cpg g = diamond_reconvergence();
  CoSynthesisOptions list;
  list.path_scheduling = PathScheduling::kList;
  list.path_priority = PriorityPolicy::kRandom;
  CoSynthesisOptions tree = list;
  tree.path_scheduling = PathScheduling::kTree;
  expect_identical_results(schedule_cpg(g, list), schedule_cpg(g, tree));
}

TEST(TreeWalk, MaxPathsBudgetTripsMidTrie) {
  const Cpg g = series_of_conditions(12);  // 4096 leaves
  CoSynthesisOptions options;
  options.max_paths = 64;
  EXPECT_THROW(schedule_cpg(g, options), BudgetExceededError);
  // A graph within the budget still co-synthesizes.
  const Cpg ok = series_of_conditions(3);
  CoSynthesisOptions within;
  within.max_paths = 8;
  EXPECT_EQ(schedule_cpg(ok, within).path_count, 8u);
}

TEST(TreeWalk, KeepPathsOffDropsPayloadKeepsTable) {
  const Cpg g = diamond_reconvergence();
  CoSynthesisOptions keep;
  const CoSynthesisResult with_paths = schedule_cpg(g, keep);
  CoSynthesisOptions drop;
  drop.keep_paths = false;
  const CoSynthesisResult without = schedule_cpg(g, drop);
  EXPECT_TRUE(without.paths.empty());
  EXPECT_TRUE(without.path_schedules.empty());
  EXPECT_EQ(without.path_count, with_paths.path_count);
  EXPECT_EQ(without.table, with_paths.table);
  EXPECT_EQ(without.delays.delta_m, with_paths.delays.delta_m);
}

}  // namespace
