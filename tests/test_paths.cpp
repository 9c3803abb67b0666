#include <gtest/gtest.h>

#include "models/fig1.hpp"
#include "sched/driver.hpp"
#include "test_util.hpp"

namespace cps {
namespace {

using testing::series_of_conditions;
using testing::small_arch;

Cpg two_nested_conditions() {
  // P1 computes C; on C, P2 computes K; join in P5.
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const CondId k = b.add_condition("K");
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 0, 2);
  const ProcessId p3 = b.add_process("P3", 0, 2);
  const ProcessId p4 = b.add_process("P4", 0, 2);
  const ProcessId p5 = b.add_process("P5", 0, 2);
  b.add_cond_edge(p1, p2, Literal{c, true});
  b.add_cond_edge(p1, p5, Literal{c, false});
  b.add_cond_edge(p2, p3, Literal{k, true});
  b.add_cond_edge(p2, p4, Literal{k, false});
  b.add_edge(p3, p5);
  b.add_edge(p4, p5);
  b.mark_conjunction(p5);
  return b.build();
}

TEST(Paths, NoConditionsMeansOnePath) {
  CpgBuilder b(small_arch());
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 0, 1);
  b.add_edge(p1, p2);
  const Cpg g = b.build();
  const auto paths = enumerate_paths(g);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(paths[0].label.is_true());
  for (ProcessId p = 0; p < g.process_count(); ++p) {
    EXPECT_TRUE(paths[0].active[p]);
  }
}

TEST(Paths, NestedConditionsGiveThreePaths) {
  const Cpg g = two_nested_conditions();
  const auto paths = enumerate_paths(g);
  ASSERT_EQ(paths.size(), 3u);  // C&K, C&!K, !C
  // Labels must be pairwise incompatible.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_FALSE(paths[i].label.compatible(paths[j].label));
    }
  }
  // !C path mentions only C (K's disjunction never runs).
  bool found_notc = false;
  for (const auto& p : paths) {
    if (p.label.value_of(g.conditions().id_of("C")) == false) {
      found_notc = true;
      EXPECT_EQ(p.label.size(), 1u);
    } else {
      EXPECT_EQ(p.label.size(), 2u);
    }
  }
  EXPECT_TRUE(found_notc);
}

TEST(Paths, ActiveSetsMatchGuards) {
  const Cpg g = two_nested_conditions();
  for (const auto& path : enumerate_paths(g)) {
    const Assignment a = path.representative(g.conditions().size());
    for (ProcessId p = 0; p < g.process_count(); ++p) {
      EXPECT_EQ(path.active[p], g.active_under(p, a))
          << g.process(p).name << " on " << path.label.to_string();
    }
    // Source and sink always run.
    EXPECT_TRUE(path.active[g.source()]);
    EXPECT_TRUE(path.active[g.sink()]);
  }
}

TEST(Paths, LabelsPartitionTheAssignmentSpace) {
  const Cpg g = two_nested_conditions();
  const auto paths = enumerate_paths(g);
  for (const Assignment& a : Assignment::enumerate(g.conditions().size())) {
    std::size_t matches = 0;
    for (const auto& p : paths) {
      if (a.satisfies(p.label)) ++matches;
    }
    EXPECT_EQ(matches, 1u) << "assignment " << a.to_string();
  }
}

TEST(Paths, PathForAssignmentAgreesWithEnumeration) {
  const Cpg g = two_nested_conditions();
  const auto paths = enumerate_paths(g);
  for (const Assignment& a : Assignment::enumerate(g.conditions().size())) {
    const AltPath p = path_for_assignment(g, a);
    bool found = false;
    for (const auto& q : paths) {
      if (q.label == p.label) {
        found = true;
        EXPECT_EQ(q.active, p.active);
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(Paths, Fig1HasSixPaths) {
  const Cpg g = build_fig1_cpg();
  const auto paths = enumerate_paths(g);
  EXPECT_EQ(paths.size(), 6u);
  // {C,!C} x {D&K, D&!K, !D}: the !D paths never mention K.
  const CondId d = g.conditions().id_of("D");
  const CondId k = g.conditions().id_of("K");
  for (const auto& p : paths) {
    ASSERT_TRUE(p.label.mentions(d));
    EXPECT_EQ(p.label.mentions(k), p.label.value_of(d) == true);
  }
}

// ---------------------------------------------------------------------
// Streaming enumeration. The path count is exponential in the number of
// independent condition regions, so the enumerator must produce leaves
// one at a time from O(depth) state instead of materializing the set.
// ---------------------------------------------------------------------

TEST(PathEnumerator, MatchesEnumerationOrderOnFig1) {
  const Cpg g = build_fig1_cpg();
  const auto all = enumerate_paths(g);
  PathEnumerator en(g);
  for (const AltPath& expected : all) {
    const auto produced = en.next();
    ASSERT_TRUE(produced.has_value());
    EXPECT_EQ(produced->label, expected.label);
    EXPECT_EQ(produced->active, expected.active);
  }
  EXPECT_FALSE(en.next().has_value());
  EXPECT_EQ(en.produced(), all.size());
}

TEST(PathEnumerator, StreamsFirstLeavesOfAHugePathSetInstantly) {
  // 2^20 ≈ 1M alternative paths; taking the first few must not walk (or
  // allocate) the rest of the tree.
  const Cpg g = series_of_conditions(20);
  PathEnumerator en(g);
  for (int i = 0; i < 8; ++i) {
    const auto path = en.next();
    ASSERT_TRUE(path.has_value());
    // The first leaf decides every condition (true-first DFS descends the
    // all-true branch); label size equals the region count.
    EXPECT_EQ(path->label.size(), 20u);
  }
  EXPECT_EQ(en.produced(), 8u);
}

TEST(PathEnumerator, CountPathsStopsAtTheLimit) {
  const Cpg small = series_of_conditions(6);
  EXPECT_EQ(count_paths(small), std::optional<std::size_t>(64));
  EXPECT_EQ(count_paths(small, 64), std::optional<std::size_t>(64));
  EXPECT_FALSE(count_paths(small, 63).has_value());
  // On the huge graph the limited count returns quickly.
  const Cpg huge = series_of_conditions(20);
  EXPECT_FALSE(count_paths(huge, 1000).has_value());
}

TEST(PathEnumerator, DriverPathBudgetTripsBeforeMaterializing) {
  const Cpg g = series_of_conditions(12);  // 4096 paths
  CoSynthesisOptions options;
  options.max_paths = 64;
  EXPECT_THROW(schedule_cpg(g, options), BudgetExceededError);
  // A graph within the budget still co-synthesizes.
  const Cpg ok = series_of_conditions(3);
  options.max_paths = 8;
  EXPECT_EQ(schedule_cpg(ok, options).paths.size(), 8u);
}

}  // namespace
}  // namespace cps
