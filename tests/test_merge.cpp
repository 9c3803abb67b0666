#include <gtest/gtest.h>

#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "models/fig1.hpp"
#include "sched/driver.hpp"
#include "test_util.hpp"

namespace cps {
namespace {

using testing::small_arch;

TEST(Merge, SinglePathGraphReproducesItsSchedule) {
  CpgBuilder b(small_arch());
  const ProcessId p1 = b.add_process("P1", 0, 3);
  const ProcessId p2 = b.add_process("P2", 1, 4);
  b.add_edge(p1, p2, 2);
  const Cpg g = b.build();
  const CoSynthesisResult r = schedule_cpg(g);
  EXPECT_EQ(r.paths.size(), 1u);
  EXPECT_EQ(r.delays.delta_m, r.delays.delta_max);
  EXPECT_EQ(r.merge_stats.backsteps, 0u);
  EXPECT_EQ(r.merge_stats.conflicts, 0u);
  // Every entry sits in the unconditional column.
  for (TaskId t = 0; t < r.flat_graph().task_count(); ++t) {
    for (const TableEntry& e : r.table.row(t)) {
      EXPECT_TRUE(e.column.is_true());
    }
  }
}

TEST(Merge, TwoPathTableIsValidAndTight) {
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 1, 6);
  const ProcessId p3 = b.add_process("P3", 1, 2);
  const ProcessId p4 = b.add_process("P4", 1, 1);
  b.add_cond_edge(p1, p2, Literal{c, true}, 2);
  b.add_cond_edge(p1, p3, Literal{c, false}, 2);
  b.add_edge(p2, p4);
  b.add_edge(p3, p4);
  b.mark_conjunction(p4);
  const Cpg g = b.build();
  const CoSynthesisResult r = schedule_cpg(g);  // validates internally
  EXPECT_EQ(r.paths.size(), 2u);
  EXPECT_EQ(r.merge_stats.backsteps, 1u);
  EXPECT_GE(r.delays.delta_max, r.delays.delta_m);
  // The longest path must not be perturbed at all (merge rule 1).
  std::size_t longest = 0;
  for (std::size_t i = 1; i < r.paths.size(); ++i) {
    if (r.delays.path_optimal[i] > r.delays.path_optimal[longest]) {
      longest = i;
    }
  }
  EXPECT_EQ(r.delays.path_actual[longest], r.delays.path_optimal[longest]);
}

TEST(Merge, Fig1TableSatisfiesAllRequirements) {
  const Cpg g = build_fig1_cpg();
  const CoSynthesisResult r = schedule_cpg(g);  // throws if invalid
  const TableValidation v =
      validate_table(r.flat_graph(), r.table, r.paths);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations.front());
  EXPECT_EQ(r.merge_stats.backsteps, 5u);  // 6 paths -> 5 back-steps
  EXPECT_EQ(r.merge_stats.unresolved_conflicts, 0u);
  EXPECT_EQ(r.merge_stats.column_clashes, 0u);
}

TEST(Merge, LongestReachablePathKeepsItsOptimalDelay) {
  // The merging strategy guarantees the overall longest path executes in
  // exactly delta_M.
  const Cpg g = build_fig1_cpg();
  const CoSynthesisResult r = schedule_cpg(g);
  std::size_t longest = 0;
  for (std::size_t i = 1; i < r.paths.size(); ++i) {
    if (r.delays.path_optimal[i] > r.delays.path_optimal[longest]) {
      longest = i;
    }
  }
  EXPECT_EQ(r.delays.path_actual[longest], r.delays.path_optimal[longest]);
}

TEST(Merge, DeterministicAcrossRuns) {
  const Cpg g1 = build_fig1_cpg();
  const Cpg g2 = build_fig1_cpg();
  const CoSynthesisResult a = schedule_cpg(g1);
  const CoSynthesisResult b = schedule_cpg(g2);
  EXPECT_EQ(a.delays.delta_max, b.delays.delta_max);
  EXPECT_EQ(a.table.entry_count(), b.table.entry_count());
  for (TaskId t = 0; t < a.flat_graph().task_count(); ++t) {
    ASSERT_EQ(a.table.row(t).size(), b.table.row(t).size());
    for (std::size_t i = 0; i < a.table.row(t).size(); ++i) {
      EXPECT_EQ(a.table.row(t)[i].column, b.table.row(t)[i].column);
      EXPECT_EQ(a.table.row(t)[i].start, b.table.row(t)[i].start);
    }
  }
}

TEST(Merge, SelectionPolicyChangesOutcome) {
  // Shortest-first is the anti-heuristic: it must never beat
  // longest-first on delta_max (and usually loses).
  const Cpg g = build_fig1_cpg();
  CoSynthesisOptions longest;
  CoSynthesisOptions shortest;
  shortest.merge.selection = PathSelection::kShortestFirst;
  const CoSynthesisResult a = schedule_cpg(g, longest);
  const CoSynthesisResult b = schedule_cpg(g, shortest);
  EXPECT_LE(a.delays.delta_max, b.delays.delta_max);
}

TEST(Merge, CrossResourceConditionIsUnknownWithoutBroadcast) {
  // Regression test for the condition-knowledge-time rule of column_for:
  // on a multi-PE model a condition value reaches another resource only
  // through its broadcast task. When the broadcast is not scheduled the
  // value never crosses, and start times on that resource must not be
  // fixed in columns claiming the condition is known there. The buggy
  // fallback assumed instant cross-resource visibility (disjunction end
  // time), which put X's activation into column "C" even though C is
  // computed on another PE and never broadcast.
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const ProcessId d = b.add_process("D", 0, 2);   // computes C on cpu1
  const ProcessId pt = b.add_process("T", 0, 1);  // true branch, cpu1
  const ProcessId pf = b.add_process("F", 0, 1);  // false branch, cpu1
  const ProcessId px = b.add_process("X", 1, 3);  // independent, cpu2
  b.add_cond_edge(d, pt, Literal{c, true});
  b.add_cond_edge(d, pf, Literal{c, false});
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  ASSERT_TRUE(fg.broadcasts_enabled());

  const TaskId task_d = fg.task_of_process(d);
  const TaskId task_t = fg.task_of_process(pt);
  const TaskId task_f = fg.task_of_process(pf);
  const TaskId task_x = fg.task_of_process(px);
  const TaskId task_src = fg.source_task();
  const TaskId task_sink = fg.sink_task();

  // Hand-built path schedules that *omit the broadcast task*: C's value
  // stays on cpu1. X starts at 5, after the disjunction's end (2), which
  // is exactly where the buggy fallback claimed C was already known on
  // cpu2.
  std::vector<AltPath> paths = enumerate_paths(g);
  ASSERT_EQ(paths.size(), 2u);
  // Put the true path first for readability.
  if (paths[0].label.value_of(c) != true) std::swap(paths[0], paths[1]);
  std::vector<PathSchedule> schedules(2, PathSchedule(fg.task_count()));
  // True path (the longer one; merged first).
  schedules[0].place(task_src, 0, 0, 0);
  schedules[0].place(task_d, 0, 2, 0);
  schedules[0].place(task_t, 2, 3, 0);
  schedules[0].place(task_x, 5, 8, 1);
  schedules[0].place(task_sink, 8, 8, 0);
  // False path.
  schedules[1].place(task_src, 0, 0, 0);
  schedules[1].place(task_d, 0, 2, 0);
  schedules[1].place(task_f, 2, 3, 0);
  schedules[1].place(task_x, 3, 6, 1);
  schedules[1].place(task_sink, 6, 6, 0);

  const MergeResult merged = merge_schedules(fg, paths, schedules);

  // X's activation from the true-path schedule must sit in the
  // unconditional column: C is not (and will never be) known on cpu2.
  bool found_unconditional = false;
  for (const TableEntry& e : merged.table.row(task_x)) {
    EXPECT_NE(e.column.value_of(c), true)
        << "column claims C is known on cpu2 at t=" << e.start
        << " without a scheduled broadcast";
    if (e.column.is_true() && e.start == 5) found_unconditional = true;
  }
  EXPECT_TRUE(found_unconditional);
  // The same-resource column is unaffected: T runs on the PE that
  // computes C, so its activation legitimately lives in column "C".
  ASSERT_EQ(merged.table.row(task_t).size(), 1u);
  EXPECT_EQ(merged.table.row(task_t)[0].column, Cube(Literal{c, true}));
}

struct MergeSweepParam {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t paths;
  TimeDistribution dist;
};

class MergeSweep : public ::testing::TestWithParam<MergeSweepParam> {};

TEST_P(MergeSweep, TablesAreCoherentOnRandomGraphs) {
  const MergeSweepParam param = GetParam();
  Rng rng(param.seed);
  const Architecture arch = generate_random_architecture(rng);
  RandomCpgParams params;
  params.process_count = param.nodes;
  params.path_count = param.paths;
  params.distribution = param.dist;
  const Cpg g = generate_random_cpg(arch, params, rng);

  const CoSynthesisResult r = schedule_cpg(g);  // validates internally
  EXPECT_EQ(r.paths.size(), param.paths);
  EXPECT_GE(r.delays.delta_max, r.delays.delta_m);
  EXPECT_EQ(r.merge_stats.backsteps, param.paths - 1);
  EXPECT_EQ(r.merge_stats.column_clashes, 0u);
  // The longest path keeps its optimal delay.
  std::size_t longest = 0;
  for (std::size_t i = 1; i < r.paths.size(); ++i) {
    if (r.delays.path_optimal[i] > r.delays.path_optimal[longest]) {
      longest = i;
    }
  }
  EXPECT_EQ(r.delays.path_actual[longest], r.delays.path_optimal[longest]);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, MergeSweep,
    ::testing::Values(
        MergeSweepParam{11, 20, 4, TimeDistribution::kUniform},
        MergeSweepParam{12, 30, 6, TimeDistribution::kUniform},
        MergeSweepParam{13, 30, 10, TimeDistribution::kExponential},
        MergeSweepParam{14, 40, 12, TimeDistribution::kUniform},
        MergeSweepParam{15, 40, 8, TimeDistribution::kExponential},
        MergeSweepParam{16, 50, 16, TimeDistribution::kUniform},
        MergeSweepParam{17, 25, 5, TimeDistribution::kExponential},
        MergeSweepParam{18, 60, 18, TimeDistribution::kUniform},
        MergeSweepParam{19, 35, 24, TimeDistribution::kUniform},
        MergeSweepParam{20, 45, 7, TimeDistribution::kExponential}));


// ---------------------------------------------------------------------
// Conflict-handling machinery (§5.2). Under the paper's own parameters
// (tau0 at most every communication time, one uniform per-path priority
// function) conflicts are rare; a stress regime — slow broadcasts plus
// divergent per-path priorities — exercises the Theorem-2 moves.
// ---------------------------------------------------------------------

namespace {

Cpg stress_graph(std::uint64_t seed, std::size_t paths_n) {
  Rng rng(seed);
  RandomArchParams ap;
  ap.cond_broadcast_time = 6;  // slow broadcasts: knowledge lags
  const Architecture arch = generate_random_architecture(rng, ap);
  RandomCpgParams params;
  params.process_count = 30;
  params.path_count = paths_n;
  params.comm_min = 6;
  params.comm_max = 20;
  return generate_random_cpg(arch, params, rng);
}

CoSynthesisResult stress_merge(const Cpg& g) {
  CoSynthesisOptions o;
  o.path_priority = PriorityPolicy::kRandom;  // divergent path schedules
  o.validate = false;  // coherence is checked by the test itself
  return schedule_cpg(g, o);
}

}  // namespace

TEST(MergeConflicts, TheoremTwoMovesProduceCoherentTables) {
  // Seeds known to trigger §5.2 conflicts that are resolved by moving the
  // process to a previously fixed activation time (Theorem 2).
  std::size_t exercised = 0;
  for (const std::uint64_t seed : {13u, 60u}) {
    SCOPED_TRACE(seed);
    const Cpg g = stress_graph(seed, 6 + (seed % 3) * 6);
    CoSynthesisOptions o;
    o.path_priority = PriorityPolicy::kRandom;
    const CoSynthesisResult r = schedule_cpg(g, o);  // validates
    if (r.merge_stats.conflict_moves > 0) ++exercised;
    EXPECT_EQ(r.merge_stats.unresolved_conflicts, 0u);
  }
  EXPECT_GT(exercised, 0u) << "expected at least one Theorem-2 move";
}

TEST(MergeConflicts, IncoherenceIsNeverSilent) {
  // On the stress regime a small fraction of merges falls outside the
  // premises of the paper's Theorem 2 (a bus has to react to contexts it
  // cannot distinguish yet). Whenever that happens the merge must have
  // reported unresolved conflicts or clashes — an incoherent table never
  // goes unnoticed — and coherent stats must mean a valid table.
  std::size_t incoherent = 0;
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const Cpg g = stress_graph(seed, 6 + (seed % 3) * 6);
    const CoSynthesisResult r = stress_merge(g);
    const TableValidation v =
        validate_table(r.flat_graph(), r.table, r.paths);
    const bool reported = r.merge_stats.unresolved_conflicts > 0 ||
                          r.merge_stats.column_clashes > 0;
    EXPECT_EQ(v.ok, !reported);
    if (!v.ok) ++incoherent;
    ++total;
  }
  // The corner stays rare even under stress.
  EXPECT_LE(incoherent, total / 10);
}

TEST(MergeConflicts, PaperParametersNeverLeaveConflictsUnresolved) {
  // Under the paper's own parameter regime (tau0 = 1 <= every
  // communication time, critical-path priorities) the generated tables
  // are always coherent.
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const Architecture arch = generate_random_architecture(rng);
    RandomCpgParams params;
    params.process_count = 40;
    params.path_count = 6 + (seed % 4) * 6;
    const Cpg g = generate_random_cpg(arch, params, rng);
    const CoSynthesisResult r = schedule_cpg(g);  // validate = true
    EXPECT_EQ(r.merge_stats.unresolved_conflicts, 0u);
    EXPECT_EQ(r.merge_stats.column_clashes, 0u);
  }
}

// ---------------------------------------------------------------------
// Golden outputs: the exact table (as a digest of its CSV rendering) and
// the eight MergeStats counters of every merge, pinned for Fig. 1, 100
// seeded random CPGs and the kRandom-priority stress family above. Any
// change to the walk's output — a different lock, conflict move or start
// time — shows up here.
// ---------------------------------------------------------------------

namespace {

using testing::golden_of;
using testing::MergeGolden;

/// Critical-path per-path schedules merged with the default options.
MergeGolden merge_golden(const Cpg& g) {
  const FlatGraph fg = FlatGraph::expand(g);
  std::vector<AltPath> paths;
  std::vector<PathSchedule> schedules;
  CoverCache cache;
  PathEnumerator en(g);
  while (auto path = en.next()) {
    paths.push_back(std::move(*path));
    schedules.push_back(schedule_path(
        fg, paths.back(), PriorityPolicy::kCriticalPath, nullptr, &cache));
  }
  const MergeResult r = merge_schedules(fg, paths, schedules);
  EXPECT_TRUE(r.ok) << r.error;
  return golden_of(r.table, r.stats);
}

constexpr MergeGolden kFig1Golden = {0xd38249b87a5ba51bull, 5, 5, 59, 0,
                                     0, 0, 0, 0};

/// Seeds 1..100 of SeededRandomCpgsMatchTheirGoldens, in order.
constexpr MergeGolden kSeededGoldens[] = {
    {0xfc9b9e575e89c959ull, 6, 6, 65, 0, 0, 0, 0, 0},
    {0x0ac499e53470c746ull, 9, 9, 349, 0, 0, 0, 0, 0},
    {0x19a560209f93e385ull, 12, 12, 232, 0, 0, 0, 0, 0},
    {0xba2f2a62e16c4f0dull, 15, 15, 371, 0, 0, 0, 0, 0},
    {0xbb4fb8f3145bf40eull, 3, 3, 41, 0, 0, 0, 0, 0},
    {0xa1114bc3291035a5ull, 6, 6, 104, 0, 0, 0, 0, 0},
    {0x907f7e8de2a71780ull, 9, 9, 154, 0, 0, 0, 0, 0},
    {0x3e882451700662ffull, 12, 12, 125, 0, 0, 0, 0, 0},
    {0x01e47b9ce56d6baeull, 15, 15, 261, 0, 0, 0, 0, 0},
    {0xaab7c865a61d67c2ull, 3, 3, 24, 0, 0, 0, 0, 0},
    {0xf6fd957868d0ae4eull, 6, 6, 80, 0, 0, 0, 0, 0},
    {0x2d2c0f0986ca06edull, 9, 9, 80, 0, 0, 0, 0, 0},
    {0xbb5b38d53c80e30eull, 12, 12, 209, 0, 0, 0, 0, 0},
    {0x0a296c9e9f64b9f4ull, 15, 15, 307, 0, 0, 0, 0, 0},
    {0x11764f6ad263e2aaull, 3, 3, 131, 0, 0, 0, 0, 0},
    {0xdcf66b8de6b01ce9ull, 6, 6, 62, 0, 0, 0, 0, 0},
    {0x0a5f61463b907357ull, 9, 9, 133, 0, 0, 0, 0, 0},
    {0x06685b182ee772dfull, 12, 12, 195, 0, 0, 0, 0, 0},
    {0xf7d02cd66fdbca19ull, 15, 15, 358, 0, 0, 0, 0, 0},
    {0x70e1f534412922cbull, 3, 3, 35, 0, 0, 0, 0, 0},
    {0xcebac8b8f245b13bull, 6, 6, 86, 0, 0, 0, 0, 0},
    {0x45d902cb77a019fcull, 9, 9, 345, 0, 0, 0, 0, 0},
    {0x3baa1d8280a1c47full, 12, 12, 245, 0, 0, 0, 0, 0},
    {0x660b969529210d5full, 15, 15, 264, 0, 0, 0, 0, 0},
    {0xb20467a075c66c64ull, 3, 3, 46, 0, 0, 0, 0, 0},
    {0x98fa38d531cf96cfull, 6, 6, 83, 0, 0, 0, 0, 0},
    {0x8a4e822a94909f2bull, 9, 9, 243, 0, 0, 0, 0, 0},
    {0x6e5a6dce73058dc6ull, 12, 12, 153, 0, 0, 0, 0, 0},
    {0x34e4a048a5e354a7ull, 15, 15, 237, 0, 0, 0, 0, 0},
    {0x5504f3eb76002876ull, 3, 3, 56, 0, 0, 0, 0, 0},
    {0xa052b8ed5fc2c67cull, 6, 6, 60, 0, 0, 0, 0, 0},
    {0x99ac44f74f2a1d0aull, 9, 9, 131, 0, 0, 0, 0, 0},
    {0xcbe8e4cf2f407d18ull, 12, 12, 143, 0, 0, 0, 0, 0},
    {0x72786cf67ef7a94aull, 15, 15, 330, 0, 0, 0, 0, 0},
    {0xf8ea3e1dc54f6c7cull, 3, 3, 98, 0, 0, 0, 0, 0},
    {0x7db7ebf55639db19ull, 6, 6, 61, 0, 0, 0, 0, 0},
    {0xa0f8aa33a2a59afbull, 9, 9, 118, 0, 0, 0, 0, 0},
    {0xb506b3bf0e6df397ull, 12, 12, 176, 0, 0, 0, 0, 0},
    {0xa44d622ced556564ull, 15, 15, 670, 0, 0, 0, 0, 0},
    {0xd510a1eef0f77f2eull, 3, 3, 28, 0, 0, 0, 0, 0},
    {0x6b6148474263017dull, 6, 6, 72, 0, 0, 0, 0, 0},
    {0x12593ea7534da8aaull, 9, 9, 106, 0, 0, 0, 0, 0},
    {0xb6ec5407ca1bc277ull, 12, 12, 335, 0, 0, 0, 0, 0},
    {0x008fbd8f9aaeb5b6ull, 15, 15, 221, 0, 0, 0, 0, 0},
    {0x0ec6a68752a4fd32ull, 3, 3, 49, 0, 0, 0, 0, 0},
    {0x159e210e6803f31aull, 6, 6, 76, 0, 0, 0, 0, 0},
    {0x04d2a2bc1d630899ull, 9, 9, 270, 0, 0, 0, 0, 0},
    {0x06e05d9fc6926649ull, 12, 12, 130, 0, 0, 0, 0, 0},
    {0x2328b87fc66695e0ull, 15, 15, 298, 0, 0, 0, 0, 0},
    {0x6ff0d053e226d489ull, 3, 3, 41, 0, 0, 0, 0, 0},
    {0x39e02627a79095ccull, 6, 6, 77, 0, 0, 0, 0, 0},
    {0x954708cd8a472700ull, 9, 9, 143, 0, 0, 0, 0, 0},
    {0xfea9bdef416ea77aull, 12, 12, 211, 0, 0, 0, 0, 0},
    {0xc39ba76424749a6bull, 15, 15, 557, 0, 0, 0, 0, 0},
    {0xb7ae396ce4101b52ull, 3, 3, 66, 0, 0, 0, 0, 0},
    {0x9af2e8cba6275fd3ull, 6, 6, 66, 0, 0, 0, 0, 0},
    {0xa35e14aa617fff3aull, 9, 9, 60, 0, 0, 0, 0, 0},
    {0xdb91425f25aed757ull, 12, 12, 160, 0, 0, 0, 0, 0},
    {0x771d6e0da657bdffull, 15, 15, 386, 0, 0, 0, 0, 0},
    {0x2dc75f0efe823b87ull, 3, 3, 26, 0, 0, 0, 0, 0},
    {0x3ddf5f3bbbdada2aull, 6, 6, 68, 0, 0, 0, 0, 0},
    {0x50bce3def50cef98ull, 9, 9, 245, 0, 0, 0, 0, 0},
    {0xb2cb869b7268b2a1ull, 12, 12, 176, 0, 0, 0, 0, 0},
    {0x6cf1e22c863c4ce2ull, 15, 15, 328, 0, 0, 0, 0, 0},
    {0x9ba0789e02c41507ull, 3, 3, 28, 0, 0, 0, 0, 0},
    {0xb865eeaa0114800aull, 6, 6, 72, 0, 0, 0, 0, 0},
    {0x8c06760c1b531531ull, 9, 9, 197, 0, 0, 0, 0, 0},
    {0xf8e55fc53705dde8ull, 12, 12, 141, 0, 0, 0, 0, 0},
    {0xcac049971ced627aull, 15, 15, 227, 0, 0, 0, 0, 0},
    {0x2779bdbb2b4fd033ull, 3, 3, 61, 0, 0, 0, 0, 0},
    {0xa42a645cb3d48a17ull, 6, 6, 97, 0, 0, 0, 0, 0},
    {0xe8b7159ddd3e0941ull, 9, 9, 206, 0, 0, 0, 0, 0},
    {0xe578754ef30a39beull, 12, 12, 254, 0, 0, 0, 0, 0},
    {0x95729cbac5bf8b54ull, 15, 15, 542, 0, 0, 0, 0, 0},
    {0x91c77d4c93691ceeull, 3, 3, 26, 0, 0, 0, 0, 0},
    {0xaa1017c90d2df70aull, 6, 6, 67, 0, 0, 0, 0, 0},
    {0x7ae363dd5ca26f2eull, 9, 9, 154, 0, 0, 0, 0, 0},
    {0xa1d616c3000f53c4ull, 12, 12, 133, 0, 0, 0, 0, 0},
    {0x2aa2a35ac1dc6314ull, 15, 15, 319, 0, 0, 0, 0, 0},
    {0xc79d438bf0aa99cbull, 3, 3, 18, 0, 0, 0, 0, 0},
    {0x98e02c344807c58bull, 6, 6, 68, 0, 0, 0, 0, 0},
    {0x0cdad82281db3396ull, 9, 9, 247, 0, 0, 0, 0, 0},
    {0x429a2617116018ceull, 12, 12, 173, 0, 0, 0, 0, 0},
    {0x2dc963da1666a8f1ull, 15, 15, 315, 0, 0, 0, 0, 0},
    {0xce7203d794258327ull, 3, 3, 22, 0, 0, 0, 0, 0},
    {0x0681d4044ef57e7bull, 6, 6, 64, 0, 0, 0, 0, 0},
    {0xa5d35ac5ea8ee688ull, 9, 9, 302, 0, 0, 0, 0, 0},
    {0xb74a3625ba2c0443ull, 12, 12, 152, 0, 0, 0, 0, 0},
    {0x20e6ad78a35effeaull, 15, 15, 380, 0, 0, 0, 0, 0},
    {0xa10540d454729dfcull, 3, 3, 52, 0, 0, 0, 0, 0},
    {0xfb54685e12f4c1f0ull, 6, 6, 144, 0, 0, 0, 0, 0},
    {0xf27924fb3d314f7aull, 9, 9, 138, 0, 0, 0, 0, 0},
    {0x989fa2e5c46c99e0ull, 12, 12, 154, 0, 0, 0, 0, 0},
    {0x9070160e195b13ffull, 15, 15, 639, 0, 0, 0, 0, 0},
    {0xc6ac1603e3533325ull, 3, 3, 76, 0, 0, 0, 0, 0},
    {0x645760e05d529f6aull, 6, 6, 59, 0, 0, 0, 0, 0},
    {0xa00f3d731ecfb06cull, 9, 9, 185, 0, 0, 0, 0, 0},
    {0x1e241fcfc33b711aull, 12, 12, 139, 0, 0, 0, 0, 0},
    {0x9248f907ea2464c0ull, 15, 15, 398, 0, 0, 0, 0, 0},
    {0x049aca8e9acc3b43ull, 3, 3, 36, 0, 0, 0, 0, 0},
};

/// stress_graph seeds 1..40 under stress_merge, in order.
constexpr MergeGolden kStressGoldens[] = {
    {0xfa555686ac2de04cull, 11, 11, 298, 0, 0, 0, 0, 0},
    {0x60a42e3b86f6418full, 17, 17, 566, 0, 0, 0, 0, 0},
    {0xaf8fe830e532a43aull, 5, 5, 99, 0, 0, 0, 0, 0},
    {0xb0b5f93c75c30c1dull, 11, 11, 266, 0, 0, 0, 0, 0},
    {0x3138d5865a14ecc3ull, 17, 17, 522, 0, 0, 0, 0, 0},
    {0x2a27a26653e4cea5ull, 5, 5, 49, 0, 0, 0, 0, 0},
    {0x09ac46657f12a5d7ull, 11, 11, 186, 0, 0, 0, 0, 0},
    {0xeb2f3c4a0bfd62f2ull, 17, 17, 483, 0, 0, 0, 0, 0},
    {0x7a09424e71450614ull, 5, 5, 117, 0, 0, 0, 0, 0},
    {0x622321c165d88d2bull, 11, 11, 184, 0, 0, 0, 0, 0},
    {0x0618caaee8f90695ull, 17, 17, 453, 0, 0, 0, 0, 0},
    {0xaffbc920acc89fb8ull, 5, 5, 85, 0, 0, 0, 0, 0},
    {0x2ca158299585b14bull, 11, 11, 169, 3, 3, 0, 0, 0},
    {0x5e2badfa7d159665ull, 17, 17, 211, 0, 0, 0, 0, 0},
    {0xda700430ae773e06ull, 5, 5, 109, 2, 0, 2, 2, 0},
    {0x24d70beffc2e4d4dull, 11, 11, 123, 0, 0, 0, 0, 0},
    {0x271829ce1fe316c1ull, 17, 17, 214, 0, 0, 0, 0, 0},
    {0x24c9f92a5a8dcd1full, 5, 5, 107, 0, 0, 0, 0, 0},
    {0x1ab7e9268b159ebcull, 11, 11, 254, 0, 0, 0, 0, 0},
    {0x9a9fd9b5d3e0109dull, 17, 17, 437, 0, 0, 0, 0, 0},
    {0x9aa453a57b3d2ee8ull, 5, 5, 86, 0, 0, 0, 0, 0},
    {0x063dbf21d3a6823eull, 11, 11, 364, 0, 0, 0, 0, 0},
    {0x5db0787aa0f27b67ull, 17, 17, 557, 0, 0, 0, 0, 0},
    {0xdd602eaaebaecbb9ull, 5, 5, 91, 0, 0, 0, 0, 0},
    {0x5548d8771bdf0ad1ull, 11, 11, 307, 0, 0, 0, 0, 0},
    {0xe7b87cca44e6be2bull, 17, 17, 413, 0, 0, 0, 0, 0},
    {0xa91bbf5c7b60abf5ull, 5, 5, 82, 0, 0, 0, 0, 0},
    {0x4b64f532d4285774ull, 11, 11, 234, 0, 0, 0, 0, 0},
    {0x7c0f9d3f7766bb88ull, 17, 17, 226, 0, 0, 0, 0, 0},
    {0x2a3651f8484a7211ull, 5, 5, 107, 0, 0, 0, 0, 0},
    {0xf094052d8997068cull, 11, 11, 172, 0, 0, 0, 0, 0},
    {0x33db80a2b5e7572dull, 17, 17, 594, 0, 0, 0, 0, 0},
    {0x0835e91491d04190ull, 5, 5, 90, 0, 0, 0, 0, 0},
    {0x0708bced0056de8aull, 11, 11, 241, 0, 0, 0, 0, 0},
    {0x246eb7b5d1edf628ull, 17, 17, 488, 0, 0, 0, 0, 0},
    {0x48882a8ca33b818cull, 5, 5, 68, 0, 0, 0, 0, 0},
    {0x162c1bcc56e0967dull, 11, 11, 176, 0, 0, 0, 0, 0},
    {0x50ef6ac5a61f93fcull, 17, 17, 419, 0, 0, 0, 0, 0},
    {0xf033d376f0ad44d8ull, 5, 5, 105, 0, 0, 0, 0, 0},
    {0xae12099cca6436a7ull, 11, 11, 389, 0, 0, 0, 0, 0},
};

}  // namespace

TEST(MergeGolden, Fig1MatchesItsGolden) {
  EXPECT_EQ(merge_golden(build_fig1_cpg()), kFig1Golden);
}

TEST(MergeGolden, SeededRandomCpgsMatchTheirGoldens) {
  // The paper's architecture distribution (1-11 processors + ASIC + 1-8
  // buses: virtually always multi-PE, so broadcast knowledge lag is
  // exercised), with varying sizes, path counts and distributions.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const Architecture arch = generate_random_architecture(rng);
    RandomCpgParams params;
    params.process_count = 20 + (seed % 4) * 10;
    params.path_count = 4 + (seed % 5) * 3;
    params.distribution = (seed % 2) == 0 ? TimeDistribution::kUniform
                                          : TimeDistribution::kExponential;
    const Cpg g = generate_random_cpg(arch, params, rng);
    EXPECT_EQ(merge_golden(g), kSeededGoldens[seed - 1]);
  }
}

TEST(MergeGolden, RandomPriorityStressFamilyMatchesItsGoldens) {
  // Divergent per-path schedules plus slow broadcasts: the family that
  // reaches §5.2 conflict resolution and the lock-relaxation loop.
  std::size_t conflict_moves = 0;
  std::size_t relaxed_locks = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Cpg g = stress_graph(seed, 6 + (seed % 3) * 6);
    const CoSynthesisResult r = stress_merge(g);
    EXPECT_EQ(golden_of(r.table, r.merge_stats), kStressGoldens[seed - 1]);
    conflict_moves += r.merge_stats.conflict_moves;
    relaxed_locks += r.merge_stats.relaxed_locks;
  }
  // The pins only guard resolve_conflicts and the relaxation loop while
  // the family still reaches them.
  EXPECT_GT(conflict_moves, 0u);
  EXPECT_GT(relaxed_locks, 0u);
}

}  // namespace
}  // namespace cps
