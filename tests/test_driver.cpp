// schedule_cpg's per-path walk (paper §4 step 1): one from-scratch
// engine run per alternative path, in enumeration order. Golden rows pin
// the merged tables of trie shapes — a maximum-depth condition chain,
// diamond reconvergence, sibling conditions on distinct PEs and balanced
// deep condition nests — and of the generated shapes the benchmarks run,
// and the max_paths budget and keep_paths are checked on the trie shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sched/batch_driver.hpp"
#include "sched/driver.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace {

using namespace cps;
using cps::testing::golden_of;
using cps::testing::MergeGolden;
using cps::testing::series_of_conditions;
using cps::testing::small_arch;

// CoSynthesisResult::flat points at the graph, so schedule_cpg must not
// take a temporary: a call on an rvalue Cpg does not compile (C++17
// detection idiom), a call on a named graph does.
template <typename Arg, typename = void>
struct SchedulesFrom : std::false_type {};
template <typename Arg>
struct SchedulesFrom<Arg,
                     std::void_t<decltype(schedule_cpg(std::declval<Arg>()))>>
    : std::true_type {};
static_assert(SchedulesFrom<const Cpg&>::value,
              "schedule_cpg takes a named graph");
static_assert(SchedulesFrom<Cpg&>::value, "schedule_cpg takes a named graph");
static_assert(!SchedulesFrom<Cpg>::value,
              "schedule_cpg rejects a temporary graph");
static_assert(!SchedulesFrom<const Cpg>::value,
              "schedule_cpg rejects a const temporary graph");

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

// Deep condition nest: balanced two-arm conditional regions in series,
// arm chains sized so the process count lands near `nodes` and the leaf
// count near `paths`. Both arms of a region share their (randomly drawn)
// durations, so sibling paths share their prefix's critical-path
// priorities.
Cpg deep_nest_cpg(std::size_t nodes, std::size_t paths, Rng& rng) {
  std::size_t regions = 1;
  while ((std::size_t{1} << regions) < paths && regions < 12) ++regions;
  // Two processors + a broadcast bus: regions alternate PEs, so condition
  // values cross resources through broadcast tasks and the engine's
  // per-step work (bus contention, knowledge checks) is realistic.
  Architecture arch;
  arch.add_processor("cpu0");
  arch.add_processor("cpu1");
  arch.add_bus("bus");
  arch.set_cond_broadcast_time(1);
  CpgBuilder b(arch);
  const std::size_t per_arm = std::max<std::size_t>(
      1, (nodes > 2 * regions ? nodes - 2 * regions : regions) /
             (2 * regions));
  std::optional<ProcessId> prev;
  for (std::size_t i = 0; i < regions; ++i) {
    const std::string n = std::to_string(i);
    const PeId pe = static_cast<PeId>(i % 2);
    const CondId c = b.add_condition("C" + n);
    const ProcessId d =
        b.add_process("D" + n, pe, static_cast<Time>(1 + rng.index(6)));
    if (prev) b.add_edge(*prev, d, /*comm_time=*/2);
    std::vector<Time> durations(per_arm);
    for (Time& t : durations) t = static_cast<Time>(1 + rng.index(9));
    const ProcessId join = b.add_process("J" + n, pe, 1);
    for (bool arm : {true, false}) {
      ProcessId head = d;
      for (std::size_t k = 0; k < per_arm; ++k) {
        const ProcessId p =
            b.add_process((arm ? "T" : "F") + n + "_" + std::to_string(k),
                          pe, durations[k]);
        if (k == 0) {
          b.add_cond_edge(head, p, Literal{c, arm});
        } else {
          b.add_edge(head, p);
        }
        head = p;
      }
      b.add_edge(head, join);
    }
    b.mark_conjunction(join);
    prev = join;
  }
  return b.build();
}

// Recorded before the guard-trie walk (checkpoint resume across sibling
// leaves) was deleted; its path-list twin gave the same rows, so these
// also pin the shapes that walk was built for. Each row is the merged
// table's golden (CSV digest and MergeStats counters) plus delta_M and
// delta_max.
TEST(Driver, TrieShapesMatchTheirGoldens) {
  struct Golden {
    std::string name;
    Cpg g;
    MergeGolden merge;
    Time delta_m;
    Time delta_max;
  };
  std::vector<Golden> goldens;
  goldens.push_back({"series_of_conditions(6)", series_of_conditions(6),
                     {0x86d642a9c63b152bull, 63, 63, 1221, 0, 0, 0, 0, 0},
                     18, 18});
  goldens.push_back({"diamond_reconvergence", diamond_reconvergence(),
                     {0xf6de195c47493f4dull, 2, 2, 8, 0, 0, 0, 0, 0},
                     11, 11});
  goldens.push_back({"sibling_conditions_on_distinct_pes",
                     sibling_conditions_on_distinct_pes(),
                     {0x83a3b8440d9a5dcfull, 3, 3, 16, 0, 0, 0, 0, 0},
                     8, 8});
  // deep_nest_cpg(nodes, 128 leaves) on Rng(seed).
  const struct {
    std::size_t nodes;
    std::uint64_t seed;
    MergeGolden merge;
    Time delta;  // delta_M == delta_max on every nest
  } nests[] = {
      {60, 20, {0x92d31b04aaa5740aull, 127, 127, 4875, 0, 0, 0, 0, 0}, 135},
      {60, 21, {0x3943576359b60e25ull, 127, 127, 4875, 0, 0, 0, 0, 0}, 152},
      {60, 22, {0x40001886a4d6ff62ull, 127, 127, 4875, 0, 0, 0, 0, 0}, 140},
      {60, 23, {0x03fc9a55cb011763ull, 127, 127, 4875, 0, 0, 0, 0, 0}, 158},
      {60, 24, {0x07734e3cff7250cdull, 127, 127, 4875, 0, 0, 0, 0, 0}, 157},
      {60, 25, {0xe3e02056fe3a763bull, 127, 127, 4875, 0, 0, 0, 0, 0}, 145},
      {120, 20, {0xf65f5188a7d63b14ull, 127, 127, 7443, 0, 0, 0, 0, 0}, 270},
      {120, 21, {0xfeb79e3b9633b4f9ull, 127, 127, 7443, 0, 0, 0, 0, 0}, 321},
      {120, 22, {0x40b3cc185ae215b2ull, 127, 127, 7443, 0, 0, 0, 0, 0}, 289},
      {120, 23, {0x929bb904ea36c01full, 127, 127, 7443, 0, 0, 0, 0, 0}, 319},
      {120, 24, {0x46b289210fc31e53ull, 127, 127, 7443, 0, 0, 0, 0, 0}, 272},
      {120, 25, {0x31f6f1c4e72d160full, 127, 127, 7443, 0, 0, 0, 0, 0}, 288},
  };
  for (const auto& nest : nests) {
    Rng rng(nest.seed);
    goldens.push_back({"deep_nest_cpg(" + std::to_string(nest.nodes) +
                           ", 128), seed " + std::to_string(nest.seed),
                       deep_nest_cpg(nest.nodes, 128, rng), nest.merge,
                       nest.delta, nest.delta});
  }
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.name);
    const CoSynthesisResult r = schedule_cpg(golden.g);
    EXPECT_EQ(golden_of(r.table, r.merge_stats), golden.merge);
    EXPECT_EQ(r.delays.delta_m, golden.delta_m);
    EXPECT_EQ(r.delays.delta_max, golden.delta_max);
  }
}

/// FNV-1a 64, folded byte by byte.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  void number(std::uint64_t v) { bytes(std::to_string(v) + ';'); }
};

// One digest per generated shape: for every graph of the shape, in index
// order, its table CSV, the eight MergeStats counters the walk can move
// and delta_M/delta_max — or its error, should one fail validation.
// Graph i of shape k is run_batch_item's item i at base seed
// 1000 * (k + 1), so no two shapes share a graph. The shapes are the 30
// cells of the paper's §6 grid (4 graphs each), the wide-shallow
// benchmark's 600 processes x 2/3/4 paths (8 each) and the serve
// benchmark's 80 x 18 (16). Recorded before the merge walk read the
// engine's start order and before validation decided requirements 1 and
// 3 on guard masks.
TEST(Driver, ShapeSweepMatchesItsGolden) {
  struct Shape {
    std::size_t processes;
    std::size_t paths;
    TimeDistribution distribution;
    std::size_t graphs;
    std::uint64_t digest;
  };
  constexpr auto kU = TimeDistribution::kUniform;
  constexpr auto kE = TimeDistribution::kExponential;
  const Shape shapes[] = {
      {60, 10, kU, 4, 0xba874b2acf5259ffull},
      {60, 12, kU, 4, 0x5156e791eb5e77a6ull},
      {60, 18, kU, 4, 0xe10b3eb30751fbe3ull},
      {60, 24, kU, 4, 0xab58adaf9e0c60e3ull},
      {60, 32, kU, 4, 0xd7fa018d323802ebull},
      {60, 10, kE, 4, 0xba71fb98a9027f76ull},
      {60, 12, kE, 4, 0xeeab68017ab7a25aull},
      {60, 18, kE, 4, 0x07612eca0d95bf5aull},
      {60, 24, kE, 4, 0xdf47d48c09db3073ull},
      {60, 32, kE, 4, 0x795484fbb3ec2acdull},
      {80, 10, kU, 4, 0xea42791c2a31d965ull},
      {80, 12, kU, 4, 0x45af341f3e2bc4a2ull},
      {80, 18, kU, 4, 0x2a9916967ec8f4bcull},
      {80, 24, kU, 4, 0x0c776a9a3f0600d8ull},
      {80, 32, kU, 4, 0x853ace59953e0299ull},
      {80, 10, kE, 4, 0x68e730f5842c8ccfull},
      {80, 12, kE, 4, 0x484f994711b62f56ull},
      {80, 18, kE, 4, 0x4dcebd7dc1b8fcb1ull},
      {80, 24, kE, 4, 0x70911e435368dca3ull},
      {80, 32, kE, 4, 0xcc82e2fb48c695adull},
      {120, 10, kU, 4, 0x7f55f0ac7d33a855ull},
      {120, 12, kU, 4, 0xe0659668f7c5ade8ull},
      {120, 18, kU, 4, 0xfe4d706618438467ull},
      {120, 24, kU, 4, 0x138ab9d29d6ac653ull},
      {120, 32, kU, 4, 0x2097e66d1d7e5e6aull},
      {120, 10, kE, 4, 0xae4a83d5df2190dfull},
      {120, 12, kE, 4, 0xbb3c8184585d2f65ull},
      {120, 18, kE, 4, 0x4ab515a112295ef6ull},
      {120, 24, kE, 4, 0x06507c0d8d40c3c6ull},
      {120, 32, kE, 4, 0xbc175f8684dffac0ull},
      {600, 2, kU, 8, 0x8e2c0da4e446530bull},
      {600, 3, kU, 8, 0x37ab971775783a30ull},
      {600, 4, kU, 8, 0x162681b21d12c6beull},
      {80, 18, kU, 16, 0x509262dc975107e5ull},
  };
  for (std::size_t k = 0; k < std::size(shapes); ++k) {
    const Shape& shape = shapes[k];
    BatchConfig config;
    config.base_seed = 1000 * (k + 1);
    config.cpg.process_count = shape.processes;
    config.cpg.path_count = shape.paths;
    config.cpg.distribution = shape.distribution;
    Fnv1a digest;
    for (std::size_t i = 0; i < shape.graphs; ++i) {
      std::string csv;
      const BatchItem item = run_batch_item(config, i, nullptr, {}, &csv);
      if (!item.ok) {
        digest.bytes(item.error);
        continue;
      }
      const MergeStats& s = item.merge;
      digest.bytes(csv);
      for (const std::size_t v :
           {s.backsteps, s.adjustments, s.locks, s.conflicts, s.conflict_moves,
            s.unresolved_conflicts, s.relaxed_locks, s.column_clashes}) {
        digest.number(v);
      }
      digest.number(static_cast<std::uint64_t>(item.delta_m));
      digest.number(static_cast<std::uint64_t>(item.delta_max));
    }
    EXPECT_EQ(digest.h, shape.digest)
        << std::hex << "0x" << digest.h << std::dec << " for "
        << shape.processes << " x " << shape.paths << " "
        << to_string(shape.distribution);
  }
}

TEST(Driver, MaxPathsBudgetTripsMidTrie) {
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

TEST(Driver, KeepPathsOffDropsPayloadKeepsTable) {
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
