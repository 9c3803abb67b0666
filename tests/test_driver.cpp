// schedule_cpg's per-path walk (paper §4 step 1): one from-scratch
// engine run per alternative path, in enumeration order. Golden rows pin
// the merged tables of trie shapes — a maximum-depth condition chain,
// diamond reconvergence, sibling conditions on distinct PEs and balanced
// deep condition nests — and the max_paths budget and keep_paths are
// checked on the same shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

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
