// Shared helpers for the condsched test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cond/cube.hpp"
#include "cpg/builder.hpp"
#include "cpg/flat_graph.hpp"
#include "io/table_csv.hpp"
#include "sched/merge.hpp"
#include "sched/schedule.hpp"
#include "support/random.hpp"

namespace cps::testing {

/// Random cube over conditions [shift, shift + universe): each condition
/// is absent / positive / negative with equal probability. `shift` >=
/// Cube::kPackedBits exercises the wide slow-path representation.
inline Cube random_cube(Rng& rng, std::size_t universe, CondId shift = 0) {
  Cube c;
  for (CondId i = 0; i < universe; ++i) {
    const auto roll = rng.index(3);
    if (roll == 0) continue;
    c = *c.conjoin(Literal{static_cast<CondId>(i + shift), roll == 1});
  }
  return c;
}

/// A small architecture: two processors, one ASIC, one bus, tau0 = 1.
inline Architecture small_arch() {
  Architecture arch;
  arch.add_processor("cpu1");
  arch.add_processor("cpu2");
  arch.add_hardware("hw");
  arch.add_bus("bus");
  arch.set_cond_broadcast_time(1);
  return arch;
}

/// `regions` independent two-way condition regions in series on
/// small_arch(): 2^regions alternative paths from 4 * regions + 2
/// processes — the maximum-depth condition chain for its size.
inline Cpg series_of_conditions(std::size_t regions) {
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

/// FNV-1a 64 of a table's CSV rendering.
inline std::uint64_t table_digest(const ScheduleTable& table) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : table_csv_string(table)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// A merged table pinned as its CSV digest plus the eight MergeStats
/// counters the walk can move (the speculative pair is always 0).
struct MergeGolden {
  std::uint64_t csv_digest;
  std::size_t backsteps;
  std::size_t adjustments;
  std::size_t locks;
  std::size_t conflicts;
  std::size_t conflict_moves;
  std::size_t unresolved_conflicts;
  std::size_t relaxed_locks;
  std::size_t column_clashes;

  friend bool operator==(const MergeGolden& a, const MergeGolden& b) {
    return a.csv_digest == b.csv_digest && a.backsteps == b.backsteps &&
           a.adjustments == b.adjustments && a.locks == b.locks &&
           a.conflicts == b.conflicts &&
           a.conflict_moves == b.conflict_moves &&
           a.unresolved_conflicts == b.unresolved_conflicts &&
           a.relaxed_locks == b.relaxed_locks &&
           a.column_clashes == b.column_clashes;
  }
  friend std::ostream& operator<<(std::ostream& os, const MergeGolden& g) {
    return os << std::hex << "{0x" << g.csv_digest << std::dec << ", "
              << g.backsteps << ", " << g.adjustments << ", " << g.locks
              << ", " << g.conflicts << ", " << g.conflict_moves << ", "
              << g.unresolved_conflicts << ", " << g.relaxed_locks << ", "
              << g.column_clashes << "}";
  }
};

inline MergeGolden golden_of(const ScheduleTable& table,
                             const MergeStats& s) {
  return MergeGolden{table_digest(table), s.backsteps, s.adjustments, s.locks,
                     s.conflicts, s.conflict_moves, s.unresolved_conflicts,
                     s.relaxed_locks, s.column_clashes};
}

/// Physical-realizability check for a PathSchedule: dependencies among
/// active tasks respected, sequential resources exclusive, every active
/// task scheduled exactly once.
inline void expect_schedule_invariants(const FlatGraph& fg,
                                       const PathSchedule& sched,
                                       const std::vector<bool>& active) {
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    if (active[t]) {
      ASSERT_TRUE(sched.scheduled(t))
          << "active task " << fg.task(t).name << " is unscheduled";
      EXPECT_EQ(sched.slot(t).end - sched.slot(t).start,
                fg.task(t).duration)
          << fg.task(t).name;
    } else {
      EXPECT_FALSE(sched.scheduled(t))
          << "inactive task " << fg.task(t).name << " is scheduled";
    }
  }
  // Dependencies.
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    if (!active[t]) continue;
    for (EdgeId e : fg.deps().in_edges(t)) {
      const TaskId pred = fg.deps().edge(e).src;
      if (!active[pred]) continue;
      EXPECT_LE(sched.slot(pred).end, sched.slot(t).start)
          << fg.task(pred).name << " -> " << fg.task(t).name;
    }
  }
  // Mutual exclusion.
  for (TaskId a = 0; a < fg.task_count(); ++a) {
    if (!active[a]) continue;
    for (TaskId b = a + 1; b < fg.task_count(); ++b) {
      if (!active[b]) continue;
      const Slot& sa = sched.slot(a);
      const Slot& sb = sched.slot(b);
      if (sa.resource != sb.resource) continue;
      if (!fg.arch().pe(sa.resource).sequential()) continue;
      EXPECT_FALSE(sa.start < sb.end && sb.start < sa.end)
          << fg.task(a).name << " overlaps " << fg.task(b).name << " on "
          << fg.arch().pe(sa.resource).name;
    }
  }
}

}  // namespace cps::testing
