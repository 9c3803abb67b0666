// ScheduleTable: the output of the merging algorithm (paper §3).
//
// One row per task (ordinary process, communication process, condition
// broadcast); each cell holds an activation time valid when the cube
// heading its column is true. The coherence requirements 1-4 of paper §3
// are checked by sched/table_validate.hpp.
//
// Lookup structure: each row is a plain vector of its cells in insertion
// order (the deterministic order the merge produces and every equivalence
// guarantee compares), and every query scans it. A row holds at most one
// cell per merged schedule — 2-5 on the paper's graphs, about 15 at 64-128
// paths — so a scan of packed column masks costs less than maintaining a
// per-row index. Tests re-derive every query with the cube API and
// compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpg/flat_graph.hpp"
#include "support/error.hpp"

namespace cps {

struct TableEntry {
  /// Column header: conjunction of condition values known, at the start
  /// time, on the resource executing the task.
  Cube column;
  Time start = 0;
  /// Resource the activation refers to (differs from Task::resource only
  /// for broadcasts, which pick a bus per path).
  PeId resource = 0;

  friend bool operator==(const TableEntry& a, const TableEntry& b) {
    return a.column == b.column && a.start == b.start &&
           a.resource == b.resource;
  }
  friend bool operator!=(const TableEntry& a, const TableEntry& b) {
    return !(a == b);
  }
};

enum class AddEntryResult {
  kAdded,      ///< new cell
  kDuplicate,  ///< identical (column, start, resource) already present
  kClash,      ///< same column already present with a different start —
               ///< a requirement-2 violation the merge could not avoid
};

class ScheduleTable {
 public:
  explicit ScheduleTable(const FlatGraph& fg);

  const FlatGraph& flat_graph() const { return *fg_; }

  std::size_t row_count() const { return rows_.size(); }
  const std::vector<TableEntry>& row(TaskId t) const;

  AddEntryResult add_entry(TaskId t, const Cube& column, Time start,
                           PeId resource);

  /// Entries of `t` whose column is compatible with `column` but whose
  /// start time or resource differs (the §5.2 conflict set W), sorted by
  /// (start, resource).
  std::vector<TableEntry> conflicting_entries(TaskId t, const Cube& column,
                                              Time start,
                                              PeId resource) const;

  /// `!conflicting_entries(t, column, start, resource).empty()`, without
  /// allocating: the merge's per-placement conflict test.
  bool has_conflict(TaskId t, const Cube& column, Time start,
                    PeId resource) const;

  /// Visit, in insertion order and without allocating, every entry of `t`
  /// whose column is implied by the label — the query matching() and
  /// activation() are built on.
  template <typename Fn>
  void for_each_matching(TaskId t, const Cube& label, Fn&& fn) const;

  /// All entries of `t` whose column is implied by the label (on a
  /// requirement-2-clean table, all agree on one decision).
  std::vector<TableEntry> matching(TaskId t, const Cube& label) const;

  /// Activation of `t` under a complete path label: the unique entry whose
  /// column is implied by the label. Returns nullopt when no entry
  /// applies (task inactive on the path). Throws InternalError when
  /// several applicable entries disagree (a requirement-2 violation);
  /// use matching() when inspecting possibly incoherent tables.
  std::optional<TableEntry> activation(TaskId t, const Cube& label) const;

  /// All distinct column cubes, sorted for display (fewer literals first,
  /// then lexicographically).
  std::vector<Cube> columns() const;

  /// Total number of cells.
  std::size_t entry_count() const;

  /// Cell-wise equality (rows, order and every entry field) — the
  /// canonical check behind the "byte-identical tables" guarantees (tree
  /// vs list walk, heap vs linear-scan engine). Ignores which FlatGraph
  /// instance is referenced.
  friend bool operator==(const ScheduleTable& a, const ScheduleTable& b);
  friend bool operator!=(const ScheduleTable& a, const ScheduleTable& b) {
    return !(a == b);
  }

 private:
  struct Row {
    /// Cells in insertion order — the externally visible row.
    std::vector<TableEntry> entries;
    /// All columns narrow (packed-only)? Cleared by a >64-condition
    /// universe; the mask tests are skipped then.
    bool all_narrow = true;
  };

  const FlatGraph* fg_;
  std::vector<Row> rows_;
};

template <typename Fn>
void ScheduleTable::for_each_matching(TaskId t, const Cube& label,
                                      Fn&& fn) const {
  CPS_REQUIRE(t < rows_.size(), "task id out of range");
  const Row& row = rows_[t];
  if (row.all_narrow && label.narrow()) {
    const std::uint64_t pos = label.pos_bits();
    const std::uint64_t neg = label.neg_bits();
    for (const TableEntry& e : row.entries) {
      if ((e.column.pos_bits() & ~pos) == 0 &&
          (e.column.neg_bits() & ~neg) == 0) {
        fn(e);
      }
    }
    return;
  }
  for (const TableEntry& e : row.entries) {
    if (label.implies(e.column)) fn(e);
  }
}

}  // namespace cps
