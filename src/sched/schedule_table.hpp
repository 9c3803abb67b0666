// ScheduleTable: the output of the merging algorithm (paper §3).
//
// One row per task (ordinary process, communication process, condition
// broadcast); each cell holds an activation time valid when the cube
// heading its column is true. The coherence requirements 1-4 of paper §3
// are checked by sched/table_validate.hpp.
//
// Lookup structure: each row keeps its entries in insertion order (the
// deterministic order the merge produces and every equivalence guarantee
// compares) plus a hash index keyed on the packed column cube, so
// add_entry's exact-column lookup is O(1), and a union of the columns'
// mention masks, so matching/activation/conflict scans prefilter whole
// rows with a word test before touching individual entries. Tests
// re-derive every query by scanning row() and compare.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
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
  /// start time or resource differs (the §5.2 conflict set W).
  std::vector<TableEntry> conflicting_entries(TaskId t, const Cube& column,
                                              Time start,
                                              PeId resource) const;

  /// Visit, in insertion order and without allocating, every entry of `t`
  /// whose column is implied by the label — the query matching() and
  /// activation() are built on. A row none of whose columns mentions a
  /// condition the label decides is answered by its unconditional cell
  /// alone.
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
  /// canonical check behind the "byte-identical tables" guarantees of the
  /// speculative merger. Ignores which FlatGraph instance is referenced.
  friend bool operator==(const ScheduleTable& a, const ScheduleTable& b);
  friend bool operator!=(const ScheduleTable& a, const ScheduleTable& b) {
    return !(a == b);
  }

 private:
  struct Row {
    /// Cells in insertion order — the externally visible row.
    std::vector<TableEntry> entries;
    /// Exact-match index: column cube -> position in `entries`.
    std::unordered_map<Cube, std::uint32_t> by_column;
    /// Union of the packed mention masks of every column in the row.
    std::uint64_t mention_union = 0;
    /// All columns narrow (packed-only)? Cleared by a >64-condition
    /// universe; the mask prefilters are skipped then.
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
    if ((row.mention_union & (pos | neg)) == 0) {
      const auto it = row.by_column.find(Cube::top());
      if (it != row.by_column.end()) fn(row.entries[it->second]);
      return;
    }
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
