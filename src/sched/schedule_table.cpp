#include "sched/schedule_table.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace cps {

namespace {

/// Cells a row reserves on its first insertion.
constexpr std::size_t kRowReserve = 4;

/// Visit the cells of `row` that conflict with (column, start, resource),
/// in insertion order, until `fn` returns true; returns whether it did.
/// `narrow`: every column involved is packed, so the mask test is exact.
template <typename Fn>
bool find_conflict(const std::vector<TableEntry>& row, bool narrow,
                   const Cube& column, Time start, PeId resource, Fn&& fn) {
  const std::uint64_t pos = column.pos_bits();
  const std::uint64_t neg = column.neg_bits();
  for (const TableEntry& e : row) {
    const std::uint64_t opposite =
        (e.column.pos_bits() & neg) | (e.column.neg_bits() & pos);
    if (narrow ? opposite != 0 : !e.column.compatible(column)) continue;
    if (e.start == start && e.resource == resource) continue;
    if (fn(e)) return true;
  }
  return false;
}

}  // namespace

ScheduleTable::ScheduleTable(const FlatGraph& fg)
    : fg_(&fg), rows_(fg.task_count()) {}

const std::vector<TableEntry>& ScheduleTable::row(TaskId t) const {
  CPS_REQUIRE(t < rows_.size(), "task id out of range");
  return rows_[t].entries;
}

AddEntryResult ScheduleTable::add_entry(TaskId t, const Cube& column,
                                        Time start, PeId resource) {
  CPS_REQUIRE(t < rows_.size(), "task id out of range");
  CPS_REQUIRE(start >= 0, "activation times are non-negative");
  Row& row = rows_[t];
  for (const TableEntry& e : row.entries) {
    if (e.column != column) continue;
    return e.start == start && e.resource == resource
               ? AddEntryResult::kDuplicate
               : AddEntryResult::kClash;
  }
  // Rows take one cell per merged schedule that places the task: size a
  // row once for the common case instead of growing it cell by cell.
  if (row.entries.empty()) row.entries.reserve(kRowReserve);
  row.entries.push_back(TableEntry{column, start, resource});
  row.all_narrow = row.all_narrow && column.narrow();
  return AddEntryResult::kAdded;
}

bool ScheduleTable::has_conflict(TaskId t, const Cube& column, Time start,
                                 PeId resource) const {
  CPS_REQUIRE(t < rows_.size(), "task id out of range");
  const Row& row = rows_[t];
  const auto stop = [](const TableEntry&) { return true; };
  return find_conflict(row.entries, row.all_narrow && column.narrow(), column,
                       start, resource, stop);
}

std::vector<TableEntry> ScheduleTable::conflicting_entries(
    TaskId t, const Cube& column, Time start, PeId resource) const {
  CPS_REQUIRE(t < rows_.size(), "task id out of range");
  const Row& row = rows_[t];
  std::vector<TableEntry> out;
  const auto collect = [&out](const TableEntry& e) {
    out.push_back(e);
    return false;
  };
  find_conflict(row.entries, row.all_narrow && column.narrow(), column, start,
                resource, collect);
  std::sort(out.begin(), out.end(),
            [](const TableEntry& a, const TableEntry& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.resource < b.resource;
            });
  return out;
}

std::vector<TableEntry> ScheduleTable::matching(TaskId t,
                                                const Cube& label) const {
  std::vector<TableEntry> out;
  for_each_matching(t, label,
                    [&out](const TableEntry& e) { out.push_back(e); });
  return out;
}

std::optional<TableEntry> ScheduleTable::activation(
    TaskId t, const Cube& label) const {
  std::optional<TableEntry> found;
  for_each_matching(t, label, [&](const TableEntry& e) {
    if (!found) {
      found = e;
      return;
    }
    CPS_ASSERT(found->start == e.start && found->resource == e.resource,
               "ambiguous activation for task " + fg_->task(t).name +
                   " under label " + label.to_string() +
                   " (requirement 2 violated)");
  });
  return found;
}

std::vector<Cube> ScheduleTable::columns() const {
  std::vector<Cube> out;
  for (const Row& row : rows_) {
    for (const TableEntry& e : row.entries) out.push_back(e.column);
  }
  std::sort(out.begin(), out.end(), [](const Cube& a, const Cube& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t ScheduleTable::entry_count() const {
  std::size_t n = 0;
  for (const Row& row : rows_) n += row.entries.size();
  return n;
}

bool operator==(const ScheduleTable& a, const ScheduleTable& b) {
  // Cell-wise: rows, order and every entry field (all_narrow is derived).
  if (a.rows_.size() != b.rows_.size()) return false;
  for (std::size_t t = 0; t < a.rows_.size(); ++t) {
    if (a.rows_[t].entries != b.rows_[t].entries) return false;
  }
  return true;
}

}  // namespace cps
