#include "sched/schedule_table.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace cps {

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
  const auto it = row.by_column.find(column);
  if (it != row.by_column.end()) {
    const TableEntry& e = row.entries[it->second];
    if (e.start == start && e.resource == resource) {
      return AddEntryResult::kDuplicate;
    }
    return AddEntryResult::kClash;
  }
  row.by_column.emplace(column,
                        static_cast<std::uint32_t>(row.entries.size()));
  row.entries.push_back(TableEntry{column, start, resource});
  row.mention_union |= column.mention_bits();
  row.all_narrow = row.all_narrow && column.narrow();
  return AddEntryResult::kAdded;
}

std::vector<TableEntry> ScheduleTable::conflicting_entries(
    TaskId t, const Cube& column, Time start, PeId resource) const {
  CPS_REQUIRE(t < rows_.size(), "task id out of range");
  const Row& row = rows_[t];
  std::vector<TableEntry> out;
  if (row.all_narrow && column.narrow()) {
    // A column sharing no mentioned condition with `column` is trivially
    // compatible; the union mask cannot rule the row out, but it skips the
    // per-entry incompatibility masks when no overlap exists at all.
    const std::uint64_t pos = column.pos_bits();
    const std::uint64_t neg = column.neg_bits();
    for (const TableEntry& e : row.entries) {
      if ((e.column.pos_bits() & neg) != 0 ||
          (e.column.neg_bits() & pos) != 0) {
        continue;  // incompatible: opposite literal
      }
      if (e.start == start && e.resource == resource) continue;
      out.push_back(e);
    }
  } else {
    for (const TableEntry& e : row.entries) {
      if (!e.column.compatible(column)) continue;
      if (e.start == start && e.resource == resource) continue;
      out.push_back(e);
    }
  }
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
  // Cell-wise: rows, order and every entry field. The index structures are
  // derived data and deliberately excluded.
  if (a.rows_.size() != b.rows_.size()) return false;
  for (std::size_t t = 0; t < a.rows_.size(); ++t) {
    if (a.rows_[t].entries != b.rows_[t].entries) return false;
  }
  return true;
}

}  // namespace cps
