#include "sched/table_validate.hpp"

#include <sstream>

#include "sched/table_sim.hpp"

namespace cps {

namespace {

/// Does every assignment consistent with the context (pos, neg) satisfy
/// one of the row's columns? Dnf::covered_by_context's Shannon expansion
/// on the packed column masks, without allocating: columns the context
/// contradicts drop out, one the context implies ends the branch, and
/// otherwise both values of the first undecided condition of the first
/// remaining column are tried. Every column must be narrow.
bool columns_cover(const std::vector<TableEntry>& row, std::uint64_t pos,
                   std::uint64_t neg) {
  std::uint64_t pivot = 0;
  for (const TableEntry& e : row) {
    const std::uint64_t col_pos = e.column.pos_bits();
    const std::uint64_t col_neg = e.column.neg_bits();
    if ((col_pos & neg) != 0 || (col_neg & pos) != 0) continue;
    const std::uint64_t undecided = (col_pos | col_neg) & ~(pos | neg);
    if (undecided == 0) return true;
    if (pivot == 0) pivot = undecided & (~undecided + 1);
  }
  if (pivot == 0) return false;
  return columns_cover(row, pos | pivot, neg) &&
         columns_cover(row, pos, neg | pivot);
}

}  // namespace

TableValidation validate_table(const FlatGraph& fg,
                               const ScheduleTable& table,
                               const std::vector<AltPath>& paths,
                               bool complete_coverage) {
  TableValidation out;
  auto complain = [&out](const std::string& msg) {
    out.violations.push_back(msg);
  };

  for (TaskId t = 0; t < fg.task_count(); ++t) {
    const Task& task = fg.task(t);
    const auto& row = table.row(t);

    // Requirement 1: column implies guard.
    bool implies_guard = true;
    bool narrow = fg.masks_enabled();
    for (const TableEntry& e : row) {
      narrow = narrow && e.column.narrow();
      if (!fg.guard_implied_by(t, e.column)) {
        implies_guard = false;
        complain("req1: column " + e.column.to_string() + " of task " +
                 task.name + " does not imply its guard " +
                 task.guard.to_string());
      }
    }

    // Requirement 2: different activation decisions have incompatible
    // columns.
    for (std::size_t i = 0; i < row.size(); ++i) {
      for (std::size_t j = i + 1; j < row.size(); ++j) {
        const bool same_decision = row[i].start == row[j].start &&
                                   row[i].resource == row[j].resource;
        if (same_decision) continue;
        if (row[i].column.compatible(row[j].column)) {
          std::ostringstream os;
          os << "req2: task " << task.name << " has compatible columns "
             << row[i].column.to_string() << " (t=" << row[i].start
             << ") and " << row[j].column.to_string()
             << " (t=" << row[j].start << ")";
          complain(os.str());
        }
      }
    }

    // Requirement 3: the columns cover the guard exactly. A truncated
    // path set cannot (and need not) reach equivalence — req1 above
    // already pinned the containment direction per entry.
    if (complete_coverage) {
      // Every column implies the guard, so their disjunction does, and
      // equivalence reduces to the guard implying some column under each
      // of its cubes. Only a row that fails this, or one past the masks,
      // builds the cover.
      bool covered = implies_guard && narrow;
      if (covered) {
        for (const GuardCubeMask& cube : fg.guard_info(t).cubes) {
          if (!columns_cover(row, cube.pos, cube.neg)) {
            covered = false;
            break;
          }
        }
      }
      if (!covered) {
        Dnf cover = Dnf::false_();
        for (const TableEntry& e : row) cover = cover.or_cube(e.column);
        if (!cover.equivalent(task.guard)) {
          complain("req3: activation columns of task " + task.name +
                   " cover " + cover.to_string() + " but the guard is " +
                   task.guard.to_string());
        }
      }
    }
  }

  // Requirement 4 + physical realizability, per alternative path.
  for (const AltPath& path : paths) {
    const TableExecution exec = execute_table(fg, table, path);
    for (const std::string& v : exec.violations) {
      complain("path " + path.label.to_string() + ": " + v);
    }
  }

  out.ok = out.violations.empty();
  return out;
}

}  // namespace cps
