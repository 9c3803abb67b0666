// Test-only reference for sched/table_validate: requirements 1-3 decided
// on the guard's Dnf alone — Dnf::covered_by_context per cell, and the
// row's cover built with Dnf::or_cube and compared with Dnf::equivalent —
// and requirement 4 by reference_execute_table. It shares neither the
// guard masks nor the simulator with validate_table. Oracle tests compare
// the two violation lists byte for byte.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "reference_table_sim.hpp"
#include "sched/table_validate.hpp"

namespace cps::testing {

inline TableValidation reference_validate_table(
    const FlatGraph& fg, const ScheduleTable& table,
    const std::vector<AltPath>& paths, bool complete_coverage = true) {
  TableValidation out;
  auto complain = [&out](const std::string& msg) {
    out.violations.push_back(msg);
  };

  for (TaskId t = 0; t < fg.task_count(); ++t) {
    const Task& task = fg.task(t);
    const auto& row = table.row(t);

    for (const TableEntry& e : row) {
      if (!task.guard.covered_by_context(e.column)) {
        complain("req1: column " + e.column.to_string() + " of task " +
                 task.name + " does not imply its guard " +
                 task.guard.to_string());
      }
    }

    for (std::size_t i = 0; i < row.size(); ++i) {
      for (std::size_t j = i + 1; j < row.size(); ++j) {
        if (row[i].start == row[j].start &&
            row[i].resource == row[j].resource) {
          continue;
        }
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

    if (complete_coverage) {
      Dnf cover = Dnf::false_();
      for (const TableEntry& e : row) cover = cover.or_cube(e.column);
      if (!cover.equivalent(task.guard)) {
        complain("req3: activation columns of task " + task.name +
                 " cover " + cover.to_string() + " but the guard is " +
                 task.guard.to_string());
      }
    }
  }

  for (const AltPath& path : paths) {
    const TableExecution exec = reference_execute_table(fg, table, path);
    for (const std::string& v : exec.violations) {
      complain("path " + path.label.to_string() + ": " + v);
    }
  }

  out.ok = out.violations.empty();
  return out;
}

}  // namespace cps::testing
