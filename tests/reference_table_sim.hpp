// Test-only reference for sched/table_sim: the straightforward simulator
// the production one replaced. It finds each activation by scanning the
// task's whole row and checks mutual exclusion over every pair of active
// tasks, so it shares neither the row prefilter nor the per-resource sweep
// with execute_table. Oracle tests compare the two byte for byte.
#pragma once

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sched/table_sim.hpp"

namespace cps::testing {

inline std::vector<TableEntry> reference_matching(const ScheduleTable& table,
                                                  TaskId t,
                                                  const Cube& label) {
  std::vector<TableEntry> out;
  for (const TableEntry& e : table.row(t)) {
    if (label.implies(e.column)) out.push_back(e);
  }
  return out;
}

inline TableExecution reference_execute_table(const FlatGraph& fg,
                                              const ScheduleTable& table,
                                              const AltPath& path) {
  constexpr Time kInf = std::numeric_limits<Time>::max();
  TableExecution out;
  out.schedule = PathSchedule(fg.task_count());
  const std::vector<bool> active = fg.active_tasks(path.label);

  auto complain = [&out](const std::string& msg) {
    out.violations.push_back(msg);
  };

  // 1. Extract starts from the table.
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    if (!active[t]) {
      continue;
    }
    const auto entries = reference_matching(table, t, path.label);
    if (entries.empty()) {
      complain("task " + fg.task(t).name + " active on path " +
               path.label.to_string() + " but has no activation (req. 3)");
      continue;
    }
    for (const TableEntry& e : entries) {
      if (e.start != entries.front().start ||
          e.resource != entries.front().resource) {
        complain("task " + fg.task(t).name +
                 " has ambiguous activations on path " +
                 path.label.to_string() + " (req. 2)");
        break;
      }
    }
    const TableEntry& entry = entries.front();
    out.schedule.place(t, entry.start, entry.start + fg.task(t).duration,
                       entry.resource);
  }

  // 2. Dependencies.
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    if (!active[t] || !out.schedule.scheduled(t)) continue;
    for (EdgeId e : fg.deps().in_edges(t)) {
      const TaskId pred = fg.deps().edge(e).src;
      if (!active[pred] || !out.schedule.scheduled(pred)) continue;
      if (out.schedule.slot(pred).end > out.schedule.slot(t).start) {
        std::ostringstream os;
        os << "task " << fg.task(t).name << " starts at "
           << out.schedule.slot(t).start << " before predecessor "
           << fg.task(pred).name << " ends at "
           << out.schedule.slot(pred).end;
        complain(os.str());
      }
    }
  }

  // 3. Mutual exclusion on sequential resources, over every pair.
  std::vector<TaskId> scheduled;
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    if (active[t] && out.schedule.scheduled(t)) scheduled.push_back(t);
  }
  for (std::size_t i = 0; i < scheduled.size(); ++i) {
    for (std::size_t j = i + 1; j < scheduled.size(); ++j) {
      const Slot& a = out.schedule.slot(scheduled[i]);
      const Slot& b = out.schedule.slot(scheduled[j]);
      if (a.resource != b.resource) continue;
      if (!fg.arch().pe(a.resource).sequential()) continue;
      if (a.start < b.end && b.start < a.end) {
        complain("tasks " + fg.task(scheduled[i]).name + " and " +
                 fg.task(scheduled[j]).name + " overlap on " +
                 fg.arch().pe(a.resource).name);
      }
    }
  }

  // 4. Knowledge.
  std::vector<std::vector<Time>> known(
      fg.arch().pe_count(),
      std::vector<Time>(fg.cpg().conditions().size(), kInf));
  for (const Literal& lit : path.label.literals()) {
    const TaskId disj = fg.disjunction_task(lit.cond);
    if (!out.schedule.scheduled(disj)) continue;
    const Slot& ds = out.schedule.slot(disj);
    if (fg.broadcasts_enabled()) {
      known[ds.resource][lit.cond] = ds.end;
      if (auto bcast = fg.broadcast_task(lit.cond);
          bcast && out.schedule.scheduled(*bcast)) {
        const Time be = out.schedule.slot(*bcast).end;
        for (PeId r = 0; r < fg.arch().pe_count(); ++r) {
          known[r][lit.cond] = std::min(known[r][lit.cond], be);
        }
      }
    } else {
      for (PeId r = 0; r < fg.arch().pe_count(); ++r) {
        known[r][lit.cond] = ds.end;
      }
    }
  }
  for (TaskId t : scheduled) {
    const auto entries = reference_matching(table, t, path.label);
    const TableEntry* entry = &entries.front();
    for (const Literal& lit : entry->column.literals()) {
      const Time kt = known[entry->resource][lit.cond];
      if (kt > entry->start) {
        std::ostringstream os;
        os << "activation of " << fg.task(t).name << " at " << entry->start
           << " uses condition " << fg.cpg().conditions().name(lit.cond)
           << " not yet known on " << fg.arch().pe(entry->resource).name
           << " (known at " << kt << ", req. 4)";
        complain(os.str());
      }
    }
    if (!fg.task(t).guard.covered_by_context(entry->column)) {
      complain("column " + entry->column.to_string() +
               " does not imply the guard of " + fg.task(t).name +
               " (req. 1)");
    }
  }

  out.ok = out.violations.empty();
  if (out.schedule.scheduled(fg.sink_task())) {
    out.delay = out.schedule.slot(fg.sink_task()).end;
  } else {
    complain("sink task was never activated");
    out.ok = false;
  }
  return out;
}

}  // namespace cps::testing
