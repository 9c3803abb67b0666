#include "sched/table_sim.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace cps {

namespace {
constexpr Time kInf = std::numeric_limits<Time>::max();
}

TableExecution execute_table(const FlatGraph& fg, const ScheduleTable& table,
                             const AltPath& path) {
  TableExecution out;
  const std::size_t n = fg.task_count();
  out.schedule = PathSchedule(n);
  const std::vector<bool> active = fg.active_tasks(path.label);

  auto complain = [&out](const std::string& msg) {
    out.violations.push_back(msg);
  };

  // 1. Extract starts from the table: one row lookup per active task, whose
  //    first matching entry is the decision (kept for the knowledge check
  //    below). Extraction must stay total even on deliberately incoherent
  //    tables (the validator reports through us), so ambiguity is a
  //    violation, not an assertion.
  std::vector<const TableEntry*> decision(n, nullptr);
  for (TaskId t = 0; t < n; ++t) {
    if (!active[t]) {
      continue;
    }
    const TableEntry* first = nullptr;
    bool ambiguous = false;
    table.for_each_matching(t, path.label, [&](const TableEntry& e) {
      if (first == nullptr) {
        first = &e;
      } else if (e.start != first->start || e.resource != first->resource) {
        ambiguous = true;
      }
    });
    if (first == nullptr) {
      complain("task " + fg.task(t).name + " active on path " +
               path.label.to_string() + " but has no activation (req. 3)");
      continue;
    }
    if (ambiguous) {
      complain("task " + fg.task(t).name +
               " has ambiguous activations on path " +
               path.label.to_string() + " (req. 2)");
    }
    decision[t] = first;
    out.schedule.place(t, first->start, first->start + fg.task(t).duration,
                       first->resource);
  }

  // 2. Dependencies.
  for (TaskId t = 0; t < n; ++t) {
    if (decision[t] == nullptr) continue;
    for (EdgeId e : fg.deps().in_edges(t)) {
      const TaskId pred = fg.deps().edge(e).src;
      if (decision[pred] == nullptr) continue;
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

  // 3. Mutual exclusion on sequential resources. Each resource's slots are
  //    sorted by start, and each slot is compared only with the later ones
  //    that begin before it ends, so a clean table costs one sort. The
  //    overlapping pairs are reported in (lower id, higher id) order.
  struct Busy {
    PeId resource;
    Time start;
    Time end;
    TaskId task;
  };
  std::vector<Busy> busy;
  for (TaskId t = 0; t < n; ++t) {
    if (decision[t] == nullptr) continue;
    const Slot& s = out.schedule.slot(t);
    if (fg.arch().pe(s.resource).sequential()) {
      busy.push_back(Busy{s.resource, s.start, s.end, t});
    }
  }
  std::sort(busy.begin(), busy.end(), [](const Busy& a, const Busy& b) {
    if (a.resource != b.resource) return a.resource < b.resource;
    if (a.start != b.start) return a.start < b.start;
    return a.task < b.task;
  });
  std::vector<std::pair<TaskId, TaskId>> overlaps;
  for (std::size_t i = 0; i < busy.size(); ++i) {
    const Busy& a = busy[i];
    for (std::size_t j = i + 1; j < busy.size(); ++j) {
      const Busy& b = busy[j];
      if (b.resource != a.resource || b.start >= a.end) break;
      // False only for an empty slot b starting where a starts.
      if (a.start < b.end) {
        overlaps.emplace_back(std::min(a.task, b.task),
                              std::max(a.task, b.task));
      }
    }
  }
  std::sort(overlaps.begin(), overlaps.end());
  for (const auto& [lo, hi] : overlaps) {
    complain("tasks " + fg.task(lo).name + " and " + fg.task(hi).name +
             " overlap on " +
             fg.arch().pe(out.schedule.slot(lo).resource).name);
  }

  // 4. Knowledge: reconstruct when each condition becomes known on each
  //    resource and check every activation column against it.
  const std::size_t conds = fg.cpg().conditions().size();
  std::vector<Time> known(fg.arch().pe_count() * conds, kInf);
  const auto known_at = [&](PeId r, CondId c) -> Time& {
    return known[r * conds + c];
  };
  path.label.for_each([&](Literal lit) {
    const TaskId disj = fg.disjunction_task(lit.cond);
    if (!out.schedule.scheduled(disj)) return;
    const Slot& ds = out.schedule.slot(disj);
    if (fg.broadcasts_enabled()) {
      known_at(ds.resource, lit.cond) = ds.end;
      if (auto bcast = fg.broadcast_task(lit.cond);
          bcast && out.schedule.scheduled(*bcast)) {
        const Time be = out.schedule.slot(*bcast).end;
        for (PeId r = 0; r < fg.arch().pe_count(); ++r) {
          known_at(r, lit.cond) = std::min(known_at(r, lit.cond), be);
        }
      }
    } else {
      for (PeId r = 0; r < fg.arch().pe_count(); ++r) {
        known_at(r, lit.cond) = ds.end;
      }
    }
  });
  for (TaskId t = 0; t < n; ++t) {
    const TableEntry* entry = decision[t];
    if (entry == nullptr) continue;
    entry->column.for_each([&](Literal lit) {
      const Time kt = known_at(entry->resource, lit.cond);
      if (kt > entry->start) {
        std::ostringstream os;
        os << "activation of " << fg.task(t).name << " at " << entry->start
           << " uses condition " << fg.cpg().conditions().name(lit.cond)
           << " not yet known on " << fg.arch().pe(entry->resource).name
           << " (known at " << kt << ", req. 4)";
        complain(os.str());
      }
    });
    // The decision must be sufficient: column must imply the guard.
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

}  // namespace cps
