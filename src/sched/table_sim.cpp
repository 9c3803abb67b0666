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
    for (TaskId pred : fg.preds(t)) {
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

  // 3. Mutual exclusion on sequential resources. The slots are bucketed
  //    by resource and each bucket is sorted by (start, id); each slot is
  //    compared only with the later ones that begin before it ends, so a
  //    clean table costs one sort per resource. The overlapping pairs are
  //    reported in (lower id, higher id) order.
  const std::size_t pes = fg.arch().pe_count();
  std::vector<char> sequential(pes);
  for (PeId r = 0; r < pes; ++r) sequential[r] = fg.arch().pe(r).sequential();
  struct Busy {
    Time start;
    Time end;
    TaskId task;
  };
  // bucket_begin[r + 1] counts resource r's slots, then (prefix sums)
  // bucket r is busy[bucket_begin[r], bucket_begin[r + 1]).
  std::vector<std::size_t> bucket_begin(pes + 1, 0);
  for (TaskId t = 0; t < n; ++t) {
    if (decision[t] == nullptr) continue;
    const PeId r = out.schedule.slot(t).resource;
    CPS_REQUIRE(r < pes, "processing element id out of range");
    if (sequential[r]) ++bucket_begin[r + 1];
  }
  for (PeId r = 0; r < pes; ++r) bucket_begin[r + 1] += bucket_begin[r];
  std::vector<Busy> busy(bucket_begin[pes]);
  std::vector<std::size_t> fill(bucket_begin.begin(), bucket_begin.end() - 1);
  for (TaskId t = 0; t < n; ++t) {
    if (decision[t] == nullptr) continue;
    const Slot& s = out.schedule.slot(t);
    if (sequential[s.resource]) {
      busy[fill[s.resource]++] = Busy{s.start, s.end, t};
    }
  }
  std::vector<std::pair<TaskId, TaskId>> overlaps;
  for (PeId r = 0; r < pes; ++r) {
    const auto first = busy.begin() + bucket_begin[r];
    const auto last = busy.begin() + bucket_begin[r + 1];
    std::sort(first, last, [](const Busy& a, const Busy& b) {
      return a.start != b.start ? a.start < b.start : a.task < b.task;
    });
    for (auto a = first; a != last; ++a) {
      for (auto b = a + 1; b != last && b->start < a->end; ++b) {
        // False only for an empty slot b starting where a starts.
        if (a->start < b->end) {
          overlaps.emplace_back(std::min(a->task, b->task),
                                std::max(a->task, b->task));
        }
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
    if (!fg.guard_implied_by(t, entry->column)) {
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
