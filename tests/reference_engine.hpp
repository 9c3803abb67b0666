// Test-only reference for sched/list_scheduler: the straightforward O(V^2)
// list scheduler the production engine replaced. Every step scans every
// task in id order, counts each task's unfinished active predecessors
// along deps()' edges, and evaluates guards directly on the DNF against a
// per-resource table of condition knowledge times. It reads tasks and
// edges only through FlatGraph::task() and deps(), and shares no state,
// loop, ready structure, cover cache or knowledge code with the
// production engine. Oracle tests compare the two slot for slot,
// including the outcome of locked requests (feasibility, code, offending
// lock).
//
// A request's cover cache and budget are ignored: the reference always
// runs to completion.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sched/list_scheduler.hpp"

namespace cps::testing {

class ReferenceEngine {
 public:
  ReferenceEngine(const FlatGraph& fg, const EngineRequest& req)
      : fg_(fg), req_(req) {}

  EngineResult run() {
    const std::size_t n = fg_.task_count();
    CPS_REQUIRE(req_.active.size() == n, "active vector size mismatch");
    CPS_REQUIRE(req_.priority.size() == n, "priority vector size mismatch");
    CPS_REQUIRE(req_.locks.empty() || req_.locks.size() == n,
                "locks vector size mismatch");
    const std::size_t pes = fg_.arch().pe_count();
    sched_ = PathSchedule(n);
    started_.assign(n, 0);
    waiting_.assign(n, 0);
    busy_until_.assign(pes, -1);
    sequential_.assign(pes, 0);
    for (PeId r = 0; r < pes; ++r) {
      sequential_[r] = fg_.arch().pe(r).sequential() ? 1 : 0;
    }
    known_.assign(pes,
                  std::vector<Time>(fg_.cpg().conditions().size(), kInf));
    running_.clear();
    buses_ = fg_.arch().broadcast_buses();
    remaining_ = 0;
    broadcasts_ = false;
    for (TaskId t = 0; t < n; ++t) {
      if (fg_.task(t).is_broadcast()) broadcasts_ = true;
      if (!active(t)) continue;
      ++remaining_;
      CPS_REQUIRE(!locked(t) || lock(t).start >= 0,
                  "lock reservations are non-negative");
      for (EdgeId e : fg_.deps().in_edges(t)) {
        if (active(fg_.deps().edge(e).src)) ++waiting_[t];
      }
    }

    Time now = 0;
    while (remaining_ > 0) {
      // Start everything that can start at `now`, until nothing more can
      // (zero-duration completions enable further starts at this time).
      while (try_starts(now)) {
      }
      if (remaining_ == 0) break;

      // A lock whose reservation has arrived but which did not start makes
      // the request infeasible; the lowest id is the offending one.
      for (TaskId t = 0; t < n; ++t) {
        if (active(t) && locked(t) && !started_[t] && lock(t).start <= now) {
          EngineResult out;
          out.feasible = false;
          out.code = ErrorCode::kUnschedulable;
          out.offending_lock = t;
          out.reason = "locked task " + fg_.task(t).name +
                       " cannot start at its reserved time " +
                       std::to_string(lock(t).start);
          return out;
        }
      }

      // Advance to the next event: a completion or a future lock start.
      Time next = kInf;
      for (TaskId t = 0; t < n; ++t) {
        if (active(t) && locked(t) && !started_[t]) {
          next = std::min(next, lock(t).start);
        }
      }
      for (TaskId t : running_) next = std::min(next, sched_.slot(t).end);
      if (next == kInf || next <= now) {
        EngineResult out;
        out.feasible = false;
        out.code = ErrorCode::kUnschedulable;
        out.reason =
            "scheduling deadlock (no startable task and no pending event)";
        return out;
      }
      now = next;
      std::vector<TaskId> still_running;
      for (TaskId t : running_) {
        if (sched_.slot(t).end == now) {
          complete(t, now);
        } else {
          still_running.push_back(t);
        }
      }
      running_ = std::move(still_running);
    }

    EngineResult out;
    out.feasible = true;
    out.schedule = sched_;
    return out;
  }

 private:
  static constexpr Time kInf = std::numeric_limits<Time>::max();

  bool active(TaskId t) const { return req_.active[t]; }
  bool locked(TaskId t) const {
    return !req_.locks.empty() && req_.locks[t].has_value();
  }
  const TaskLock& lock(TaskId t) const { return *req_.locks[t]; }
  bool sequential(PeId res) const { return sequential_[res] != 0; }
  /// Every active predecessor has finished.
  bool deps_done(TaskId t) const { return waiting_[t] == 0; }

  /// Active, not started, and not locked (locks start only in step 1).
  bool open(TaskId t) const { return active(t) && !started_[t] && !locked(t); }

  /// The knowledge rule: the conditions known on `res` at `now` imply the
  /// task's guard and, for conjunction processes (activated by whichever
  /// input alternative is selected, paper §5.2), decide the activity of
  /// every predecessor with a non-trivial guard.
  bool knowledge_ok(TaskId t, Time now, PeId res) const {
    if (!req_.enforce_knowledge) return true;
    const Task& task = fg_.task(t);
    const bool conjunction =
        task.origin_process &&
        fg_.cpg().process(*task.origin_process).conjunction;
    if (task.guard.is_true() && !conjunction) return true;
    Cube known;
    for (CondId c = 0; c < fg_.cpg().conditions().size(); ++c) {
      const std::optional<bool> value = req_.label.value_of(c);
      if (!value || known_[res][c] > now) continue;
      known = known.conjoin(Literal{c, *value}).value();
    }
    if (!task.guard.covered_by_context(known)) return false;
    if (!conjunction) return true;
    for (EdgeId e : fg_.deps().in_edges(t)) {
      const TaskId pred = fg_.deps().edge(e).src;
      const Dnf& guard = fg_.task(pred).guard;
      if (guard.is_true()) continue;
      if (active(pred) ? !guard.covered_by_context(known)
                       : !guard.and_cube(known).is_false()) {
        return false;
      }
    }
    return true;
  }

  /// [now, now + dur) on `res` avoids every unstarted lock reservation
  /// there, and covers no zero-length one (it must stay reachable).
  bool fits(PeId res, Time now, Time dur) const {
    if (req_.locks.empty() || !sequential(res)) return true;
    for (TaskId t = 0; t < fg_.task_count(); ++t) {
      if (!active(t) || started_[t] || !locked(t)) continue;
      const TaskLock& l = lock(t);
      if (l.resource != res) continue;
      const Time d = fg_.task(t).duration;
      if (l.start < now + dur && now < l.start + d) return false;
      if (d == 0 && l.start >= now && l.start < now + dur) return false;
    }
    return true;
  }

  bool try_starts(Time now) {
    const std::size_t n = fg_.task_count();
    bool any = false;

    // 1. Locked tasks whose reservation is now, in id order.
    for (TaskId t = 0; t < n; ++t) {
      if (!active(t) || started_[t] || !locked(t)) continue;
      const TaskLock& l = lock(t);
      if (l.start != now || !deps_done(t)) continue;
      if (!knowledge_ok(t, now, l.resource)) continue;
      if (sequential(l.resource) && busy_until_[l.resource] > now) continue;
      start(t, now, l.resource);
      any = true;
    }

    // 2. Broadcasts, in id order, on the first free broadcast bus whose
    //    locks they fit around.
    for (TaskId t = 0; t < n; ++t) {
      const Task& task = fg_.task(t);
      if (!task.is_broadcast() || !open(t) || !deps_done(t)) continue;
      for (PeId bus : buses_) {
        if (busy_until_[bus] > now) continue;
        if (!fits(bus, now, task.duration)) continue;
        if (!knowledge_ok(t, now, bus)) continue;
        start(t, now, bus);
        any = true;
        break;
      }
    }

    // 3. Sequential resources in id order: while free, start the
    //    startable task of highest priority (lowest id on ties).
    for (PeId res = 0; res < fg_.arch().pe_count(); ++res) {
      if (!sequential(res)) continue;
      while (busy_until_[res] <= now) {
        std::optional<TaskId> best;
        for (TaskId t = 0; t < n; ++t) {
          const Task& task = fg_.task(t);
          if (task.is_broadcast() || task.resource != res) continue;
          if (!open(t)) continue;
          if (!deps_done(t) || !fits(res, now, task.duration)) continue;
          if (!knowledge_ok(t, now, res)) continue;
          if (!best || req_.priority[t] > req_.priority[*best]) best = t;
        }
        if (!best) break;
        start(*best, now, res);
        any = true;
      }
    }

    // 4. Hardware resources run every startable task, in id order.
    for (TaskId t = 0; t < n; ++t) {
      const Task& task = fg_.task(t);
      if (task.is_broadcast() || sequential(task.resource)) continue;
      if (!open(t)) continue;
      if (!deps_done(t) || !knowledge_ok(t, now, task.resource)) continue;
      start(t, now, task.resource);
      any = true;
    }
    return any;
  }

  void start(TaskId t, Time now, PeId res) {
    const Time end = now + fg_.task(t).duration;
    started_[t] = 1;
    sched_.place(t, now, end, res);
    if (end == now) {
      complete(t, now);
      return;
    }
    if (sequential(res)) busy_until_[res] = end;
    running_.push_back(t);
  }

  /// A condition becomes known on the disjunction's resource when it
  /// ends, and everywhere when its broadcast ends; models without
  /// broadcasts know it everywhere at once.
  void complete(TaskId t, Time now) {
    --remaining_;
    for (EdgeId e : fg_.deps().out_edges(t)) {
      const TaskId succ = fg_.deps().edge(e).dst;
      if (active(succ)) --waiting_[succ];
    }
    const Task& task = fg_.task(t);
    const PeId res = sched_.slot(t).resource;
    if (task.computes) {
      learn(res, *task.computes, now);
      if (!broadcasts_) learn_everywhere(*task.computes, now);
    }
    if (task.broadcasts) learn_everywhere(*task.broadcasts, now);
  }

  void learn(PeId res, CondId c, Time when) {
    known_[res][c] = std::min(known_[res][c], when);
  }
  void learn_everywhere(CondId c, Time when) {
    for (PeId r = 0; r < fg_.arch().pe_count(); ++r) learn(r, c, when);
  }

  const FlatGraph& fg_;
  const EngineRequest& req_;
  PathSchedule sched_;
  std::vector<char> started_;
  std::vector<std::size_t> waiting_;  ///< unfinished active predecessors
  std::vector<char> sequential_;      ///< one task at a time, by PeId
  std::vector<Time> busy_until_;      ///< end of the running task, by PeId
  std::vector<TaskId> running_;       ///< started, not yet finished
  std::vector<PeId> buses_;           ///< all-connecting buses, by PeId
  /// known_[res][c]: time from which c is known on res (kInf if not).
  std::vector<std::vector<Time>> known_;
  std::size_t remaining_ = 0;
  bool broadcasts_ = false;  ///< the model has broadcast tasks
};

/// Run the reference list scheduler on `req`.
inline EngineResult reference_run(const FlatGraph& fg,
                                  const EngineRequest& req) {
  return ReferenceEngine(fg, req).run();
}

}  // namespace cps::testing
