#include "sched/merge.hpp"

#include <algorithm>
#include <iostream>
#include <limits>

#include "support/error.hpp"
#include "support/fault.hpp"

namespace cps {

const char* to_string(PathSelection s) {
  switch (s) {
    case PathSelection::kLongestFirst: return "longest-first";
    case PathSelection::kShortestFirst: return "shortest-first";
    case PathSelection::kRandom: return "random";
  }
  return "?";
}

namespace {

constexpr Time kInf = std::numeric_limits<Time>::max();

/// Raised by the walk when an adjustment is unschedulable even after
/// relaxing every relaxable lock, or when the walk's RunBudget tripped;
/// caught by Merger::run and reported through MergeResult::ok/code/error
/// (never escapes merge_schedules).
struct MergeInfeasible {
  ErrorCode code = ErrorCode::kUnschedulable;
  std::string reason;
};

/// When the value of one label literal becomes known under a schedule: on
/// the disjunction's resource at its end, elsewhere at `elsewhere`.
struct LiteralKnowledge {
  Literal lit;
  PeId resource = 0;  ///< the disjunction's resource
  Time own = 0;       ///< the disjunction's end
  /// The broadcast's end; kInf when the broadcast is unscheduled (the
  /// value never reaches another PE); the disjunction's end when the
  /// condition has no broadcast (single-resource models).
  Time elsewhere = 0;
};

/// A schedule as the walk consumes it, with what the walk derives from it
/// computed once: the (start, id) placement order, and the knowledge
/// table of its path label — one entry per literal whose disjunction is
/// scheduled, in condition order.
struct WalkSchedule {
  PathSchedule sched;
  std::vector<TaskId> order;
  std::vector<LiteralKnowledge> knowledge;
};

/// Column of a task placed at `slot`: the label literals known on its
/// resource at its start. A sub-cube of the (packed) label, so it is
/// assembled directly as masks.
Cube column_at(const std::vector<LiteralKnowledge>& knowledge,
               const Slot& slot) {
  std::uint64_t pos = 0;
  std::uint64_t neg = 0;
  std::vector<Literal> wide;
  for (const LiteralKnowledge& k : knowledge) {
    const Time known = k.resource == slot.resource ? k.own : k.elsewhere;
    if (known > slot.start) continue;
    if (k.lit.cond < Cube::kPackedBits) {
      (k.lit.value ? pos : neg) |= std::uint64_t{1} << k.lit.cond;
    } else {
      wide.push_back(k.lit);
    }
  }
  Cube col = Cube::from_masks(pos, neg);
  for (const Literal& lit : wide) {
    auto next = col.conjoin(lit);
    CPS_ASSERT(next.has_value(), "label literals cannot contradict");
    col = std::move(*next);
  }
  return col;
}

class Merger {
 public:
  Merger(const FlatGraph& fg, const std::vector<AltPath>& paths,
         const std::vector<PathSchedule>& schedules,
         const MergeOptions& options)
      : fg_(fg),
        paths_(paths),
        scheds_(schedules),
        opts_(options),
        rng_(options.random_seed),
        table_(fg),
        poll_(options.budget) {}

  MergeResult run();

 private:
  std::vector<std::size_t> reachable_under(const Cube& decided) const;
  std::size_t select(const std::vector<std::size_t>& reachable);
  const std::vector<bool>& active_of(std::size_t path);
  /// Knowledge table of schedule `s` under `label` (see WalkSchedule).
  std::vector<LiteralKnowledge> knowledge_of(const PathSchedule& s,
                                             const Cube& label) const;
  WalkSchedule walk_schedule(PathSchedule s, const Cube& label) const;
  void place(const WalkSchedule& w, TaskId t);

  /// Engine request for adjusting path `cur` (everything but the locks),
  /// re-assigned into an existing request so the walk reuses one buffer
  /// across all its adjustments.
  void fill_base_request(std::size_t cur, EngineRequest& base);
  /// Rule-3 lock derivation against the current table state: lock every
  /// active task whose activation time was already fixed in a column
  /// decided entirely at ancestors of the branching node. `count`
  /// receives the number of locks found. Re-assigns an existing vector
  /// (capacity reuse across the walk).
  void rule3_locks_into(const Cube& ancestors, const Cube& decided,
                        const std::vector<bool>& active,
                        std::vector<std::optional<TaskLock>>& locks,
                        std::size_t* count) const;
  /// §5.2 conflict handling against the current table state.
  WalkSchedule resolve_conflicts(EngineRequest& base, std::size_t cur,
                                 PathSchedule adjusted);

  WalkSchedule adjust(const Cube& ancestors, const Cube& decided,
                      std::size_t cur);

  void dfs(const Cube& decided, std::size_t cur, const WalkSchedule& w,
           std::vector<bool> done);

  const FlatGraph& fg_;
  const std::vector<AltPath>& paths_;
  const std::vector<PathSchedule>& scheds_;
  MergeOptions opts_;
  Rng rng_;
  std::vector<Time> deltas_;
  ScheduleTable table_;
  MergeStats stats_;
  /// Memoized guard-cover results shared by every adjustment engine run
  /// (the same (guard, known-conditions) queries recur across paths).
  CoverCache cache_;
  /// Reusable engine buffers for every engine run of the walk
  /// (adjustments and conflict trials), plus the request buffer the
  /// adjustments re-fill instead of reallocating. Safe to share across
  /// the walk: adjustments never overlap (dfs recurses only after the
  /// adjustment fully resolved).
  EngineWorkspace walk_ws_;
  EngineRequest walk_base_;
  /// Per-path active-task vectors, computed once per path on demand.
  std::vector<std::vector<bool>> active_cache_;
  std::vector<bool> active_cached_;
  /// Packed per-path label masks for the reachability walks.
  PathLabelMasks label_masks_;
  /// Bounded-interval budget poller (one poll per decision-tree node).
  BudgetPoll poll_;
};

const std::vector<bool>& Merger::active_of(std::size_t path) {
  if (active_cache_.empty()) {
    active_cache_.resize(paths_.size());
    active_cached_.assign(paths_.size(), false);
  }
  if (!active_cached_[path]) {
    active_cache_[path] = fg_.active_tasks(paths_[path].label, &cache_);
    active_cached_[path] = true;
  }
  return active_cache_[path];
}

std::vector<std::size_t> Merger::reachable_under(const Cube& decided) const {
  std::vector<std::size_t> out;
  if (label_masks_.narrow && decided.narrow()) {
    // Hot path of the decision-tree walk: two word tests per path over
    // contiguous mask arrays.
    const std::uint64_t pos = decided.pos_bits();
    const std::uint64_t neg = decided.neg_bits();
    for (std::size_t i = 0; i < label_masks_.size(); ++i) {
      if (label_masks_.compatible(i, pos, neg)) out.push_back(i);
    }
    return out;
  }
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (paths_[i].label.compatible(decided)) out.push_back(i);
  }
  return out;
}

std::size_t Merger::select(const std::vector<std::size_t>& reachable) {
  CPS_ASSERT(!reachable.empty(), "path selection from empty set");
  switch (opts_.selection) {
    case PathSelection::kLongestFirst: {
      std::size_t best = reachable.front();
      for (std::size_t i : reachable) {
        if (deltas_[i] > deltas_[best]) best = i;
      }
      return best;
    }
    case PathSelection::kShortestFirst: {
      std::size_t best = reachable.front();
      for (std::size_t i : reachable) {
        if (deltas_[i] < deltas_[best]) best = i;
      }
      return best;
    }
    case PathSelection::kRandom:
      return reachable[rng_.index(reachable.size())];
  }
  return reachable.front();
}

std::vector<LiteralKnowledge> Merger::knowledge_of(
    const PathSchedule& s, const Cube& label) const {
  std::vector<LiteralKnowledge> out;
  label.for_each([&](Literal lit) {
    const TaskId disj = fg_.disjunction_task(lit.cond);
    if (!s.scheduled(disj)) return;
    const Slot& d = s.slot(disj);
    // Multi-resource models: a condition value crosses resources only
    // through its broadcast (the engine's knowledge rule); a value never
    // broadcast stays unknown on other PEs. Single-resource models see it
    // everywhere as soon as the disjunction terminates.
    Time elsewhere = d.end;
    if (const auto bcast = fg_.broadcast_task(lit.cond)) {
      elsewhere = s.scheduled(*bcast) ? s.slot(*bcast).end : kInf;
    }
    out.push_back(LiteralKnowledge{lit, d.resource, d.end, elsewhere});
  });
  return out;
}

WalkSchedule Merger::walk_schedule(PathSchedule s, const Cube& label) const {
  WalkSchedule w;
  w.order = s.tasks_by_start();
  w.knowledge = knowledge_of(s, label);
  w.sched = std::move(s);
  return w;
}

void Merger::place(const WalkSchedule& w, TaskId t) {
  const Slot& slot = w.sched.slot(t);
  const Cube col = column_at(w.knowledge, slot);
  const AddEntryResult res =
      table_.add_entry(t, col, slot.start, slot.resource);
  if (res == AddEntryResult::kClash) ++stats_.column_clashes;
}

void Merger::fill_base_request(std::size_t cur, EngineRequest& base) {
  base.label = paths_[cur].label;
  base.active = active_of(cur);
  base.locks.assign(fg_.task_count(), std::nullopt);
  // Unlocked tasks keep the relative order of the path's optimal schedule.
  const PathSchedule& orig = scheds_[cur];
  base.priority.assign(fg_.task_count(), 0);
  for (TaskId t = 0; t < fg_.task_count(); ++t) {
    if (orig.scheduled(t)) base.priority[t] = -orig.slot(t).start;
  }
  base.cover_cache = &cache_;
  // Every adjustment engine run polls the merge's budget, so cancellation
  // reaches nested runs fast.
  base.budget = opts_.budget;
}

void Merger::rule3_locks_into(const Cube& ancestors, const Cube& decided,
                              const std::vector<bool>& active,
                              std::vector<std::optional<TaskLock>>& locks,
                              std::size_t* count) const {
  locks.assign(fg_.task_count(), std::nullopt);
  std::size_t found = 0;
  for (TaskId t = 0; t < fg_.task_count(); ++t) {
    if (!active[t]) continue;
    for (const TableEntry& e : table_.row(t)) {
      if (!e.column.conditions_subset_of(ancestors)) continue;
      if (!e.column.compatible(decided)) continue;
      locks[t] = TaskLock{e.start, e.resource};
      ++found;
      if (opts_.trace) {
        std::cerr << "[merge]   lock " << fg_.task(t).name << " @"
                  << e.start << " from column " << e.column.to_string()
                  << "\n";
      }
      break;
    }
  }
  if (count != nullptr) *count = found;
}

WalkSchedule Merger::resolve_conflicts(EngineRequest& base, std::size_t cur,
                                       PathSchedule adjusted) {
  const Cube& label = paths_[cur].label;
  WalkSchedule w = walk_schedule(std::move(adjusted), label);
  // §5.2 conflict handling. Each iteration pins one more task, so the
  // loop terminates after at most task_count iterations.
  while (true) {
    std::optional<TaskId> conflict_task;
    for (TaskId t : w.order) {
      if (base.locks[t]) continue;
      const Slot& slot = w.sched.slot(t);
      const Cube col = column_at(w.knowledge, slot);
      if (table_.has_conflict(t, col, slot.start, slot.resource)) {
        conflict_task = t;
        break;
      }
    }
    if (!conflict_task) break;
    const TaskId t = *conflict_task;
    const Slot slot = w.sched.slot(t);  // copy: a move replaces w.sched
    const Cube col = column_at(w.knowledge, slot);
    const std::vector<TableEntry> candidates =
        table_.conflicting_entries(t, col, slot.start, slot.resource);
    ++stats_.conflicts;
    if (opts_.trace) {
      std::cerr << "[merge]   CONFLICT on " << fg_.task(t).name << " at "
                << slot.start << " col " << col.to_string() << " with "
                << candidates.size() << " entries\n";
    }

    // Trial runs pin the task to each candidate in turn; base.locks[t] is
    // unset here (the scan skips locked tasks) and is overwritten below
    // whether a candidate is taken or not.
    bool resolved = false;
    for (const TableEntry& cand : candidates) {
      base.locks[t] = TaskLock{cand.start, cand.resource};
      EngineResult tr = run_list_scheduler(fg_, base, walk_ws_);
      if (!tr.feasible) continue;
      std::vector<LiteralKnowledge> knowledge =
          knowledge_of(tr.schedule, label);
      const Slot& moved = tr.schedule.slot(t);
      const Cube moved_col = column_at(knowledge, moved);
      if (table_.has_conflict(t, moved_col, moved.start, moved.resource)) {
        continue;
      }
      w.order = tr.schedule.tasks_by_start();
      w.sched = std::move(tr.schedule);
      w.knowledge = std::move(knowledge);
      ++stats_.conflict_moves;
      resolved = true;
      break;
    }
    if (opts_.trace && resolved) {
      std::cerr << "[merge]   resolved by move\n";
    }
    if (!resolved) {
      if (opts_.trace) std::cerr << "[merge]   UNRESOLVED\n";
      // Theorem 2 guarantees a candidate on well-formed inputs; if none
      // worked, freeze the task where it is so the walk terminates and let
      // the validator surface the residual nondeterminism.
      ++stats_.unresolved_conflicts;
      base.locks[t] = TaskLock{slot.start, slot.resource};
    }
  }
  return w;
}

WalkSchedule Merger::adjust(const Cube& ancestors, const Cube& decided,
                            std::size_t cur) {
  CPS_FAULT_POINT("merge.adjust");
  ++stats_.adjustments;
  if (opts_.trace) {
    std::cerr << "[merge] adjust path " << cur << " label "
              << paths_[cur].label.to_string() << " decided "
              << decided.to_string() << " ancestors "
              << ancestors.to_string() << "\n";
  }
  EngineRequest& base = walk_base_;
  fill_base_request(cur, base);
  std::size_t lock_count = 0;
  rule3_locks_into(ancestors, decided, base.active, base.locks, &lock_count);
  stats_.locks += lock_count;

  // Engine run + lock-relaxation loop (paper §5.1): a rule-3 lock that
  // turns out infeasible on the new path is dropped (rare; counted).
  std::size_t relaxed = 0;
  EngineResult result;
  while (true) {
    result = run_list_scheduler(fg_, base, walk_ws_);
    if (result.feasible) break;
    // An interrupted run (cancel/deadline/step budget) is NOT lock
    // infeasibility: relaxing locks cannot un-cancel it, so bail out
    // before the relaxation loop spins the engine again.
    if (is_interrupt(result.code)) {
      throw MergeInfeasible{result.code, result.reason};
    }
    if (result.offending_lock && base.locks[*result.offending_lock]) {
      if (opts_.trace) {
        std::cerr << "[merge]   RELAX lock on "
                  << fg_.task(*result.offending_lock).name << " ("
                  << result.reason << ")\n";
      }
      base.locks[*result.offending_lock].reset();
      ++relaxed;
      continue;
    }
    // No relaxable lock left: the adjustment cannot be scheduled. This
    // never happens on validated CPGs; report it instead of aborting so
    // Release callers get a recoverable MergeResult error.
    throw MergeInfeasible{ErrorCode::kUnschedulable,
                          "adjustment unschedulable: " + result.reason};
  }
  stats_.relaxed_locks += relaxed;
  return resolve_conflicts(base, cur, std::move(result.schedule));
}

void Merger::dfs(const Cube& decided, std::size_t cur, const WalkSchedule& w,
                 std::vector<bool> done) {
  // One budget poll per decision-tree node: cheap (token-only most
  // polls), and bounded — a node does at most one adjustment engine run,
  // which polls internally. A trip here unwinds through the walk.
  {
    const ErrorCode trip = poll_.poll();
    if (trip != ErrorCode::kOk) {
      throw MergeInfeasible{
          trip, std::string("schedule merging interrupted: ") +
                    to_string(trip)};
    }
  }
  const Cube& label = paths_[cur].label;

  // Next undecided condition to be computed according to the current
  // schedule (the next node of the decision tree on this branch): the
  // earliest disjunction end; the knowledge table is in condition order,
  // so the smallest condition id wins ties.
  Time tau = kInf;
  CondId next_cond = 0;
  bool branching = false;
  for (const LiteralKnowledge& k : w.knowledge) {
    if (decided.mentions(k.lit.cond)) continue;
    if (!branching || k.own < tau) {
      tau = k.own;
      next_cond = k.lit.cond;
      branching = true;
    }
  }

  // Fix start times from the current schedule into the table, in
  // chronological order up to the branching moment (everything, on a
  // leaf).
  for (TaskId t : w.order) {
    if (branching && w.sched.slot(t).start >= tau) break;
    if (done[t]) continue;
    place(w, t);
    done[t] = true;
  }
  if (!branching) return;  // leaf of the decision tree

  const bool value = *label.value_of(next_cond);
  auto same = decided.conjoin(Literal{next_cond, value});
  auto flip = decided.conjoin(Literal{next_cond, !value});
  CPS_ASSERT(same && flip, "branching condition was undecided");

  // Follow the current schedule (no back-step).
  dfs(*same, cur, w, done);

  // Back-step: explore the opposite condition value. The adjustment reads
  // the table the sibling subtree just filled (rule 3), so it runs here,
  // after that subtree.
  const auto reachable = reachable_under(*flip);
  if (!reachable.empty()) {
    ++stats_.backsteps;
    const std::size_t flip_cur = select(reachable);
    const WalkSchedule adjusted = adjust(decided, *flip, flip_cur);
    dfs(*flip, flip_cur, adjusted, done);
  }
}

MergeResult Merger::run() {
  CPS_REQUIRE(!paths_.empty(), "merge needs at least one path");
  CPS_REQUIRE(paths_.size() == scheds_.size(),
              "paths/schedules size mismatch");

  label_masks_ = collect_label_masks(paths_);
  deltas_.resize(paths_.size());
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    deltas_[i] = scheds_[i].delay(fg_);
  }
  std::vector<std::size_t> all(paths_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::size_t cur = select(all);

  bool ok = true;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  try {
    dfs(Cube::top(), cur, walk_schedule(scheds_[cur], paths_[cur].label),
        std::vector<bool>(fg_.task_count(), false));
  } catch (const MergeInfeasible& e) {
    ok = false;
    code = e.code;
    error = e.reason;
  }
  return MergeResult{std::move(table_), stats_, cache_.stats(), walk_ws_.stats,
                     ok, code, std::move(error)};
}

}  // namespace

MergeResult merge_schedules(const FlatGraph& fg,
                            const std::vector<AltPath>& paths,
                            const std::vector<PathSchedule>& schedules,
                            const MergeOptions& options) {
  Merger merger(fg, paths, schedules, options);
  return merger.run();
}

}  // namespace cps
