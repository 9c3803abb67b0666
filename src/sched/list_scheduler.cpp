#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/error.hpp"
#include "support/fault.hpp"

namespace cps {

namespace {

constexpr Time kInf = std::numeric_limits<Time>::max();

bool any_lock(const std::vector<std::optional<TaskLock>>& locks) {
  for (const auto& l : locks) {
    if (l.has_value()) return true;
  }
  return false;
}

/// The engine proper. All mutable state lives in the EngineWorkspace so
/// repeated runs reuse capacity; the Engine object itself is a cheap
/// per-run view binding the workspace buffers to their historical names.
class Engine {
 public:
  Engine(const FlatGraph& fg, const EngineRequest& request,
         EngineWorkspace& ws)
      : fg_(fg),
        req_(request),
        ws_(ws),
        label_(ws.label),
        active_(ws.active),
        active_list_(ws.active_list),
        priority_(ws.priority),
        locks_(ws.locks),
        sched_(ws.sched),
        pending_(ws.pending),
        dep_ready_(ws.dep_ready),
        started_(ws.started),
        finished_(ws.finished),
        busy_until_(ws.busy_until),
        running_(ws.running),
        known_(ws.known),
        seq_(ws.seq),
        known_pos_(ws.known_pos),
        known_neg_(ws.known_neg),
        ready_(ws.ready),
        dirty_(ws.dirty),
        hw_ready_(ws.hw_ready),
        bcast_pending_(ws.bcast_pending),
        lock_order_(ws.lock_order),
        locks_on_res_(ws.locks_on_res),
        lock_res_next_(ws.lock_res_next),
        act_(ws.act),
        cond_known_(ws.cond_known) {}

  EngineResult run();

 private:
  bool heap_mode() const {
    return req_.selection == ReadySelection::kHeap;
  }
  bool active(TaskId t) const { return active_[t] != 0; }
  bool locked(TaskId t) const {
    return !locks_.empty() && locks_[t].has_value();
  }
  const TaskLock& lock(TaskId t) const { return *locks_[t]; }

  bool deps_done(TaskId t, Time now) const {
    return pending_[t] == 0 && dep_ready_[t] <= now;
  }

  // ---- reference engine (pre-heap): full scans, direct DNF evaluation.

  /// Condition-knowledge check for starting task t at `now` on `res`.
  bool knowledge_ok_reference(TaskId t, Time now, PeId res) const;

  /// Does [now, now+dur) avoid every unstarted lock reservation on `res`?
  bool fits_reference(PeId res, Time now, Time dur) const;

  bool try_starts_reference(Time now);

  // ---- heap engine: lazy ready heaps, guard masks, memoized covers.

  bool knowledge_ok_fast(TaskId t, PeId res) const;
  bool guard_covered(const Dnf& guard, const TaskGuardInfo& info,
                     PeId res) const;
  bool guard_disjoint(const Dnf& guard, const TaskGuardInfo& info,
                      PeId res) const;
  /// Conditions known on `res` (restricted to `mention` in masks mode) as
  /// a context cube for the exact fallback checks.
  Cube known_context(PeId res, std::uint64_t mention) const;
  Cube known_context_full(PeId res) const;

  bool fits_fast(PeId res, Time now, Time dur) const;
  void enqueue_ready(TaskId t);
  /// Queue `res` for the next step-3 visit (sequential resources only).
  void mark_dirty(PeId res) {
    if (seq_[res]) dirty_[res >> 6] |= std::uint64_t{1} << (res & 63);
  }
  bool try_starts_heap(Time now);
  /// Sort the active locks by (start, id) into lock_order_ and the
  /// per-resource lists, and reset their cursors.
  void init_lock_order();

  // ---- checkpoint resume (EngineResume::kCheckpoint).

  bool history_guard_matches(const EngineHistory& h) const;
  /// Earliest time the new request's guard assignment (label, active set,
  /// priorities) can influence the recorded run: every checkpoint strictly
  /// before it restores a state the new run provably reaches unchanged
  /// (see the prefix-equality argument below).
  Time guard_divergence_limit(const EngineHistory& h) const;
  void restore_checkpoint(const EngineHistory& h, const EngineCheckpoint& ck);
  void maybe_record(Time now, std::size_t steps);
  void finalize_history(bool feasible);

  // ---- shared machinery.

  bool try_starts(Time now) {
    return heap_mode() ? try_starts_heap(now) : try_starts_reference(now);
  }
  /// After the fixpoint at `now`: the lowest-id lock reserved at or before
  /// `now` that has not started (the run then fails on it), if any.
  std::optional<TaskId> missed_lock(Time now);
  /// Earliest reservation of a lock that has not started (kInf if none).
  Time next_lock_start() const;
  void start_task(TaskId t, Time now, PeId res);
  void complete_task(TaskId t, Time now);
  /// Record that `c`'s value became known on `res` at `when` (knowledge
  /// words / time matrix, first-known tracking). Shared by live
  /// completions and the checkpoint-restore replay.
  void learn(PeId res, CondId c, Time when);
  EngineResult infeasible(TaskId t, const std::string& reason);
  /// Result of a budget trip (cancel/deadline/step budget): infeasible
  /// with the interrupt code, a partially recorded history invalidated
  /// (a truncated run must never pose as a recorded outcome). The
  /// workspace needs no cleanup — every run re-initializes it.
  EngineResult interrupted(ErrorCode code);

  const FlatGraph& fg_;
  const EngineRequest& req_;  ///< validated, then snapshotted into ws_
  EngineWorkspace& ws_;
  CoverCache* cache_ = nullptr;
  bool recording_ = false;     ///< history metadata maintained this run
  bool record_ckpts_ = false;  ///< per-step checkpoints recorded this run

  // Workspace buffers under their historical names. The engine
  // deliberately runs its hot loops against these engine-owned snapshots:
  // measured on the fig6 workload, touching caller-built storage (whether
  // borrowed by reference or moved in) costs ~3x in per-path scheduling
  // time. The workspace keeps the snapshot capacity warm across runs.
  Cube& label_;
  std::vector<char>& active_;
  std::vector<TaskId>& active_list_;  // active tasks in id order
  std::vector<std::int64_t>& priority_;
  std::vector<std::optional<TaskLock>>& locks_;

  PathSchedule& sched_;
  std::vector<std::size_t>& pending_;   // unfinished active preds
  std::vector<Time>& dep_ready_;        // max end over finished preds
  std::vector<char>& started_;
  std::vector<char>& finished_;
  // Sequential resource occupancy: end time of the running task (or -1).
  std::vector<Time>& busy_until_;
  // Running tasks (for event extraction and completion processing).
  std::vector<TaskId>& running_;
  // known_[res][cond]: time from which `cond` is known on `res` (kInf if
  // not yet known).
  std::vector<std::vector<Time>>& known_;

  // Per-resource "executes one task at a time" flags, cached once per run
  // (Architecture::pe() bounds-checks on every call; the hot loops ask
  // hundreds of thousands of times per merge).
  std::vector<char>& seq_;

  std::size_t remaining_ = 0;

  // Heap-mode state. Knowledge doubles as per-resource bitmasks over the
  // path label so guard coverage is a couple of AND/CMP instructions.
  // When the masks are exact (condition count <= 64) the time matrix
  // known_ is not maintained at all in heap mode.
  bool use_masks_ = false;
  std::vector<std::uint64_t>& known_pos_;  // by PeId
  std::vector<std::uint64_t>& known_neg_;  // by PeId
  std::vector<ReadyHeap>& ready_;          // by PeId (sequential only)
  // Sequential resources to visit in the next step-3 pass (bitset over
  // PeId). A resource is marked when it is freed (a task on it
  // completes), given a ready task, or taught a condition: the only
  // events that can turn a failed visit into a start. Starting a lock
  // needs no mark of its own: the lock keeps its resource busy, and its
  // completion frees it. Every other visit of a full scan finds the same
  // busy resource, empty heap, or blocked candidates as the resource's
  // last visit, so skipping it changes nothing.
  std::vector<std::uint64_t>& dirty_;
  std::vector<TaskId>& hw_ready_;          // dep-ready hardware tasks
  std::vector<TaskId>& bcast_pending_;     // unstarted broadcast tasks
  // Lock reservations as events: the active locked tasks sorted by
  // (start, id), and the same order split by lock resource. The clock
  // stops at every lock start and a lock missed at its start fails the
  // run, so every unstarted lock starts at or after `now`. lock_next_ is
  // the first lock in lock_order_ the clock has not yet passed;
  // lock_res_next_[res] is the earliest unstarted lock on `res`.
  std::vector<TaskId>& lock_order_;
  std::size_t lock_next_ = 0;
  std::vector<std::vector<TaskId>>& locks_on_res_;  // by PeId
  std::vector<std::size_t>& lock_res_next_;         // by PeId

  // act_[t]: time the last active predecessor of t completed — the first
  // moment t could possibly start (kInf if it never happened). Drives the
  // checkpoint divergence analysis.
  std::vector<Time>& act_;
  // cond_known_[c]: earliest time condition c became known on any
  // resource (kInf if never; maintained only while recording). Drives the
  // guard-divergence analysis.
  std::vector<Time>& cond_known_;
};

// --------------------------------------------------------------------------
// Reference engine (kLinearScan). This is the seed implementation, kept
// verbatim: the equivalence tests prove the heap engine reproduces its
// schedules, and the benchmarks quote speedups against it.

bool Engine::knowledge_ok_reference(TaskId t, Time now, PeId res) const {
  if (!req_.enforce_knowledge) return true;
  const Task& task = fg_.task(t);
  const bool conjunction =
      task.origin_process &&
      fg_.cpg().process(*task.origin_process).conjunction;
  if (task.guard.is_true() && !conjunction) return true;

  Cube known_cube;
  for (CondId c = 0; c < fg_.cpg().conditions().size(); ++c) {
    const auto value = label_.value_of(c);
    if (!value) continue;
    if (known_[res][c] > now) continue;
    auto next = known_cube.conjoin(Literal{c, *value});
    CPS_ASSERT(next.has_value(), "known cube cannot contradict itself");
    known_cube = std::move(*next);
  }
  if (!task.guard.covered_by_context(known_cube)) return false;

  // Conjunction processes (and the sink) are activated by whichever input
  // alternative is selected, so their start time varies with conditions
  // their own guard may not mention. A deterministic time-triggered
  // scheduler on M(t) must be able to tell the alternatives apart:
  // require that the known conditions *decide* the activity of every
  // predecessor (paper §5.2, the premise behind Theorem 1).
  if (conjunction) {
    for (EdgeId e : fg_.deps().in_edges(t)) {
      const TaskId pred = fg_.deps().edge(e).src;
      const Dnf& pg = fg_.task(pred).guard;
      if (pg.is_true()) continue;
      if (active_[pred]) {
        if (!pg.covered_by_context(known_cube)) return false;
      } else {
        if (!pg.and_cube(known_cube).is_false()) return false;
      }
    }
  }
  return true;
}

bool Engine::fits_reference(PeId res, Time now, Time dur) const {
  if (locks_.empty()) return true;
  if (!fg_.arch().pe(res).sequential()) return true;
  for (TaskId t = 0; t < fg_.task_count(); ++t) {
    if (!active(t) || started_[t] || !locked(t)) continue;
    const TaskLock& l = *locks_[t];
    if (l.resource != res) continue;
    const Time lock_end = l.start + fg_.task(t).duration;
    if (l.start < now + dur && now < lock_end) return false;
    // Zero-length occupations still forbid covering them with a running
    // task: a lock at time s inside (now, now+dur) must stay reachable.
    if (fg_.task(t).duration == 0 && l.start >= now && l.start < now + dur) {
      return false;
    }
  }
  return true;
}

bool Engine::try_starts_reference(Time now) {
  bool any = false;

  // 1. Locked tasks reaching their fixed start time. A lock that cannot
  //    start exactly at its reserved moment makes the request infeasible;
  //    that is detected here and reported by run().
  for (TaskId t = 0; t < fg_.task_count(); ++t) {
    if (!active(t) || started_[t] || !locked(t)) continue;
    if (lock(t).start != now) continue;
    // Feasibility is re-checked in run() via pending_failure_; here we
    // only start locks whose prerequisites hold.
    if (!deps_done(t, now)) continue;
    if (!knowledge_ok_reference(t, now, lock(t).resource)) continue;
    const PeId res = lock(t).resource;
    if (fg_.arch().pe(res).sequential() && busy_until_[res] > now) continue;
    start_task(t, now, res);
    any = true;
  }

  // 2. Broadcast tasks: as soon as possible on the first available
  //    all-connecting bus.
  if (fg_.broadcasts_enabled()) {
    for (TaskId t = 0; t < fg_.task_count(); ++t) {
      const Task& task = fg_.task(t);
      if (!task.is_broadcast() || !active(t) || started_[t] || locked(t)) {
        continue;
      }
      if (!deps_done(t, now)) continue;
      for (PeId bus : fg_.broadcast_buses()) {
        if (busy_until_[bus] > now) continue;
        if (!fits_reference(bus, now, task.duration)) continue;
        if (!knowledge_ok_reference(t, now, bus)) continue;
        start_task(t, now, bus);
        any = true;
        break;
      }
    }
  }

  // 3. Unlocked tasks on sequential resources: per free resource pick the
  //    ready task with the highest priority.
  for (PeId res : fg_.used_resources()) {
    if (!fg_.arch().pe(res).sequential()) continue;
    bool started_one = true;
    while (started_one) {  // zero-duration tasks free the resource again
      started_one = false;
      if (busy_until_[res] > now) break;
      TaskId best = 0;
      bool have = false;
      for (TaskId t = 0; t < fg_.task_count(); ++t) {
        const Task& task = fg_.task(t);
        if (task.is_broadcast() || task.resource != res) continue;
        if (!active(t) || started_[t] || locked(t)) continue;
        if (!deps_done(t, now)) continue;
        if (!fits_reference(res, now, task.duration)) continue;
        if (!knowledge_ok_reference(t, now, res)) continue;
        if (!have || priority_[t] > priority_[best] ||
            (priority_[t] == priority_[best] && t < best)) {
          best = t;
          have = true;
        }
      }
      if (have) {
        start_task(best, now, res);
        any = true;
        started_one = true;
      }
    }
  }

  // 4. Hardware resources run everything that is ready.
  for (TaskId t = 0; t < fg_.task_count(); ++t) {
    const Task& task = fg_.task(t);
    if (task.is_broadcast() || active(t) == false || started_[t]) continue;
    if (locked(t)) continue;
    if (fg_.arch().pe(task.resource).sequential()) continue;
    if (!deps_done(t, now)) continue;
    if (!knowledge_ok_reference(t, now, task.resource)) continue;
    start_task(t, now, task.resource);
    any = true;
  }

  return any;
}

// --------------------------------------------------------------------------
// Heap engine (kHeap).

Cube Engine::known_context(PeId res, std::uint64_t mention) const {
  // The knowledge words and the cube share the packed representation, so
  // the context is two masked copies — no literal vector, no allocation.
  return Cube::from_masks(known_pos_[res] & mention,
                          known_neg_[res] & mention);
}

Cube Engine::known_context_full(PeId res) const {
  // Fallback for models with more than 64 conditions: rebuild the known
  // cube from the time matrix (any already-recorded time is in the past).
  Cube known_cube;
  for (CondId c = 0; c < fg_.cpg().conditions().size(); ++c) {
    const auto value = label_.value_of(c);
    if (!value) continue;
    if (known_[res][c] == kInf) continue;
    auto next = known_cube.conjoin(Literal{c, *value});
    CPS_ASSERT(next.has_value(), "known cube cannot contradict itself");
    known_cube = std::move(*next);
  }
  return known_cube;
}

bool Engine::guard_covered(const Dnf& guard, const TaskGuardInfo& info,
                           PeId res) const {
  if (info.trivially_true) return true;
  if (use_masks_) {
    // A cube whose literals are all known true on the resource covers the
    // whole guard; for single-cube guards this test is exact.
    for (const GuardCubeMask& cube : info.cubes) {
      if (cube.covered_by(known_pos_[res], known_neg_[res])) return true;
    }
    if (info.cubes.size() <= 1) return false;
    // All mentioned conditions decided but no cube satisfied: not covered.
    if ((info.mention & ~(known_pos_[res] | known_neg_[res])) == 0) {
      return false;
    }
    return cache_->covered(guard, known_context(res, info.mention));
  }
  return cache_->covered(guard, known_context_full(res));
}

bool Engine::guard_disjoint(const Dnf& guard, const TaskGuardInfo& info,
                            PeId res) const {
  if (info.trivially_true) return false;
  if (use_masks_) {
    // guard & known == false iff every cube of the guard contradicts a
    // known condition value (exact, no fallback needed).
    for (const GuardCubeMask& cube : info.cubes) {
      if (!cube.conflicts(known_pos_[res], known_neg_[res])) return false;
    }
    return true;
  }
  return cache_->disjoint(guard, known_context_full(res));
}

bool Engine::knowledge_ok_fast(TaskId t, PeId res) const {
  if (!req_.enforce_knowledge) return true;
  const TaskGuardInfo& info = fg_.guard_info(t);
  if (info.trivially_true && !info.conjunction) return true;
  if (!guard_covered(fg_.task(t).guard, info, res)) return false;
  if (info.conjunction) {
    for (TaskId pred : info.guarded_preds) {
      const TaskGuardInfo& pinfo = fg_.guard_info(pred);
      if (active_[pred]) {
        if (!guard_covered(fg_.task(pred).guard, pinfo, res)) return false;
      } else {
        if (!guard_disjoint(fg_.task(pred).guard, pinfo, res)) return false;
      }
    }
  }
  return true;
}

bool Engine::fits_fast(PeId res, Time now, Time dur) const {
  // Every unstarted lock on `res` starts at or after `now`, so
  // [now, now + dur) avoids them all (zero-length ones included) iff it
  // ends by the earliest one — the reference's overlap tests reduce to
  // this single comparison.
  if (!seq_[res]) return true;
  const std::vector<TaskId>& on_res = locks_on_res_[res];
  const std::size_t next = lock_res_next_[res];
  return next == on_res.size() || lock(on_res[next]).start >= now + dur;
}

void Engine::init_lock_order() {
  lock_order_.clear();
  for (std::vector<TaskId>& on_res : locks_on_res_) on_res.clear();
  locks_on_res_.resize(fg_.arch().pe_count());
  lock_res_next_.assign(fg_.arch().pe_count(), 0);
  lock_next_ = 0;
  if (locks_.empty()) return;
  for (TaskId t : active_list_) {
    if (locked(t)) lock_order_.push_back(t);
  }
  // Same-start locks keep id order: step 1 starts them in that order and
  // the lowest-id miss is the reported offending lock.
  std::sort(lock_order_.begin(), lock_order_.end(), [this](TaskId a, TaskId b) {
    const Time sa = lock(a).start;
    const Time sb = lock(b).start;
    return sa != sb ? sa < sb : a < b;
  });
  for (TaskId t : lock_order_) locks_on_res_[lock(t).resource].push_back(t);
}

void Engine::enqueue_ready(TaskId t) {
  // Called when the last active predecessor of `t` completes (and at
  // initialization for predecessor-free tasks). Locked tasks start via
  // their reservation, broadcast tasks via the pending list.
  if (!active(t) || started_[t] || locked(t)) return;
  if (fg_.is_broadcast(t)) return;
  const PeId res = fg_.resource(t);
  if (seq_[res]) {
    ready_[res].push(ReadyEntry{priority_[t], t});
    mark_dirty(res);
  } else {
    hw_ready_.push_back(t);
  }
}

bool Engine::try_starts_heap(Time now) {
  bool any = false;

  // 1. Locked tasks reaching their fixed start time: the locks from the
  //    cursor up to the first later reservation, in id order.
  for (std::size_t i = lock_next_; i < lock_order_.size(); ++i) {
    const TaskId t = lock_order_[i];
    if (lock(t).start > now) break;
    if (started_[t]) continue;
    if (!deps_done(t, now)) continue;
    const PeId res = lock(t).resource;
    if (!knowledge_ok_fast(t, res)) continue;
    if (seq_[res] && busy_until_[res] > now) continue;
    start_task(t, now, res);
    any = true;
  }

  // 2. Broadcast tasks: as soon as possible on the first available
  //    all-connecting bus.
  if (!bcast_pending_.empty()) {
    std::vector<TaskId>& still = ws_.scratch_tasks;
    still.clear();
    for (TaskId t : bcast_pending_) {
      if (started_[t]) continue;
      if (!deps_done(t, now)) {
        still.push_back(t);
        continue;
      }
      const Time dur = fg_.duration(t);
      for (PeId bus : fg_.broadcast_buses()) {
        if (busy_until_[bus] > now) continue;
        if (!fits_fast(bus, now, dur)) continue;
        if (!knowledge_ok_fast(t, bus)) continue;
        start_task(t, now, bus);
        any = true;
        break;
      }
      if (!started_[t]) still.push_back(t);
    }
    bcast_pending_.swap(still);
  }

  // 3. Sequential resources marked dirty (see dirty_), in PeId order as
  //    a scan of used_resources() would visit them: a resource dirtied
  //    mid-pass above the cursor is visited in this pass, one at or below
  //    it in the next. A visit pops the ready heap in priority order;
  //    candidates blocked by a lock window or missing condition knowledge
  //    are parked and re-armed after the next successful start (a
  //    zero-duration chain may have changed the knowledge state).
  std::vector<ReadyEntry>& deferred = ws_.scratch_deferred;
  for (std::size_t w = 0; w < dirty_.size(); ++w) {
    std::uint64_t ahead = ~std::uint64_t{0};
    while (const std::uint64_t bits = dirty_[w] & ahead) {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
      dirty_[w] &= ~(std::uint64_t{1} << b);
      ahead = b == 63 ? 0 : ~std::uint64_t{0} << (b + 1);
      const PeId res = static_cast<PeId>(w * 64 + b);
      ReadyHeap& heap = ready_[res];
      deferred.clear();
      while (busy_until_[res] <= now && !heap.empty()) {
        const ReadyEntry entry = heap.top();
        heap.pop();
        const TaskId t = entry.id;
        if (started_[t]) continue;  // stale entry
        if (!fits_fast(res, now, fg_.duration(t)) ||
            !knowledge_ok_fast(t, res)) {
          deferred.push_back(entry);
          continue;
        }
        start_task(t, now, res);
        any = true;
        for (const ReadyEntry& d : deferred) heap.push(d);
        deferred.clear();
      }
      for (const ReadyEntry& d : deferred) heap.push(d);
    }
  }

  // 4. Hardware resources run everything that is ready (the queue may grow
  //    while iterating: zero-duration completions enqueue successors).
  std::vector<TaskId>& hw_still = ws_.scratch_tasks;
  hw_still.clear();
  for (std::size_t i = 0; i < hw_ready_.size(); ++i) {
    const TaskId t = hw_ready_[i];
    if (started_[t]) continue;
    const PeId res = fg_.resource(t);
    if (!knowledge_ok_fast(t, res)) {
      hw_still.push_back(t);
      continue;
    }
    start_task(t, now, res);
    any = true;
  }
  hw_ready_.swap(hw_still);

  return any;
}

// --------------------------------------------------------------------------
// Checkpoint resume.
//
// A recorded run A (checkpoint stream, per-task first-startable times
// act, per-condition first-known times cond_known) and a new run B on the
// same graph that differs in its *guard assignment* — a different path
// label, and with it different active sets and priorities (lock sets
// empty on both sides, knowledge rule enforced) — replay identically for
// a while. Two complete path labels of one graph decide at least one
// condition oppositely; call those the divergent conditions. Then through
// any T strictly before both (a) the first time any divergent condition
// became known on any resource in run A (cond_known) and (b) the
// first-startable time act(t) of any task active in both runs with
// differing priorities, the runs replay identically:
//
//  * a task whose activity differs has a guard whose truth value differs
//    under the two labels, so covering it (to start it) or refuting it
//    (to pass the conjunction check) requires a known context that
//    decides some divergent condition — if every known value were common
//    to both labels, the guard would evaluate identically under both.
//    Conditions become known only at task completions, recorded in
//    cond_known, so before (a) no differing-activity task has started on
//    either run, and none of its knock-on effects (resource occupancy,
//    completions, knowledge updates) exists;
//  * a conjunction task active in both runs whose predecessor activity
//    differs is blocked by the same argument (the conjunction check must
//    decide every guarded predecessor's activity). Non-conjunction tasks
//    cannot have predecessors of differing activity while active in both
//    runs — validated CPGs give non-conjunction processes guards that
//    imply every predecessor's guard — and guard_divergence_limit refuses
//    to resume if one appears anyway;
//  * a task active in both runs with equal priorities behaves
//    identically; with differing priorities it can steer a ready-heap pop
//    from the moment it first becomes ready, bounded by (b).
//
// Checkpoints store only request-independent state (schedule, flags,
// occupancy, knowledge); restore_checkpoint rebuilds everything
// request-dependent — pending counts, dep-ready/act times, ready heaps,
// the broadcast list — from the *resuming* request. Under those bounds,
// restoring A's checkpoint at T and continuing with B's request is
// byte-identical to running B from scratch (equivalence-tested in
// test_list_scheduler / test_path_tree). Requests with locks (the merge's
// rule-3 adjustments) never touch a history: they run from scratch.

bool Engine::history_guard_matches(const EngineHistory& h) const {
  // Same graph, knowledge rule enforced — the divergence analysis leans
  // on guarded tasks being unable to start before their divergent
  // conditions are known. A feasible recorded run is also required:
  // per-path runs of validated CPGs never deadlock, so an infeasible
  // record means malformed input (e.g. a hand-corrupted active set) where
  // the equivalence reasoning has no footing.
  return h.graph_uid == fg_.uid() &&
         h.task_count == fg_.task_count() &&
         h.feasible && h.enforce_knowledge && req_.enforce_knowledge &&
         h.cond_known.size() == fg_.cpg().conditions().size();
}

Time Engine::guard_divergence_limit(const EngineHistory& h) const {
  Time limit = kInf;
  // (a) Conditions decided oppositely by both labels gate every
  //     differing-activity task (see the prefix-equality argument above).
  bool divergent = false;
  for (CondId c = 0; c < fg_.cpg().conditions().size(); ++c) {
    const auto a = h.label.value_of(c);
    const auto b = label_.value_of(c);
    if (a == b) continue;
    if (a && b) {
      divergent = true;
      limit = std::min(limit, h.cond_known[c]);
    }
  }
  // Distinct complete path labels of one graph are pairwise incompatible,
  // so a both-decided divergent condition must exist; refuse anything
  // else (identical labels, partial contexts, foreign label sets).
  if (!divergent) return 0;
  for (TaskId t = 0; t < fg_.task_count(); ++t) {
    if (h.active[t] && active_[t]) {
      // (b) Common tasks with differing priorities steer ready-heap pops
      //     from the moment they first become ready in the recorded run.
      //     Only sequential-resource non-broadcast tasks ever consult
      //     their priority: hardware tasks start whenever ready and
      //     broadcasts go by task-id order on the first free bus.
      if (h.priority[t] != priority_[t] && !fg_.is_broadcast(t) &&
          seq_[fg_.resource(t)]) {
        limit = std::min(limit, h.act[t]);
      }
    } else if (h.active[t] != active_[t]) {
      // Belt: a non-conjunction successor active in both runs is not
      // knowledge-gated on this differing predecessor. Validated CPGs
      // cannot produce one (see the argument above) — refuse to resume
      // rather than risk a silent divergence on a hand-built model.
      for (TaskId succ : fg_.succs(t)) {
        if (h.active[succ] && active_[succ] &&
            !fg_.guard_info(succ).conjunction) {
          return 0;
        }
      }
    }
  }
  return limit;
}

void Engine::restore_checkpoint(const EngineHistory& h,
                                const EngineCheckpoint& ck) {
  // The engine state was just initialized from scratch for this request;
  // replaying the recorded log prefix on top reproduces the shared
  // prefix's request-independent state: through the divergence limit both
  // runs committed byte-identical steps, so the recorded starts are the
  // resuming run's own. A start with end <= ck.now has completed by the
  // checkpoint (completions at `now` are processed before the step at
  // `now` is recorded; zero-duration tasks complete at their start).
  for (std::size_t i = 0; i < ck.log_pos; ++i) {
    const StartEvent& e = h.log[i];
    const Task& task = fg_.task(e.task);
    started_[e.task] = 1;
    sched_.place(e.task, e.start, e.end, e.resource);
    if (e.end > ck.now) {
      running_.push_back(e.task);  // log order = start order = natural
      if (seq_[e.resource]) busy_until_[e.resource] = e.end;
      continue;
    }
    finished_[e.task] = 1;
    if (e.end > e.start && seq_[e.resource]) {
      busy_until_[e.resource] = e.end;
    }
    // Knowledge is a pure function of the finished prefix and the label;
    // prefix conditions are common to both runs, so the current label
    // supplies the same values the recorded run learned.
    if (task.computes) {
      const CondId c = *task.computes;
      learn(e.resource, c, e.end);
      if (!fg_.broadcasts_enabled()) {
        for (PeId r = 0; r < fg_.arch().pe_count(); ++r) learn(r, c, e.end);
      }
    }
    if (task.broadcasts) {
      const CondId c = *task.broadcasts;
      for (PeId r = 0; r < fg_.arch().pe_count(); ++r) learn(r, c, e.end);
    }
  }

  // Everything request-dependent is rebuilt from *this* request plus the
  // replayed flags — the resuming run may differ from the recorded one in
  // its whole guard assignment (active sets, priorities), so nothing of
  // the sort is ever recorded. The rebuild reproduces exactly what a
  // from-scratch run of this request holds after the step at ck.now:
  // pending/dep-ready/act are pure functions of (active set, finished
  // set, schedule), heap contents are the ready unstarted tasks, and heap
  // pop order is a total order on (priority, id), making insertion order
  // irrelevant.
  remaining_ = 0;
  for (TaskId t : active_list_) {
    if (!finished_[t]) ++remaining_;
    bool has_pred = false;
    Time last_done = 0;
    std::size_t open = 0;
    for (TaskId pred : fg_.preds(t)) {
      if (!active(pred)) continue;
      has_pred = true;
      if (finished_[pred]) {
        last_done = std::max(last_done, sched_.slot(pred).end);
      } else {
        ++open;
      }
    }
    pending_[t] = open;
    dep_ready_[t] = last_done;
    act_[t] = open == 0 ? (has_pred ? last_done : 0) : kInf;
  }
  // Ready structures, in task-id order exactly like the from-scratch
  // initialization (a resuming request carries no locks). Every
  // sequential resource is dirty: a superset of the marks a from-scratch
  // run holds here is safe (an extra visit is one a full scan makes).
  bcast_pending_.clear();
  hw_ready_.clear();
  ready_.assign(fg_.arch().pe_count(), ReadyHeap());
  for (TaskId t : active_list_) {
    if (fg_.is_broadcast(t)) {
      if (!started_[t]) bcast_pending_.push_back(t);
      continue;
    }
    if (!started_[t] && pending_[t] == 0) enqueue_ready(t);
  }
  for (PeId r = 0; r < fg_.arch().pe_count(); ++r) mark_dirty(r);
}

void Engine::maybe_record(Time now, std::size_t steps) {
  EngineHistory& h = *req_.history;
  if (++h.since_record < h.stride) return;
  h.since_record = 0;
  if (h.ckpt_count == EngineHistory::kMaxCheckpoints) {
    // Thin: keep every second checkpoint, double the stride.
    for (std::size_t i = 1, j = 2; j < h.ckpt_count; ++i, j += 2) {
      h.ckpts[i] = h.ckpts[j];
    }
    h.ckpt_count = (h.ckpt_count + 1) / 2;
    h.stride *= 2;
  }
  if (h.ckpts.size() <= h.ckpt_count) h.ckpts.emplace_back();
  EngineCheckpoint& ck = h.ckpts[h.ckpt_count++];
  ck.now = now;
  ck.steps = steps;
  ck.log_pos = h.log.size();
  ++ws_.stats.checkpoints;
}

void Engine::finalize_history(bool feasible) {
  EngineHistory& h = *req_.history;
  h.graph_uid = fg_.uid();
  h.task_count = fg_.task_count();
  h.label = label_;
  h.active = active_;
  h.priority = priority_;
  h.enforce_knowledge = req_.enforce_knowledge;
  h.act = act_;
  h.cond_known = cond_known_;
  h.feasible = feasible;
  h.valid = true;
}

// --------------------------------------------------------------------------
// Shared machinery.

void Engine::start_task(TaskId t, Time now, PeId res) {
  const Time dur = fg_.duration(t);
  started_[t] = 1;
  sched_.place(t, now, now + dur, res);
  if (heap_mode() && locked(t)) {
    // Keep the resource's cursor on its earliest unstarted lock.
    const std::vector<TaskId>& on_res = locks_on_res_[res];
    std::size_t& next = lock_res_next_[res];
    while (next < on_res.size() && started_[on_res[next]]) ++next;
  }
  if (record_ckpts_) {
    req_.history->log.push_back(StartEvent{t, now, now + dur, res});
  }
  if (dur == 0) {
    complete_task(t, now);
    return;
  }
  if (seq_[res]) {
    busy_until_[res] = now + dur;
  }
  running_.push_back(t);
}

// Knowledge updates. With exact masks the per-resource words are the
// whole knowledge state (the known_ time matrix is not even allocated);
// otherwise the time matrix drives the known_context fallbacks.
void Engine::learn(PeId res, CondId c, Time when) {
  if (recording_ && cond_known_[c] > when) cond_known_[c] = when;
  mark_dirty(res);
  if (use_masks_) {
    if (const auto value = label_.value_of(c)) {
      (*value ? known_pos_ : known_neg_)[res] |= std::uint64_t{1} << c;
    }
    return;
  }
  known_[res][c] = std::min(known_[res][c], when);
}

void Engine::complete_task(TaskId t, Time now) {
  finished_[t] = 1;
  CPS_ASSERT(remaining_ > 0, "completion bookkeeping underflow");
  --remaining_;
  const Task& task = fg_.task(t);
  const PeId res = sched_.slot(t).resource;
  mark_dirty(res);  // freed
  const bool heap = heap_mode();
  for (TaskId succ : fg_.succs(t)) {
    if (!active(succ)) continue;
    CPS_ASSERT(pending_[succ] > 0, "predecessor bookkeeping underflow");
    --pending_[succ];
    dep_ready_[succ] = std::max(dep_ready_[succ], now);
    if (pending_[succ] == 0) {
      act_[succ] = now;
      if (heap) enqueue_ready(succ);
    }
  }
  if (task.computes) {
    const CondId c = *task.computes;
    learn(res, c, now);
    if (!fg_.broadcasts_enabled()) {
      // Single-resource models: the value is immediately visible (there is
      // nobody else to inform).
      for (PeId r = 0; r < fg_.arch().pe_count(); ++r) learn(r, c, now);
    }
  }
  if (task.broadcasts) {
    const CondId c = *task.broadcasts;
    for (PeId r = 0; r < fg_.arch().pe_count(); ++r) learn(r, c, now);
  }
}

std::optional<TaskId> Engine::missed_lock(Time now) {
  if (heap_mode()) {
    // Every lock before the cursor started at its reservation, and the
    // locks reserved at `now` follow it in id order, so the first
    // unstarted one is the lowest-id miss. On success the cursor moves
    // past `now`.
    for (; lock_next_ < lock_order_.size(); ++lock_next_) {
      const TaskId t = lock_order_[lock_next_];
      if (lock(t).start > now) break;
      if (!started_[t]) return t;
    }
    return std::nullopt;
  }
  for (TaskId t = 0; t < fg_.task_count(); ++t) {
    if (active(t) && locked(t) && !started_[t] && lock(t).start <= now) {
      return t;
    }
  }
  return std::nullopt;
}

Time Engine::next_lock_start() const {
  if (heap_mode()) {
    // After missed_lock passed, nothing from the cursor on has started.
    return lock_next_ < lock_order_.size()
               ? lock(lock_order_[lock_next_]).start
               : kInf;
  }
  Time next = kInf;
  for (TaskId t = 0; t < fg_.task_count(); ++t) {
    if (active(t) && locked(t) && !started_[t]) {
      next = std::min(next, lock(t).start);
    }
  }
  return next;
}

EngineResult Engine::infeasible(TaskId t, const std::string& reason) {
  EngineResult out;
  out.feasible = false;
  out.code = ErrorCode::kUnschedulable;
  out.offending_lock = t;
  out.reason = reason;
  return out;
}

EngineResult Engine::interrupted(ErrorCode code) {
  if (recording_) req_.history->invalidate();
  EngineResult out;
  out.feasible = false;
  out.code = code;
  out.reason = std::string("engine run interrupted: ") + to_string(code);
  return out;
}

EngineResult Engine::run() {
  const std::size_t n = fg_.task_count();
  CPS_REQUIRE(req_.active.size() == n, "active vector size mismatch");
  CPS_REQUIRE(req_.priority.size() == n, "priority vector size mismatch");
  CPS_REQUIRE(req_.locks.empty() || req_.locks.size() == n,
              "locks vector size mismatch");
  CPS_FAULT_POINT("engine.run");

  // Bind the workspace to this graph: the private cover cache memoizes
  // guard addresses of exactly one FlatGraph.
  if (ws_.bound_graph_uid != fg_.uid()) {
    ws_.private_cache.clear();
    ws_.bound_graph_uid = fg_.uid();
  }
  ++ws_.stats.runs;
  if (ws_.warm) ++ws_.stats.reuse_hits;
  ws_.warm = true;

  // Snapshot the request into workspace-owned storage (capacity-reusing
  // assignments; see the member comment for why the hot loops must not
  // touch caller storage).
  label_ = req_.label;
  priority_ = req_.priority;
  locks_ = req_.locks;
  // The active set as byte flags plus the active list, from one walk of
  // the request's vector<bool>; the rest of the initialization walks the
  // list.
  active_.resize(n);
  active_list_.clear();
  for (TaskId t = 0; t < n; ++t) {
    const bool on = req_.active[t];
    active_[t] = on ? 1 : 0;
    if (on) active_list_.push_back(t);
  }
  cache_ = req_.cover_cache ? req_.cover_cache : &ws_.private_cache;

  // Checkpoint resume: only the heap engine records/resumes (the
  // linear-scan reference always runs from scratch), and only lock-free
  // requests — the tree driver chaining leaves of the guard trie. A
  // history handed in with a locked request is neither read nor written.
  recording_ = req_.history != nullptr &&
               req_.resume == EngineResume::kCheckpoint && heap_mode() &&
               !any_lock(locks_);
  const bool guard_usable = recording_ && req_.history->valid &&
                            history_guard_matches(*req_.history);

  sched_.reset(n);
  pending_.assign(n, 0);
  dep_ready_.assign(n, 0);
  started_.assign(n, 0);
  finished_.assign(n, 0);
  busy_until_.assign(fg_.arch().pe_count(), -1);
  seq_.resize(fg_.arch().pe_count());
  for (PeId r = 0; r < fg_.arch().pe_count(); ++r) {
    seq_[r] = fg_.arch().pe(r).sequential() ? 1 : 0;
  }
  dirty_.assign((fg_.arch().pe_count() + 63) / 64, 0);
  use_masks_ = heap_mode() && fg_.masks_enabled();
  if (!use_masks_) {
    known_.assign(fg_.arch().pe_count(),
                  std::vector<Time>(fg_.cpg().conditions().size(), kInf));
  }
  running_.clear();
  act_.assign(n, kInf);
  remaining_ = active_list_.size();
  for (TaskId t : active_list_) {
    // Reservations come from table cells, which are non-negative; the
    // clock starts at 0, so a negative one could never be honored.
    CPS_REQUIRE(!locked(t) || lock(t).start >= 0,
                "lock reservations are non-negative");
    std::size_t open = 0;
    for (TaskId pred : fg_.preds(t)) open += active_[pred];
    pending_[t] = open;
    if (open == 0) act_[t] = 0;
  }

  if (heap_mode()) {
    known_pos_.assign(fg_.arch().pe_count(), 0);
    known_neg_.assign(fg_.arch().pe_count(), 0);
    ready_.assign(fg_.arch().pe_count(), ReadyHeap());
    init_lock_order();
    bcast_pending_.clear();
    hw_ready_.clear();
    for (TaskId t : active_list_) {
      if (locked(t)) continue;
      if (fg_.is_broadcast(t)) {
        bcast_pending_.push_back(t);
        continue;
      }
      if (pending_[t] == 0) enqueue_ready(t);
    }
  }

  Time now = 0;
  std::size_t steps = 0;
  bool resumed = false;
  bool resumed_step_pending = false;
  std::size_t resumed_steps = 0;
  if (recording_) {
    EngineHistory& h = *req_.history;
    cond_known_.assign(fg_.cpg().conditions().size(), kInf);
    Time limit = 0;
    if (guard_usable) {
      limit = guard_divergence_limit(h);
      const EngineCheckpoint* best = nullptr;
      std::size_t best_idx = 0;
      for (std::size_t i = 0; i < h.ckpt_count; ++i) {
        if (h.ckpts[i].now < limit) {
          best = &h.ckpts[i];
          best_idx = i;
        }
      }
      if (best != nullptr) {
        restore_checkpoint(h, *best);
        now = best->now;
        steps = best->steps;
        resumed = true;
        resumed_step_pending = true;  // the step at `now` is already done
        resumed_steps = best->steps;
        // The suffix belongs to the old run; the continuation re-appends.
        h.ckpt_count = best_idx + 1;
        h.log.resize(best->log_pos);
        ++ws_.stats.resumes;
        ws_.stats.resumed_steps += resumed_steps;
      }
    }
    if (!resumed) {
      h.invalidate();
      ++ws_.stats.from_scratch;
    } else {
      h.since_record = 0;
      h.valid = false;  // consistent again once finalize_history runs
    }
    // Demand-driven recording: a run of a fresh history stores only the
    // cheap per-run metadata (identity, act, outcome). This run is worth
    // checkpointing per step only if a sibling guard assignment has
    // arrived on this history — which includes this very run — and a
    // resume is plausible (limit > 0): when sibling priorities diverge
    // right at t=0 — unbalanced arm durations shift every shared
    // critical-path priority — no checkpoint can ever be restored, and
    // per-step recording would be pure overhead on every leaf of the trie.
    record_ckpts_ = guard_usable && (resumed || limit > 0);
  }

  // Bounded-interval budget polling: the cancel token every step, the
  // wall clock every BudgetPoll::kStride steps (see support/cancel.hpp).
  BudgetPoll budget_poll(req_.budget);
  while (remaining_ > 0) {
    {
      const ErrorCode trip = budget_poll.poll();
      if (trip != ErrorCode::kOk) return interrupted(trip);
    }
    // Start everything that can start at `now` (repeat until fixpoint:
    // zero-duration completions can enable further starts at this time).
    // A resumed run's first step was already committed by the recorded
    // prefix — its fixpoint is part of the restored state.
    if (!resumed_step_pending) {
      while (try_starts(now)) {
      }
    }

    if (remaining_ == 0) break;

    // A locked task whose start time has arrived but which could not be
    // started is a hard failure: the reservation cannot be honored. Heap
    // mode reads its lock cursor; the reference scans every task.
    if (const std::optional<TaskId> t = missed_lock(now)) {
      EngineResult out = infeasible(
          *t, "locked task " + fg_.task(*t).name +
                  " cannot start at its reserved time " +
                  std::to_string(lock(*t).start));
      out.resumed = resumed;
      out.resumed_steps = resumed_steps;
      return out;  // locked runs never record (see recording_)
    }

    if (!resumed_step_pending) {
      CPS_FAULT_POINT("engine.step");
      ++steps;
      if (req_.budget != nullptr &&
          req_.budget->charge_steps(1) != ErrorCode::kOk) {
        return interrupted(ErrorCode::kStepBudgetExceeded);
      }
      if (record_ckpts_) maybe_record(now, steps);
    }
    resumed_step_pending = false;

    // Advance to the next event: a completion or a future lock start.
    Time next = next_lock_start();
    for (TaskId t : running_) {
      if (!finished_[t]) next = std::min(next, sched_.slot(t).end);
    }
    if (next == kInf || next <= now) {
      EngineResult out;
      out.feasible = false;
      out.code = ErrorCode::kUnschedulable;
      out.reason = "scheduling deadlock (no startable task and no pending "
                   "event)";
      out.resumed = resumed;
      out.resumed_steps = resumed_steps;
      if (recording_) finalize_history(false);
      return out;
    }
    now = next;
    // Process completions at `now`.
    std::vector<TaskId>& still_running = ws_.scratch_running;
    still_running.clear();
    for (TaskId t : running_) {
      if (finished_[t]) continue;
      if (sched_.slot(t).end == now) {
        complete_task(t, now);
      } else {
        still_running.push_back(t);
      }
    }
    running_.swap(still_running);
  }

  EngineResult out;
  out.feasible = true;
  out.resumed = resumed;
  out.resumed_steps = resumed_steps;
  if (recording_) finalize_history(true);
  out.schedule = sched_;  // copy: the workspace keeps its capacity warm
  return out;
}

}  // namespace

EngineResult run_list_scheduler(const FlatGraph& fg,
                                const EngineRequest& request,
                                EngineWorkspace& workspace) {
  Engine engine(fg, request, workspace);
  return engine.run();
}

EngineResult run_list_scheduler(const FlatGraph& fg,
                                const EngineRequest& request) {
  EngineWorkspace workspace;
  return run_list_scheduler(fg, request, workspace);
}

EngineRequest make_path_request(const FlatGraph& fg, const AltPath& path,
                                PriorityPolicy policy, Rng* rng,
                                ReadySelection selection,
                                CoverCache* cover_cache) {
  EngineRequest req;
  req.label = path.label;
  req.active = fg.active_tasks(path.label, cover_cache);
  req.priority = compute_priorities(fg, req.active, policy, rng);
  req.selection = selection;
  req.cover_cache = cover_cache;
  return req;
}

PathSchedule schedule_path(const FlatGraph& fg, const AltPath& path,
                           PriorityPolicy policy, Rng* rng,
                           ReadySelection selection, CoverCache* cover_cache,
                           EngineWorkspace* workspace) {
  const EngineRequest req =
      make_path_request(fg, path, policy, rng, selection, cover_cache);
  EngineResult res = workspace ? run_list_scheduler(fg, req, *workspace)
                               : run_list_scheduler(fg, req);
  CPS_ASSERT(res.feasible,
             "validated CPG path must be schedulable: " + res.reason);
  return std::move(res.schedule);
}

}  // namespace cps
