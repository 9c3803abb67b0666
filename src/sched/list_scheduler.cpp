#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/error.hpp"
#include "support/fault.hpp"

namespace cps {

namespace {

constexpr Time kInf = std::numeric_limits<Time>::max();

/// The engine proper: lazy per-resource ready heaps, guard masks and
/// memoized covers. All mutable state lives in the EngineWorkspace so
/// repeated runs reuse capacity; the Engine object itself is a cheap
/// per-run view binding the workspace buffers to their historical names.
/// tests/reference_engine.hpp is its independent O(V^2) oracle.
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
        start_order_(ws.start_order),
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
        lock_res_next_(ws.lock_res_next) {}

  EngineResult run();

 private:
  bool active(TaskId t) const { return active_[t] != 0; }
  bool locked(TaskId t) const {
    return !locks_.empty() && locks_[t].has_value();
  }
  const TaskLock& lock(TaskId t) const { return *locks_[t]; }

  bool deps_done(TaskId t, Time now) const {
    return pending_[t] == 0 && dep_ready_[t] <= now;
  }

  // ---- one step: start everything startable at `now`.

  /// Condition-knowledge check for starting task t on `res`.
  bool knowledge_ok(TaskId t, PeId res) const;
  bool guard_covered(const Dnf& guard, const TaskGuardInfo& info,
                     PeId res) const;
  bool guard_disjoint(const Dnf& guard, const TaskGuardInfo& info,
                      PeId res) const;
  /// Conditions known on `res`, restricted to `mention`, as a context
  /// cube for the exact fallback checks in masks mode (past 64
  /// conditions known_[res] is that cube).
  Cube known_context(PeId res, std::uint64_t mention) const;

  /// Does [now, now+dur) avoid every unstarted lock reservation on `res`?
  bool fits(PeId res, Time now, Time dur) const;
  void enqueue_ready(TaskId t);
  /// Queue `res` for the next step-3 visit (sequential resources only).
  void mark_dirty(PeId res) {
    if (seq_[res]) dirty_[res >> 6] |= std::uint64_t{1} << (res & 63);
  }
  /// One pass of the four start steps; true if anything started.
  bool try_starts(Time now);
  /// Sort the active locks by (start, id) into lock_order_ and the
  /// per-resource lists, and reset their cursors.
  void init_lock_order();

  // ---- events.

  /// After the fixpoint at `now`: the lowest-id lock reserved at or before
  /// `now` that has not started (the run then fails on it), if any.
  std::optional<TaskId> missed_lock(Time now);
  /// Earliest reservation of a lock that has not started (kInf if none).
  Time next_lock_start() const;
  void start_task(TaskId t, Time now, PeId res);
  void complete_task(TaskId t, Time now);
  /// Record that `c`'s value is now known on `res` (knowledge words, or
  /// the known cube past 64 conditions).
  void learn(PeId res, CondId c);
  EngineResult infeasible(TaskId t, const std::string& reason);
  /// Result of a budget trip (cancel/deadline/step budget): infeasible
  /// with the interrupt code. The workspace needs no cleanup — every run
  /// re-initializes it.
  EngineResult interrupted(ErrorCode code);

  const FlatGraph& fg_;
  const EngineRequest& req_;  ///< validated, then snapshotted into ws_
  EngineWorkspace& ws_;
  CoverCache* cache_ = nullptr;

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
  // Tasks in start order: start_task runs at a non-decreasing `now`.
  std::vector<TaskId>& start_order_;
  std::vector<std::size_t>& pending_;   // unfinished active preds
  std::vector<Time>& dep_ready_;        // max end over finished preds
  std::vector<char>& started_;
  std::vector<char>& finished_;
  // Sequential resource occupancy: end time of the running task (or -1).
  std::vector<Time>& busy_until_;
  // Running tasks (for event extraction and completion processing).
  std::vector<TaskId>& running_;
  // known_[res]: the label's literals known on `res`, as a cube (models
  // with more than 64 conditions only; see use_masks_).
  std::vector<Cube>& known_;

  // Per-resource "executes one task at a time" flags, cached once per run
  // (Architecture::pe() bounds-checks on every call; the hot loops ask
  // hundreds of thousands of times per merge).
  std::vector<char>& seq_;

  std::size_t remaining_ = 0;

  // Knowledge doubles as per-resource bitmasks over the path label so
  // guard coverage is a couple of AND/CMP instructions. When the masks
  // are exact (condition count <= 64) the known cubes known_ are not
  // maintained at all.
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
};

// --------------------------------------------------------------------------
// The step.

Cube Engine::known_context(PeId res, std::uint64_t mention) const {
  // The knowledge words and the cube share the packed representation, so
  // the context is two masked copies — no literal vector, no allocation.
  return Cube::from_masks(known_pos_[res] & mention,
                          known_neg_[res] & mention);
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
  // Past the packed masks the same exact tests run on the known cube;
  // only a multi-cube guard that no single cube covers needs the cache.
  for (const Cube& cube : guard.cubes()) {
    if (known_[res].implies(cube)) return true;
  }
  if (guard.cubes().size() <= 1) return false;
  return cache_->covered(guard, known_[res]);
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
  for (const Cube& cube : guard.cubes()) {
    if (cube.compatible(known_[res])) return false;
  }
  return true;
}

bool Engine::knowledge_ok(TaskId t, PeId res) const {
  if (!req_.enforce_knowledge) return true;
  const TaskGuardInfo& info = fg_.guard_info(t);
  if (info.trivially_true && !info.conjunction) return true;
  if (!guard_covered(fg_.task(t).guard, info, res)) return false;
  if (info.conjunction) {
    // Conjunction processes (and the sink) are activated by whichever
    // input alternative is selected, so a time-triggered scheduler on
    // M(t) must tell the alternatives apart: the known conditions must
    // decide every guarded predecessor's activity (paper §5.2, the
    // premise behind Theorem 1).
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

bool Engine::fits(PeId res, Time now, Time dur) const {
  // Every unstarted lock on `res` starts at or after `now`, so
  // [now, now + dur) avoids them all (zero-length ones included) iff it
  // ends by the earliest one: the per-lock overlap tests reduce to this
  // single comparison.
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

bool Engine::try_starts(Time now) {
  bool any = false;

  // 1. Locked tasks reaching their fixed start time: the locks from the
  //    cursor up to the first later reservation, in id order.
  for (std::size_t i = lock_next_; i < lock_order_.size(); ++i) {
    const TaskId t = lock_order_[i];
    if (lock(t).start > now) break;
    if (started_[t]) continue;
    if (!deps_done(t, now)) continue;
    const PeId res = lock(t).resource;
    if (!knowledge_ok(t, res)) continue;
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
        if (!fits(bus, now, dur)) continue;
        if (!knowledge_ok(t, bus)) continue;
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
        if (!fits(res, now, fg_.duration(t)) ||
            !knowledge_ok(t, res)) {
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
    if (!knowledge_ok(t, res)) {
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
// Starts, completions and lock events.

void Engine::start_task(TaskId t, Time now, PeId res) {
  const Time dur = fg_.duration(t);
  started_[t] = 1;
  sched_.place(t, now, now + dur, res);
  start_order_.push_back(t);
  if (locked(t)) {
    // Keep the resource's cursor on its earliest unstarted lock.
    const std::vector<TaskId>& on_res = locks_on_res_[res];
    std::size_t& next = lock_res_next_[res];
    while (next < on_res.size() && started_[on_res[next]]) ++next;
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
// whole knowledge state (the known_ cubes are not even allocated);
// otherwise each resource's known cube is the guard checks' context.
void Engine::learn(PeId res, CondId c) {
  mark_dirty(res);
  const auto value = label_.value_of(c);
  if (!value) return;
  if (use_masks_) {
    (*value ? known_pos_ : known_neg_)[res] |= std::uint64_t{1} << c;
    return;
  }
  Cube& known = known_[res];
  if (!known.mentions(c)) known = *known.conjoin(Literal{c, *value});
}

void Engine::complete_task(TaskId t, Time now) {
  finished_[t] = 1;
  CPS_ASSERT(remaining_ > 0, "completion bookkeeping underflow");
  --remaining_;
  const Task& task = fg_.task(t);
  const PeId res = sched_.slot(t).resource;
  mark_dirty(res);  // freed
  for (TaskId succ : fg_.succs(t)) {
    if (!active(succ)) continue;
    CPS_ASSERT(pending_[succ] > 0, "predecessor bookkeeping underflow");
    --pending_[succ];
    dep_ready_[succ] = std::max(dep_ready_[succ], now);
    if (pending_[succ] == 0) enqueue_ready(succ);
  }
  if (task.computes) {
    const CondId c = *task.computes;
    learn(res, c);
    if (!fg_.broadcasts_enabled()) {
      // Single-resource models: the value is immediately visible (there is
      // nobody else to inform).
      for (PeId r = 0; r < fg_.arch().pe_count(); ++r) learn(r, c);
    }
  }
  if (task.broadcasts) {
    const CondId c = *task.broadcasts;
    for (PeId r = 0; r < fg_.arch().pe_count(); ++r) learn(r, c);
  }
}

std::optional<TaskId> Engine::missed_lock(Time now) {
  // Every lock before the cursor started at its reservation, and the
  // locks reserved at `now` follow it in id order, so the first unstarted
  // one is the lowest-id miss. On success the cursor moves past `now`.
  for (; lock_next_ < lock_order_.size(); ++lock_next_) {
    const TaskId t = lock_order_[lock_next_];
    if (lock(t).start > now) break;
    if (!started_[t]) return t;
  }
  return std::nullopt;
}

Time Engine::next_lock_start() const {
  // After missed_lock passed, nothing from the cursor on has started.
  return lock_next_ < lock_order_.size() ? lock(lock_order_[lock_next_]).start
                                         : kInf;
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

  sched_.reset(n);
  // The previous run moved its order out (see the end of run()).
  start_order_.clear();
  start_order_.reserve(active_list_.size());
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
  use_masks_ = fg_.masks_enabled();
  if (!use_masks_) known_.assign(fg_.arch().pe_count(), Cube());
  running_.clear();
  remaining_ = active_list_.size();
  for (TaskId t : active_list_) {
    // Reservations come from table cells, which are non-negative; the
    // clock starts at 0, so a negative one could never be honored.
    CPS_REQUIRE(!locked(t) || lock(t).start >= 0,
                "lock reservations are non-negative");
    std::size_t open = 0;
    for (TaskId pred : fg_.preds(t)) open += active_[pred];
    pending_[t] = open;
  }

  known_pos_.assign(fg_.arch().pe_count(), 0);
  known_neg_.assign(fg_.arch().pe_count(), 0);
  ready_.resize(fg_.arch().pe_count());
  for (ReadyHeap& heap : ready_) heap.clear();
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

  Time now = 0;
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
    while (try_starts(now)) {
    }

    if (remaining_ == 0) break;

    // A locked task whose start time has arrived but which could not be
    // started is a hard failure: the reservation cannot be honored.
    if (const std::optional<TaskId> t = missed_lock(now)) {
      return infeasible(*t, "locked task " + fg_.task(*t).name +
                                " cannot start at its reserved time " +
                                std::to_string(lock(*t).start));
    }

    CPS_FAULT_POINT("engine.step");
    if (req_.budget != nullptr &&
        req_.budget->charge_steps(1) != ErrorCode::kOk) {
      return interrupted(ErrorCode::kStepBudgetExceeded);
    }

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
  out.schedule = sched_;  // copy: the workspace keeps its capacity warm
  out.schedule.set_start_order(std::move(start_order_));
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
                                ReadySelection /*ignored*/,
                                CoverCache* cover_cache) {
  EngineRequest req;
  req.label = path.label;
  req.active = fg.active_tasks(path.label, cover_cache);
  req.priority = compute_priorities(fg, req.active, policy, rng);
  req.cover_cache = cover_cache;
  return req;
}

PathSchedule schedule_path(const FlatGraph& fg, const AltPath& path,
                           PriorityPolicy policy, Rng* rng,
                           CoverCache* cover_cache,
                           EngineWorkspace* workspace) {
  const EngineRequest req = make_path_request(
      fg, path, policy, rng, ReadySelection::kHeap, cover_cache);
  EngineResult res = workspace ? run_list_scheduler(fg, req, *workspace)
                               : run_list_scheduler(fg, req);
  CPS_ASSERT(res.feasible,
             "validated CPG path must be schedulable: " + res.reason);
  return std::move(res.schedule);
}

}  // namespace cps
