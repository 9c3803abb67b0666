// Event-driven non-preemptive list scheduler for one alternative path.
//
// This single engine serves three callers:
//  1. per-path "(near) optimal" scheduling (paper §4 step 1) with
//     critical-path priorities;
//  2. schedule *adjustment* during table merging (paper §5.1 rule 3):
//     locked tasks are fixed reservations, unlocked tasks are re-scheduled
//     ASAP while keeping their original relative order;
//  3. the condition-oblivious baseline (all tasks active, knowledge
//     checks disabled).
//
// Semantics enforced:
//  * programmable processors / buses / memory modules execute one task at
//    a time; hardware PEs run tasks in parallel (paper §2);
//  * a task starts only after every predecessor that is active on the
//    path has completed;
//  * a task starts only when the condition values known on its resource
//    at that moment imply its guard (knowledge rule, DESIGN.md §5.1);
//    a condition is known on the disjunction's own PE at the
//    disjunction's end and elsewhere at the end of its broadcast;
//  * broadcast tasks are scheduled as soon as possible on the first
//    available all-connecting bus (paper §3) and take precedence over
//    data communications that become ready at the same moment. The one
//    exception: when a zero-duration task completes during a step's
//    sequential-resource pass and readies both a broadcast and a data
//    communication on a bus later in PeId order, that pass starts the
//    communication, because the step's broadcast pass is already over
//    (ListScheduler.ResourceReadiedMidPassIsVisitedInThatPass).
//
// tests/reference_engine.hpp re-implements these semantics as an
// independent O(V^2) scan; the HeapEquivalence suite compares the two.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cpg/flat_graph.hpp"
#include "sched/engine_workspace.hpp"
#include "sched/priority.hpp"
#include "sched/schedule.hpp"
#include "support/cancel.hpp"

namespace cps {

struct EngineRequest {
  /// Path label: provides the value of every condition the guards can see.
  Cube label;
  /// Active tasks on the path (size = task_count).
  std::vector<bool> active;
  /// Static priorities (higher scheduled first; size = task_count).
  std::vector<std::int64_t> priority;
  /// Optional per-task locks (empty, or size = task_count).
  std::vector<std::optional<TaskLock>> locks;
  /// Enforce the condition-knowledge rule (off for the oblivious baseline).
  bool enforce_knowledge = true;
  /// Optional shared DNF cover cache (non-owning; must outlive the run and
  /// memoize guards of the same FlatGraph). The engine uses the
  /// workspace's private cache when null.
  CoverCache* cover_cache = nullptr;
  /// Ignored: kept only because perfbench/src/layers.cpp sets both.
  EngineResume resume = EngineResume::kCheckpoint;
  EngineHistory* history = nullptr;
  /// Optional cooperative cancellation/deadline/step budget (non-owning;
  /// must outlive the run). The main loop polls it at bounded intervals
  /// — the cancel token every step, the wall clock every
  /// BudgetPoll::kStride steps — and charges each committed step against
  /// the budget. A trip returns an infeasible EngineResult carrying the
  /// interrupt code; the workspace stays reusable and the next clean run
  /// is byte-identical to a never-interrupted one.
  RunBudget* budget = nullptr;
};

struct EngineResult {
  bool feasible = false;
  /// kOk when feasible; kUnschedulable for genuine scheduling
  /// infeasibility (locked reservation, deadlock); an interrupt code
  /// (kCancelled/kDeadlineExceeded/kStepBudgetExceeded) when the run
  /// was cut short by its RunBudget. Interrupted results must not be
  /// treated as lock infeasibility (see is_interrupt).
  ErrorCode code = ErrorCode::kOk;
  PathSchedule schedule;
  /// When infeasible because a locked task could not start at its fixed
  /// time, the offending task (lets the merge relax that lock).
  std::optional<TaskId> offending_lock;
  std::string reason;
  /// Always false. Kept only because perfbench/src/layers.cpp reads it.
  bool resumed = false;
};

/// Run the engine against a caller-provided reusable workspace: the
/// request is snapshotted into the workspace's engine-owned buffers
/// (capacity-preserving assignment — the hot loops never touch caller
/// storage, which measured ~3x slower whether borrowed by reference or
/// moved in), and all scheduling state lives in the workspace so repeated
/// calls stop reallocating. Never throws on schedulable input; reports
/// infeasibility through the result. One workspace serves one thread.
EngineResult run_list_scheduler(const FlatGraph& fg,
                                const EngineRequest& request,
                                EngineWorkspace& workspace);

/// Convenience overload running on a throwaway workspace (tests, one-shot
/// callers). Hot paths should hold a workspace and use the overload above.
EngineResult run_list_scheduler(const FlatGraph& fg,
                                const EngineRequest& request);

/// Build the per-path engine request of `schedule_path` (active set +
/// priorities for one alternative path) without running the engine. The
/// driver uses it to attach the run budget before dispatch. The
/// ReadySelection parameter is ignored; it is kept only because
/// perfbench/src/layers.cpp passes it.
EngineRequest make_path_request(const FlatGraph& fg, const AltPath& path,
                                PriorityPolicy policy, Rng* rng,
                                ReadySelection selection,
                                CoverCache* cover_cache);

/// Convenience wrapper: schedule one alternative path with the given
/// priority policy (initial per-path scheduling). Throws InternalError if
/// the path is unschedulable (cannot happen for a validated CPG).
PathSchedule schedule_path(
    const FlatGraph& fg, const AltPath& path,
    PriorityPolicy policy = PriorityPolicy::kCriticalPath,
    Rng* rng = nullptr, CoverCache* cover_cache = nullptr,
    EngineWorkspace* workspace = nullptr);

}  // namespace cps
