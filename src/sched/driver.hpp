// End-to-end driver: everything from a validated CPG to a validated
// schedule table and its delay report. This is the API most users (and
// all examples/benchmarks) call.
#pragma once

#include <memory>

#include "sched/delay.hpp"
#include "sched/merge.hpp"
#include "sched/table_validate.hpp"
#include "support/cancel.hpp"

namespace cps {

class WorkspacePool;

/// What a max_paths / RunBudget::max_paths trip does.
///
/// kThrow (default, historical behavior): the flow throws
/// BudgetExceededError(kPathBudgetExceeded) as soon as the budget is
/// crossed, before an exponential path set is materialized.
///
/// kBound (graceful degradation): the flow schedules, merges and
/// validates the first max_paths alternative paths — a deterministic
/// prefix of the enumeration order — and returns a *bounded-coverage*
/// result: CoSynthesisResult::status is kPathBudgetExceeded and
/// `coverage` carries the covered-leaves fraction. The table is coherent
/// for every covered path; uncovered label combinations simply have no
/// entries.
enum class BudgetAction : std::uint8_t { kThrow, kBound };

struct CoSynthesisOptions {
  PriorityPolicy path_priority = PriorityPolicy::kCriticalPath;
  MergeOptions merge;
  /// Validate the table (requirements 1-4) after merging; on violation a
  /// ValidationError is thrown. Turn off only in benchmarks that measure
  /// merge time in isolation.
  bool validate = true;
  /// Alternative-path budget. Paths are enumerated *streamingly* and
  /// scheduled as they appear; when a graph has more than this many
  /// paths the budget trips as soon as it is crossed, instead of first
  /// materializing (and scheduling) an exponential path set. What a trip
  /// does is `on_budget`'s call (throw, or bound coverage). 0 =
  /// unlimited. RunBudget::max_paths (when `budget` is set) folds in:
  /// the smaller nonzero value wins.
  std::size_t max_paths = 0;
  /// Behavior on a path-budget trip (see BudgetAction).
  BudgetAction on_budget = BudgetAction::kThrow;
  /// Optional cooperative cancellation/deadline/step/path budget
  /// (non-owning; must outlive the call). Polled at bounded intervals by
  /// every layer: the engine main loop per step, the merge walk per
  /// decision-tree node, and the driver between paths. A trip throws the
  /// matching typed error (CancelledError, DeadlineExceededError,
  /// BudgetExceededError); workspaces stay reusable and a subsequent
  /// clean run is byte-identical to a never-interrupted one.
  RunBudget* budget = nullptr;
  /// Optional externally owned engine workspace for the per-path
  /// scheduling loop: callers that co-synthesize repeatedly on one thread
  /// (benches, custom harnesses) can pay the buffer allocations once
  /// across calls. Must outlive the call and must not be used
  /// concurrently. nullptr = the flow owns a workspace per call (still
  /// reused across all paths of that call).
  EngineWorkspace* workspace = nullptr;
  /// Optional thread-safe pool of warm engine workspaces (non-owning;
  /// must outlive the call). When `workspace` is unset the walk leases a
  /// workspace instead of constructing one, so repeated calls — a
  /// service session, a batch rerun — stop re-paying the engine-buffer
  /// allocations. Results are byte-identical with or without a pool; only
  /// WorkspaceStats reuse counters reflect the warm start (see
  /// workspace_pool.hpp).
  WorkspacePool* workspace_pool = nullptr;
  /// Materialize `CoSynthesisResult::paths` / `path_schedules`. They are
  /// always *built* (the merge consumes them) but with keep_paths off the
  /// result drops them before returning — thousand-graph batches stop
  /// carrying O(paths × depth) dead weight per item. `path_count` is
  /// filled either way.
  bool keep_paths = true;
};

/// Wall-clock cost of each pipeline stage (milliseconds).
struct StageTimings {
  double expand_ms = 0.0;
  double enumerate_ms = 0.0;
  double schedule_ms = 0.0;
  double merge_ms = 0.0;
  double validate_ms = 0.0;
};

/// Everything the flow produces. The FlatGraph is heap-allocated so the
/// ScheduleTable's reference to it stays valid when the result is moved.
struct CoSynthesisResult {
  std::unique_ptr<FlatGraph> flat;
  /// Alternative paths and their optimal schedules, in enumeration order.
  /// Empty when CoSynthesisOptions::keep_paths is off (see `path_count`).
  std::vector<AltPath> paths;
  std::vector<PathSchedule> path_schedules;
  /// Number of alternative paths scheduled (valid even when the vectors
  /// above were dropped via keep_paths).
  std::size_t path_count = 0;
  ScheduleTable table;
  MergeStats merge_stats;
  /// Counters of the per-path scheduling cover cache (guard coverage
  /// memoization). A pure function of the input graph and options.
  CoverCacheStats cover_cache;
  /// Engine-workspace counters of the per-path scheduling loop (buffer
  /// reuse across the paths of this call); counts only this call's runs
  /// even on a shared external workspace. Deterministic unless the
  /// workspace came warm from an external workspace or pool.
  WorkspaceStats workspace;
  /// Engine-workspace counters of the merge's adjustment runs (see
  /// MergeResult::workspace).
  WorkspaceStats merge_workspace;
  DelayReport delays;
  StageTimings timings;
  /// kOk for a complete result; kPathBudgetExceeded for a successful
  /// *bounded-coverage* result (BudgetAction::kBound — the table covers
  /// only the first max_paths leaves). Failures throw, so no other code
  /// appears here.
  ErrorCode status = ErrorCode::kOk;
  /// Total alternative-path (leaf) count of the graph. Equals path_count
  /// for complete results. For bounded-coverage results it is probed
  /// with a capped enumeration; 0 = unknown (the probe cap was also
  /// exceeded).
  std::size_t total_leaves = 0;
  /// path_count / total_leaves: the covered-leaves fraction. 1.0 for
  /// complete results, 0.0 when total_leaves is unknown.
  double coverage = 1.0;

  const FlatGraph& flat_graph() const { return *flat; }
};

/// Run the full flow of the paper: expand, enumerate alternative paths,
/// schedule each path, merge into a schedule table, validate, and measure
/// δ_M / δ_max. The Cpg must outlive the result (the FlatGraph holds a
/// reference to it).
CoSynthesisResult schedule_cpg(const Cpg& g,
                               const CoSynthesisOptions& options = {});

/// Effective alternative-path budget: options.max_paths folded with
/// RunBudget::max_paths (smaller nonzero value wins; 0 = unlimited).
/// Exposed because it is part of a request's *result identity* — the
/// batch driver folds it into schedule-cache keys.
std::size_t effective_max_paths(const CoSynthesisOptions& options);

}  // namespace cps
