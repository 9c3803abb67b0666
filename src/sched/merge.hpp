// Schedule merging: generation of the global schedule table (paper §5).
//
// The algorithm walks the binary decision tree of condition values in
// depth-first order. The state descending the tree carries the schedule of
// the *current path* — always the reachable path with the largest delay
// (rule 1). Start times are copied from the current schedule into the
// table, in chronological order, until a disjunction process whose
// condition is still undecided terminates; there the walk branches:
//
//  * the branch the current path takes continues with the same schedule;
//  * the opposite branch selects a new current path, *adjusts* its
//    optimal schedule — processes whose activation time was already fixed
//    in a column decided at ancestors of the branching node are locked to
//    that time (rule 3), the remaining ones are re-scheduled ASAP keeping
//    their original relative order — and *resolves conflicts* (§5.2): a
//    placement whose column is compatible with an existing cell at a
//    different time is moved onto one of the existing activation times
//    (Theorem 2) and the schedule re-adjusted, until the table stays
//    deterministic.
#pragma once

#include <cstdint>

#include "sched/list_scheduler.hpp"
#include "sched/schedule_table.hpp"
#include "support/random.hpp"

namespace cps {

/// Which reachable path becomes the current one after a back-step.
/// The paper uses kLongestFirst; the alternatives quantify the benefit
/// (bench_ablation_merge_order).
enum class PathSelection : std::uint8_t {
  kLongestFirst,
  kShortestFirst,
  kRandom,
};

const char* to_string(PathSelection s);

/// Kept only because perfbench/ compiles against MergeOptions::execution;
/// nothing in src/ reads it. The merge is one serial walk.
enum class MergeExecution : std::uint8_t { kSerial };

struct MergeOptions {
  PathSelection selection = PathSelection::kLongestFirst;
  std::uint64_t random_seed = 1;
  /// Kept only because perfbench/src/workloads.cpp sets it; ignored.
  ReadySelection ready = ReadySelection::kHeap;
  /// Kept only for perfbench/ (see MergeExecution); ignored.
  MergeExecution execution = MergeExecution::kSerial;
  /// Trace the decision-tree walk, locks and conflicts to stderr
  /// (debugging aid).
  bool trace = false;
  /// Optional cooperative cancellation/deadline/step budget (non-owning;
  /// must outlive the merge). Polled by the decision-tree walk at every
  /// node and forwarded into every adjustment engine run. A trip reports
  /// through MergeResult::ok/code; the table must then not be used.
  RunBudget* budget = nullptr;
};

struct MergeStats {
  /// Back-steps taken in the decision tree (= schedules merged - 1).
  std::size_t backsteps = 0;
  /// Schedule adjustments performed (one per back-step).
  std::size_t adjustments = 0;
  /// Tasks locked by rule 3 across all adjustments.
  std::size_t locks = 0;
  /// Conflicts detected (§5.2).
  std::size_t conflicts = 0;
  /// Conflicts resolved by moving the task to a previously fixed time.
  std::size_t conflict_moves = 0;
  /// Conflicts no Theorem-2 candidate could fix (0 on well-formed models;
  /// counted so experiments can report the corner).
  std::size_t unresolved_conflicts = 0;
  /// Locks that had to be relaxed because the reservation was infeasible
  /// on the new path (0 on well-formed models).
  std::size_t relaxed_locks = 0;
  /// Exact-column clashes recorded by the table (0 expected).
  std::size_t column_clashes = 0;
  /// Always 0. Kept only because perfbench/ reads them and serve
  /// responses (perfbench/golden/serve-repeat.json) still carry them.
  std::size_t speculative_hits = 0;
  std::size_t speculative_misses = 0;
};

struct MergeResult {
  ScheduleTable table;
  MergeStats stats;
  /// Cover-cache counters of the walk's adjustment engine runs.
  CoverCacheStats cover_cache;
  /// Engine-workspace counters of the walk's adjustment engine runs
  /// (buffer reuse; every adjustment runs from scratch).
  WorkspaceStats workspace;
  /// False when an adjustment was unschedulable even after relaxing every
  /// relaxable lock (never happens on validated CPGs; previously this
  /// aborted via an internal assertion), or when the walk's RunBudget
  /// tripped. The table then holds the walk's progress up to the failure
  /// and must not be used.
  bool ok = true;
  /// kOk, kUnschedulable (genuine adjustment infeasibility), or the
  /// interrupt code of the budget trip that stopped the walk.
  ErrorCode code = ErrorCode::kOk;
  std::string error;  ///< non-empty iff !ok
};

/// Merge the per-path schedules into a schedule table. `paths` and
/// `schedules` are parallel arrays (one optimal PathSchedule per AltPath).
/// Adjustment infeasibility is reported through MergeResult::ok/error
/// rather than thrown.
MergeResult merge_schedules(const FlatGraph& fg,
                            const std::vector<AltPath>& paths,
                            const std::vector<PathSchedule>& schedules,
                            const MergeOptions& options = {});

}  // namespace cps
