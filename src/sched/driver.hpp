// End-to-end driver: everything from a validated CPG to a validated
// schedule table and its delay report. This is the API most users (and
// all examples/benchmarks) call.
#pragma once

#include <memory>

#include "sched/delay.hpp"
#include "sched/merge.hpp"
#include "sched/schedule_cache.hpp"
#include "sched/table_validate.hpp"
#include "support/cancel.hpp"
#include "support/thread_pool.hpp"

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

/// How the per-path scheduling stage walks the alternative-path set.
///
/// kTree (production) schedules the *guard trie* (cpg/paths PathTree):
/// leaves are visited in the same depth-first order as the path list, but
/// each leaf's engine run resumes from a checkpoint of the previous
/// leaf's run at their shared guard prefix (EngineHistory), and
/// independent subtrees can be dispatched to thread-pool workers. Schedules, the
/// merged table and batch JSON are byte-identical to kList at every
/// thread count.
///
/// kList is the retained streaming path-list reference: one from-scratch
/// engine run per path, serially, in enumeration order.
enum class PathScheduling : std::uint8_t { kList, kTree };

const char* to_string(PathScheduling s);

/// Counters of the guard-trie scheduling stage. With a fixed subtree
/// decomposition (CoSynthesisOptions::subtree_frontier != 0, the batch
/// driver's setting) every counter is a pure function of the trie —
/// byte-identical at any pool size, including none. With the adaptive
/// split (subtree_frontier == 0) the decomposition is a function of the
/// resolved thread count, so the counters are deterministic *per thread
/// count* (the schedules never vary either way). Zero in kList mode.
struct PathTreeStats {
  /// Leaf engine runs resumed from a shared-prefix checkpoint.
  std::size_t prefix_resumes = 0;
  /// Committed time steps those resumes skipped (vs from-scratch).
  std::size_t resumed_steps = 0;
  /// Subtree jobs the decomposed walk committed (0 = serial chain walk).
  /// They ran on pool workers when a pool was available, inline
  /// otherwise — the count is the same either way.
  std::size_t subtrees_parallel = 0;

  PathTreeStats& operator+=(const PathTreeStats& o) {
    prefix_resumes += o.prefix_resumes;
    resumed_steps += o.resumed_steps;
    subtrees_parallel += o.subtrees_parallel;
    return *this;
  }
};

struct CoSynthesisOptions {
  PriorityPolicy path_priority = PriorityPolicy::kCriticalPath;
  /// merge.ready selects the engine for the *whole* flow: both per-path
  /// scheduling and the merge adjustments use it, so one knob switches
  /// between the heap engine and the linear-scan reference.
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
  /// decision-tree node, trie subtree jobs per leaf, and the driver
  /// between paths. A trip throws the matching typed error
  /// (CancelledError, DeadlineExceededError, BudgetExceededError);
  /// workspaces and histories stay reusable and a subsequent clean run
  /// is byte-identical to a never-interrupted one.
  RunBudget* budget = nullptr;
  /// Optional externally owned engine workspace for the per-path
  /// scheduling loop: callers that co-synthesize repeatedly on one thread
  /// (benches, custom harnesses) can pay the buffer allocations once
  /// across calls. Must outlive the call and must not be used
  /// concurrently. Serial walks only (the decomposed tree walk owns one
  /// private workspace per subtree job instead). nullptr = the flow owns
  /// a workspace per call (still reused across all paths of that call).
  EngineWorkspace* workspace = nullptr;
  /// Optional thread-safe pool of warm engine workspaces (non-owning;
  /// must outlive the call). Covers what `workspace` cannot: the
  /// decomposed tree walk runs one private workspace *per subtree job*,
  /// and a single external workspace is not legal across concurrent
  /// jobs. With a pool, every job (and the serial walk, when `workspace`
  /// is unset) leases a workspace instead of constructing one, so
  /// repeated calls — a service session, a batch rerun — stop re-paying
  /// the engine-buffer allocations. Results are byte-identical with or
  /// without a pool; only WorkspaceStats reuse counters reflect the warm
  /// start (see workspace_pool.hpp). Ignored when `workspace` is set
  /// (serial walks honor the explicit workspace first).
  WorkspacePool* workspace_pool = nullptr;
  /// Optional cross-request schedule cache (non-owning, thread-safe; must
  /// outlive the call). The *driver* uses only its prefix tier: tree-mode
  /// walks seed their resume chains from the history a previous
  /// co-synthesis of the same graph donated, and donate their own chains
  /// back on success — so repeated graphs resume from the deepest shared
  /// guard-prefix checkpoint instead of scheduling from t=0. (The exact
  /// tier — whole recorded results — lives one layer up, in the batch
  /// driver, which alone knows the full request key.) Results are
  /// byte-identical with or without a cache; only resume-class counters
  /// (tree, workspace, cover_cache, cache) reflect the seeding — see
  /// BatchJsonOptions::include_resume_counters. Ignored under
  /// PriorityPolicy::kRandom (per-path priority draws consume the flow
  /// RNG, which a cross-call history cannot replay).
  ScheduleCache* schedule_cache = nullptr;
  /// Per-path scheduling strategy (see PathScheduling). Tree mode is the
  /// production default; the path-list reference is retained for
  /// equivalence tests and ablation.
  PathScheduling path_scheduling = PathScheduling::kTree;
  /// Worker threads for tree-mode subtree dispatch; 1 = serial tree walk
  /// (one resume chain over all leaves — the most prefix reuse), 0 =
  /// hardware concurrency. Ignored by kList. PriorityPolicy::kRandom
  /// forces the serial walk (the per-path priority draws are part of the
  /// reproducible serial order). The schedules are byte-identical at
  /// every value.
  std::size_t schedule_threads = 1;
  /// Optional externally owned pool — the unified work-stealing runtime —
  /// for tree-mode subtree dispatch: one pool serves every nesting level,
  /// so a batch of tree-scheduled items saturates the machine instead of
  /// oversubscribing it. When set it replaces
  /// `schedule_threads` for sizing — the parallelism is the pool's
  /// workers plus the participating calling thread. Must outlive the
  /// call. nullptr = the flow spawns workers per call when the resolved
  /// `schedule_threads` exceeds 1.
  ThreadPool* schedule_pool = nullptr;
  /// Subtree decomposition target of the tree walk. 0 (default) adapts
  /// the split to the resolved parallelism (4 subtree jobs per thread;
  /// serial walks keep the single resume chain — the most prefix reuse).
  /// A non-zero value carves the trie into at least this many DFS-ordered
  /// subtree jobs *regardless of pool size* — even with no pool at all —
  /// making every per-call counter (PathTreeStats, workspace,
  /// cover_cache) a pure function of the graph. The batch driver sets
  /// this so batch JSON stays byte-identical across thread counts while
  /// inner subtree jobs still ride the shared runtime.
  std::size_t subtree_frontier = 0;
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
  /// memoization). A pure function of the input graph and options for
  /// serial walks; the decomposed tree walk uses one private cache per
  /// subtree job, aggregated in job order, so the counters are a pure
  /// function of the decomposition (see PathTreeStats).
  CoverCacheStats cover_cache;
  /// Engine-workspace counters of the per-path scheduling loop (buffer
  /// reuse across the paths of this call). Deterministic for serial walks
  /// (kList, or kTree with one resume chain); counts only this call's
  /// runs even on a shared external workspace. The decomposed tree walk
  /// owns one private workspace per subtree job, so these counters too
  /// are a pure function of the decomposition — no dependence on which
  /// worker ran which job.
  WorkspaceStats workspace;
  /// Engine-workspace counters of the merge's adjustment runs (see
  /// MergeResult::workspace).
  WorkspaceStats merge_workspace;
  /// Guard-trie scheduling counters (see PathTreeStats for the
  /// determinism contract). Zero under PathScheduling::kList.
  PathTreeStats tree;
  /// Work-stealing runtime counters accumulated over this call (zero
  /// when no pool participated). Timing-dependent — which worker popped
  /// which task is a legitimate race — and, on a shared runtime,
  /// polluted by concurrent callers; informational only, never part of
  /// byte-identical outputs.
  PoolStats pool;
  /// Schedule-cache counters of *this call* (prefix-tier lookups the
  /// walks performed; zero when no cache was passed). Deterministic per
  /// (graph, options, cache state) but dependent on what earlier requests
  /// left in the shared cache — the same class of counter as `workspace`
  /// under a shared pool.
  ScheduleCacheStats cache;
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
