#include "sched/driver.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "sched/workspace_pool.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace cps {

std::size_t effective_max_paths(const CoSynthesisOptions& options) {
  std::size_t max = options.max_paths;
  if (options.budget != nullptr && options.budget->max_paths != 0 &&
      (max == 0 || options.budget->max_paths < max)) {
    max = options.budget->max_paths;
  }
  return max;
}

namespace {

using clock_type = std::chrono::steady_clock;

double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void throw_path_budget(std::size_t max_paths) {
  // InvalidArgument-compatible for historical callers, but carries the
  // typed kPathBudgetExceeded code for the batch driver's JSON.
  throw BudgetExceededError(
      ErrorCode::kPathBudgetExceeded,
      "graph exceeds the alternative-path budget of " +
          std::to_string(max_paths) + " paths");
}

/// Everything the per-path scheduling stage produces.
struct ScheduleStage {
  std::vector<AltPath> paths;
  std::vector<PathSchedule> schedules;
  WorkspaceStats workspace;
  CoverCacheStats cover_cache;
  double enumerate_ms = 0.0;
  double schedule_ms = 0.0;
  /// The path budget tripped under BudgetAction::kBound: `paths` holds
  /// the first max_paths leaves of the enumeration order only.
  bool truncated = false;
};

/// Engine results from per-path scheduling: interrupts (budget trips
/// inside the engine) become typed exceptions; anything else infeasible
/// on a validated CPG is a library bug.
void check_path_result(const EngineResult& res) {
  if (res.feasible) return;
  if (is_interrupt(res.code)) {
    throw_interrupt(res.code, "per-path scheduling interrupted: " +
                                  res.reason);
  }
  CPS_ASSERT(false, "validated CPG path must be schedulable: " + res.reason);
}

/// The per-path walk (paper §4 step 1): one from-scratch engine run per
/// alternative path, in enumeration order.
ScheduleStage run_schedule_stage(const Cpg& g, const FlatGraph& flat,
                                 const CoSynthesisOptions& options, Rng& rng) {
  ScheduleStage out;
  CoverCache cover_cache;
  // A warm lease from the pool, else a call-local workspace. Both are
  // result-equivalent; the stats delta below keeps the serialized
  // counters scoped to this call either way.
  WorkspaceLease lease;
  std::optional<EngineWorkspace> owned_workspace;
  EngineWorkspace* workspace = nullptr;
  if (options.workspace_pool != nullptr) {
    lease = options.workspace_pool->acquire();
    workspace = lease.get();
  } else {
    owned_workspace.emplace();
    workspace = &*owned_workspace;
  }
  const WorkspaceStats workspace_before = workspace->stats;
  const std::size_t max_paths = effective_max_paths(options);
  // Stage-level budget poll between paths (belt to the engine's per-step
  // polling: enumeration itself is engine-free work).
  BudgetPoll poll(options.budget);
  PathEnumerator enumerator(g);
  while (true) {
    {
      const ErrorCode trip = poll.poll();
      if (trip != ErrorCode::kOk) {
        throw_interrupt(trip, std::string("per-path scheduling interrupted: ") +
                                  to_string(trip));
      }
    }
    const auto e0 = clock_type::now();
    auto path = enumerator.next();
    out.enumerate_ms += ms_between(e0, clock_type::now());
    if (!path) break;
    if (max_paths != 0 && enumerator.produced() > max_paths) {
      if (options.on_budget == BudgetAction::kThrow) {
        throw_path_budget(max_paths);
      }
      // Bounded coverage: drop the over-budget path and stop — the kept
      // prefix is a pure function of the enumeration order.
      out.truncated = true;
      break;
    }
    out.paths.push_back(std::move(*path));
    const auto s0 = clock_type::now();
    EngineRequest req =
        make_path_request(flat, out.paths.back(), options.path_priority,
                          &rng, ReadySelection::kHeap, &cover_cache);
    req.budget = options.budget;
    EngineResult res = run_list_scheduler(flat, req, *workspace);
    check_path_result(res);
    out.schedules.push_back(std::move(res.schedule));
    out.schedule_ms += ms_between(s0, clock_type::now());
  }
  out.cover_cache = cover_cache.stats();
  out.workspace = workspace->stats;
  out.workspace -= workspace_before;
  return out;
}

}  // namespace

CoSynthesisResult schedule_cpg(const Cpg& g,
                               const CoSynthesisOptions& options) {
  if (options.budget != nullptr) {
    // Check once up-front (token AND clock): an already-cancelled or
    // already-expired budget must not start expanding the graph at all.
    const ErrorCode trip = options.budget->check_now();
    if (trip != ErrorCode::kOk) {
      throw_interrupt(trip, std::string("co-synthesis interrupted: ") +
                                to_string(trip));
    }
  }
  const auto t0 = clock_type::now();
  auto flat = std::make_unique<FlatGraph>(FlatGraph::expand(g));
  const auto t1 = clock_type::now();

  // Per-path scheduling streams enumeration and scheduling: each
  // alternative path is scheduled as soon as its label is produced, and
  // the max_paths budget trips before an exponential label set is
  // materialized. One engine workspace serves the whole walk, so only its
  // first path pays the engine-buffer allocations.
  Rng rng(options.merge.random_seed);
  ScheduleStage stage = run_schedule_stage(g, *flat, options, rng);

  const auto t3 = clock_type::now();
  MergeResult merged =
      merge_schedules(*flat, stage.paths, stage.schedules, options.merge);
  const auto t4 = clock_type::now();
  if (!merged.ok) {
    if (is_interrupt(merged.code)) {
      throw_interrupt(merged.code,
                      "schedule merging interrupted: " + merged.error);
    }
    throw ValidationError("schedule merging failed: " + merged.error);
  }

  if (options.validate) {
    const TableValidation validation =
        validate_table(*flat, merged.table, stage.paths,
                       /*complete_coverage=*/!stage.truncated);
    if (!validation.ok) {
      throw ValidationError("generated schedule table is incoherent:\n  " +
                            join(validation.violations, "\n  "));
    }
  }
  const auto t5 = clock_type::now();

  DelayReport delays =
      delay_report(*flat, stage.paths, stage.schedules, merged.table);

  StageTimings timings;
  timings.expand_ms = ms_between(t0, t1);
  timings.enumerate_ms = stage.enumerate_ms;
  timings.schedule_ms = stage.schedule_ms;
  timings.merge_ms = ms_between(t3, t4);
  timings.validate_ms = ms_between(t4, t5);

  const std::size_t path_count = stage.paths.size();

  // Coverage accounting. Complete results cover every leaf by
  // construction; a bounded-coverage result (kBound trip) reports the
  // covered fraction, probing the true leaf count with a capped
  // enumeration so a super-exponential graph cannot stall the report.
  ErrorCode status = ErrorCode::kOk;
  std::size_t total_leaves = path_count;
  double coverage = 1.0;
  if (stage.truncated) {
    status = ErrorCode::kPathBudgetExceeded;
    const std::size_t probe_cap = std::max<std::size_t>(
        effective_max_paths(options) * 64, std::size_t{65536});
    const auto probed = count_paths(g, probe_cap);
    total_leaves = probed.has_value() ? *probed : 0;  // 0 = unknown
    coverage = total_leaves != 0
                   ? static_cast<double>(path_count) /
                         static_cast<double>(total_leaves)
                   : 0.0;
  }

  if (!options.keep_paths) {
    // Shrink, not just clear: the point is dropping the O(paths × depth)
    // payload, and the result outlives this call.
    stage.paths = {};
    stage.schedules = {};
  }

  return CoSynthesisResult{std::move(flat),
                           std::move(stage.paths),
                           std::move(stage.schedules),
                           path_count,
                           std::move(merged.table),
                           merged.stats,
                           stage.cover_cache,
                           stage.workspace,
                           merged.workspace,
                           std::move(delays),
                           timings,
                           status,
                           total_leaves,
                           coverage};
}

}  // namespace cps
