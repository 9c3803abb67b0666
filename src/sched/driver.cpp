#include "sched/driver.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "sched/workspace_pool.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace cps {

const char* to_string(PathScheduling s) {
  switch (s) {
    case PathScheduling::kList: return "list";
    case PathScheduling::kTree: return "tree";
  }
  return "?";
}

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

/// Everything the per-path scheduling stage produces, whichever walk ran.
struct ScheduleStage {
  std::vector<AltPath> paths;
  std::vector<PathSchedule> schedules;
  PathTreeStats tree;
  WorkspaceStats workspace;
  CoverCacheStats cover_cache;
  ScheduleCacheStats cache;
  double enumerate_ms = 0.0;
  double schedule_ms = 0.0;
  /// The path budget tripped under BudgetAction::kBound: `paths` holds
  /// the first max_paths leaves of the enumeration order only.
  bool truncated = false;
};

/// Does this walk use the schedule cache's prefix tier? Tree mode only
/// (kList runs from scratch by definition) and never under kRandom (the
/// per-path priority draws consume the flow RNG in enumeration order — a
/// cross-call history cannot replay them).
bool prefix_cache_usable(const CoSynthesisOptions& options) {
  return options.schedule_cache != nullptr &&
         options.path_scheduling == PathScheduling::kTree &&
         options.path_priority != PriorityPolicy::kRandom;
}

/// Prefix-tier key: canonical graph encoding (verified byte-for-byte by
/// the cache) plus the walk shape — stage kind, subtree job, decomposition
/// target — and the two options that shape what a history records
/// (priority policy, engine). Everything else the engine re-validates
/// against the live request before resuming, so a stale entry degrades to
/// a from-scratch run, never to a wrong result.
std::string prefix_key_encoding(const Cpg& g, const CoSynthesisOptions& options,
                                std::uint8_t stage, std::uint64_t job,
                                std::uint64_t target) {
  std::string key = canonical_encoding(g);
  key.append("PFX1");
  key.push_back(static_cast<char>(stage));
  for (int i = 0; i < 8; ++i) {
    key.push_back(static_cast<char>((job >> (8 * i)) & 0xff));
  }
  for (int i = 0; i < 8; ++i) {
    key.push_back(static_cast<char>((target >> (8 * i)) & 0xff));
  }
  key.push_back(static_cast<char>(options.path_priority));
  key.push_back(static_cast<char>(options.merge.ready));
  return key;
}

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

/// Serial walk: the retained path-list reference (one from-scratch engine
/// run per path) or the serial tree chain (every leaf resumes from the
/// previous leaf's checkpoints at their shared guard prefix — consecutive
/// DFS leaves share the longest prefix, so one rolling EngineHistory is
/// the optimal donor chain).
ScheduleStage run_serial_stage(const Cpg& g, const FlatGraph& flat,
                               const CoSynthesisOptions& options, Rng& rng,
                               bool tree) {
  ScheduleStage out;
  CoverCache cover_cache;
  // Workspace resolution: an explicit external workspace wins, then a
  // warm lease from the pool, then a call-local one. All three are
  // result-equivalent; the stats delta below keeps the serialized
  // counters scoped to this call either way.
  WorkspaceLease lease;
  std::optional<EngineWorkspace> owned_workspace;
  EngineWorkspace* workspace = options.workspace;
  if (workspace == nullptr && options.workspace_pool != nullptr) {
    lease = options.workspace_pool->acquire();
    workspace = lease.get();
  }
  if (workspace == nullptr) {
    owned_workspace.emplace();
    workspace = &*owned_workspace;
  }
  const WorkspaceStats workspace_before = workspace->stats;
  const std::size_t max_paths = effective_max_paths(options);
  // Stage-level budget poll between paths (belt to the engine's per-step
  // polling: enumeration itself is engine-free work).
  BudgetPoll poll(options.budget);
  // Demand-driven recording (eager off): the engine starts per-step
  // checkpointing only once a sibling leaf demonstrates that resuming is
  // plausible, so tries whose sibling priorities always diverge at t=0
  // pay no recording overhead at all. A schedule cache seeds the chain
  // with the history a previous co-synthesis of the same graph donated:
  // the first leaf then resumes from the deepest shared-guard-prefix
  // checkpoint instead of scheduling from t=0 (the engine re-validates
  // the donation, so a mismatch just runs from scratch).
  EngineHistory chain;
  std::string prefix_key;
  Digest128 prefix_digest;
  const bool use_prefix = tree && prefix_cache_usable(options);
  if (use_prefix) {
    prefix_key = prefix_key_encoding(g, options, /*stage=*/0, /*job=*/0,
                                     /*target=*/0);
    prefix_digest = digest_of(prefix_key);
    if (options.schedule_cache->lookup_prefix(prefix_digest, prefix_key,
                                              &chain)) {
      ++out.cache.prefix_hits;
      chain.eager = true;  // reruns are the expected case on cached graphs
    } else {
      ++out.cache.prefix_misses;
    }
  }
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
      // prefix is a pure function of the enumeration order, so bounded
      // results stay byte-identical at every thread count.
      out.truncated = true;
      break;
    }
    out.paths.push_back(std::move(*path));
    const auto s0 = clock_type::now();
    EngineRequest req =
        make_path_request(flat, out.paths.back(), options.path_priority,
                          &rng, options.merge.ready, &cover_cache);
    if (tree) {
      req.resume = EngineResume::kCheckpoint;
      req.history = &chain;
    }
    req.budget = options.budget;
    EngineResult res = run_list_scheduler(flat, req, *workspace);
    check_path_result(res);
    if (res.resumed) {
      ++out.tree.prefix_resumes;
      out.tree.resumed_steps += res.resumed_steps;
    }
    out.schedules.push_back(std::move(res.schedule));
    out.schedule_ms += ms_between(s0, clock_type::now());
  }
  out.cover_cache = cover_cache.stats();
  out.workspace = workspace->stats;
  out.workspace -= workspace_before;
  // Donate the end-of-walk chain (latest wins): the next request for this
  // graph resumes from it. Only reached on success — failed walks threw.
  if (use_prefix) {
    options.schedule_cache->donate_prefix(prefix_digest, prefix_key, chain);
  }
  return out;
}

/// Decomposed tree walk: split the guard trie into a depth-first frontier
/// of independent subtrees, chain-schedule each subtree's leaves as one
/// job (private EngineWorkspace, history and cover cache per job), and
/// commit the results in deterministic frontier order — the concatenation
/// is exactly the serial enumeration order, so every downstream consumer
/// sees byte-identical inputs. The jobs run on the work-stealing runtime
/// when one is available and inline otherwise; because every piece of
/// per-job state is private to the job, all serialized counters are pure
/// functions of the decomposition, not of who ran what where.
std::optional<ScheduleStage> run_decomposed_stage(
    const Cpg& g, const FlatGraph& flat, const CoSynthesisOptions& options,
    std::size_t target, ThreadPool* pool) {
  ScheduleStage out;
  const auto e0 = clock_type::now();
  // The budget check pre-counts with one cheap enumeration pass (jobs
  // cannot share the serial walk's streaming counter without racing).
  // Deliberate tradeoff: an over-budget graph trips here before any
  // engine run is dispatched — cheaper than the list walk, which
  // schedules every leaf up to the budget first. Under
  // BudgetAction::kBound an over-budget graph falls back to the serial
  // walk instead, whose streaming counter truncates deterministically —
  // so bounded results are identical at every thread count.
  const std::size_t max_paths = effective_max_paths(options);
  if (max_paths != 0 && !count_paths(g, max_paths).has_value()) {
    if (options.on_budget == BudgetAction::kThrow) {
      throw_path_budget(max_paths);
    }
    return std::nullopt;
  }
  const PathTree tree(g);
  const std::vector<PathTree::Node> jobs = tree.frontier(target);
  if (jobs.size() <= 1) return std::nullopt;  // nothing to split
  out.enumerate_ms = ms_between(e0, clock_type::now());

  struct JobResult {
    std::vector<AltPath> paths;
    std::vector<PathSchedule> schedules;
    PathTreeStats tree;
    WorkspaceStats workspace;
    CoverCacheStats cover_cache;
    ScheduleCacheStats cache;
    std::exception_ptr error;
  };
  std::vector<JobResult> results(jobs.size());
  const bool use_prefix = prefix_cache_usable(options);

  const auto s0 = clock_type::now();
  const auto run_job = [&](std::size_t i) {
    JobResult& r = results[i];
    try {
      CPS_FAULT_POINT("trie.subtree");
      // Private workspace per job (not a per-worker slot): the
      // warm-buffer reuse counters become part of the job, so the
      // aggregated WorkspaceStats cannot depend on work-stealing luck. A
      // pool lease keeps the privacy (one workspace per concurrent job)
      // while letting repeated calls start warm.
      WorkspaceLease lease;
      std::optional<EngineWorkspace> owned_ws;
      EngineWorkspace* ws;
      if (options.workspace_pool != nullptr) {
        lease = options.workspace_pool->acquire();
        ws = lease.get();
      } else {
        owned_ws.emplace();
        ws = &*owned_ws;
      }
      const WorkspaceStats ws_before = ws->stats;
      CoverCache cover_cache;  // per job: keeps the counters deterministic
      EngineHistory chain;     // demand-driven recording, like the serial walk
      // Cross-request seeding, keyed per (job, decomposition target) so a
      // repeat of the same graph with the same split resumes every
      // subtree job from its own donated chain.
      std::string prefix_key;
      Digest128 prefix_digest;
      if (use_prefix) {
        prefix_key = prefix_key_encoding(g, options, /*stage=*/1, i, target);
        prefix_digest = digest_of(prefix_key);
        if (options.schedule_cache->lookup_prefix(prefix_digest, prefix_key,
                                                  &chain)) {
          ++r.cache.prefix_hits;
          chain.eager = true;
        } else {
          ++r.cache.prefix_misses;
        }
      }
      BudgetPoll poll(options.budget);  // per-leaf poll, clock amortized
      PathEnumerator en = tree.leaves(jobs[i].context);
      while (auto path = en.next()) {
        {
          const ErrorCode trip = poll.poll();
          if (trip != ErrorCode::kOk) {
            throw_interrupt(
                trip, std::string("subtree scheduling interrupted: ") +
                          to_string(trip));
          }
        }
        r.paths.push_back(std::move(*path));
        EngineRequest req = make_path_request(
            flat, r.paths.back(), options.path_priority, nullptr,
            options.merge.ready, &cover_cache);
        req.resume = EngineResume::kCheckpoint;
        req.history = &chain;
        req.budget = options.budget;
        EngineResult res = run_list_scheduler(flat, req, *ws);
        check_path_result(res);
        if (res.resumed) {
          ++r.tree.prefix_resumes;
          r.tree.resumed_steps += res.resumed_steps;
        }
        r.schedules.push_back(std::move(res.schedule));
      }
      r.cover_cache = cover_cache.stats();
      r.workspace = ws->stats;
      r.workspace -= ws_before;
      if (use_prefix) {
        options.schedule_cache->donate_prefix(prefix_digest, prefix_key,
                                              chain);
      }
    } catch (...) {
      r.error = std::current_exception();
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(jobs.size(), run_job);
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_job(i);
  }
  out.schedule_ms = ms_between(s0, clock_type::now());

  // Commit in frontier (= depth-first) order; the first failure in that
  // order is the one a serial walk would have hit — cancellation racing
  // the commit loop resolves the same way: parallel_for already joined
  // every job, so the DFS-first error wins deterministically.
  out.tree.subtrees_parallel = jobs.size();
  for (JobResult& r : results) {
    CPS_FAULT_POINT("trie.commit");
    if (r.error) std::rethrow_exception(r.error);
    for (auto& p : r.paths) out.paths.push_back(std::move(p));
    for (auto& s : r.schedules) out.schedules.push_back(std::move(s));
    out.tree += r.tree;
    out.workspace += r.workspace;
    out.cover_cache += r.cover_cache;
    out.cache += r.cache;
  }
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

  // Per-path scheduling. The serial walks stream enumeration and
  // scheduling (each alternative path is scheduled as soon as its label
  // is produced, and the max_paths budget trips before an exponential
  // label set is materialized); the parallel tree walk splits the guard
  // trie into independent subtrees first. Either way one engine
  // workspace serves a whole chain, so only its first path pays the
  // engine-buffer allocations.
  Rng rng(options.merge.random_seed);
  const bool tree = options.path_scheduling == PathScheduling::kTree;
  // An external pool overrides schedule_threads for sizing: its workers
  // plus the participating calling thread are the parallelism.
  std::size_t threads = 1;
  if (tree) {
    threads = options.schedule_pool != nullptr
                  ? options.schedule_pool->thread_count() + 1
                  : ThreadPool::resolve_threads(options.schedule_threads);
  }
  // The trie is decomposed when parallelism asks for it OR when a fixed
  // frontier pins the split (the batch driver's byte-identical contract:
  // the same decomposition must run at every thread count, pool or not).
  bool decompose = tree && (threads > 1 || options.subtree_frontier != 0);
  if (options.path_priority == PriorityPolicy::kRandom) {
    // The per-path priority draws consume the flow RNG in enumeration
    // order; that order is part of the reproducible serial behavior and
    // cannot be split across jobs.
    threads = 1;
    decompose = false;
  }

  // One work-stealing runtime for the subtree jobs, whether it came from
  // the caller (batch driver) or is owned here.
  ThreadPool* runtime = options.schedule_pool;
  std::unique_ptr<ThreadPool> owned_pool;
  if (runtime == nullptr && decompose && threads > 1) {
    // The calling thread participates in parallel_for, so threads - 1
    // workers reach the requested parallelism.
    owned_pool = std::make_unique<ThreadPool>(threads - 1);
    runtime = owned_pool.get();
  }
  PoolStats pool_before;
  if (runtime != nullptr) pool_before = runtime->stats();

  std::optional<ScheduleStage> stage_opt;
  if (decompose) {
    const std::size_t target = options.subtree_frontier != 0
                                   ? options.subtree_frontier
                                   : threads * 4;
    stage_opt = run_decomposed_stage(g, *flat, options, target, runtime);
  }
  ScheduleStage stage = stage_opt
                            ? std::move(*stage_opt)
                            : run_serial_stage(g, *flat, options, rng, tree);

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

  PoolStats pool_delta;
  if (runtime != nullptr) {
    pool_delta = runtime->stats().delta_since(pool_before);
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
                           stage.tree,
                           pool_delta,
                           stage.cache,
                           std::move(delays),
                           timings,
                           status,
                           total_leaves,
                           coverage};
}

}  // namespace cps
