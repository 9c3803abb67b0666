#include "layers.hpp"

#include <memory>
#include <vector>

#include "bench_stats.hpp"
#include "cpg/canonical.hpp"
#include "cpg/paths.hpp"
#include "io/table_csv.hpp"
#include "sched/schedule_cache.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

bool same_stats(const cps::MergeStats& a, const cps::MergeStats& b) {
  return a.backsteps == b.backsteps && a.adjustments == b.adjustments &&
         a.locks == b.locks && a.conflicts == b.conflicts &&
         a.conflict_moves == b.conflict_moves &&
         a.unresolved_conflicts == b.unresolved_conflicts &&
         a.relaxed_locks == b.relaxed_locks &&
         a.column_clashes == b.column_clashes &&
         a.speculative_hits == b.speculative_hits &&
         a.speculative_misses == b.speculative_misses;
}

double ratio(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

std::string compose_pipeline(const cps::Cpg& g,
                             const cps::CoSynthesisOptions& options,
                             const Reference& ref, std::uint64_t id,
                             SpanLog& log, LayerCounters& counters) {
  using namespace cps;
  const double t_root = log.now_ms();
  const std::unique_ptr<FlatGraph> flat =
      log.timed(id, "cpg.flat_graph.expand", "pipeline", [&] {
        return std::make_unique<FlatGraph>(FlatGraph::expand(g));
      });

  // schedule_cpg's serial walk under its default options: one
  // EngineHistory chain across the guard-trie leaves in enumeration
  // order, with a call-local workspace and cover cache.
  std::vector<AltPath> paths;
  std::vector<PathSchedule> schedules;
  std::string engine_error;
  log.timed(id, "sched.list_scheduler", "pipeline", [&] {
    Rng rng(options.merge.random_seed);
    CoverCache cover_cache;
    EngineWorkspace workspace;
    EngineHistory chain;
    PathEnumerator enumerator(g);
    while (auto path = enumerator.next()) {
      paths.push_back(std::move(*path));
      EngineRequest req =
          make_path_request(*flat, paths.back(), options.path_priority, &rng,
                            options.merge.ready, &cover_cache);
      req.resume = EngineResume::kCheckpoint;
      req.history = &chain;
      EngineResult res = run_list_scheduler(*flat, req, workspace);
      if (!res.feasible) {
        engine_error = res.reason;
        return;
      }
      ++counters.leaves;
      if (res.resumed) ++counters.leaf_resumes;
      schedules.push_back(std::move(res.schedule));
    }
  });
  if (!engine_error.empty()) return "path unschedulable: " + engine_error;

  const double cpu0 = process_cpu_ms();
  const MergeResult merged = log.timed(id, "sched.merge", "pipeline", [&] {
    return merge_schedules(*flat, paths, schedules, options.merge);
  });
  counters.merge_cpu_ms += process_cpu_ms() - cpu0;
  if (!merged.ok) return "merge failed: " + merged.error;

  const TableValidation validation =
      log.timed(id, "sched.table_validate", "pipeline", [&] {
        return validate_table(*flat, merged.table, paths);
      });
  if (!validation.ok) return "composed table fails validation";
  const DelayReport delays = log.timed(id, "sched.delay", "pipeline", [&] {
    return delay_report(*flat, paths, schedules, merged.table);
  });
  log.add(id, "pipeline", "", t_root, log.now_ms());

  const std::string csv = log.timed(
      id, "io.table_csv", "", [&] { return table_csv_string(merged.table); });

  ++counters.graphs;
  counters.spec_hits += merged.stats.speculative_hits;
  counters.spec_misses += merged.stats.speculative_misses;
  counters.merge_runs += merged.workspace.runs;
  counters.merge_resumes += merged.workspace.resumes;
  counters.adjustments += merged.stats.adjustments;
  counters.increase_percent_sum += delays.increase_percent;

  if (csv != ref.csv) return "composed table differs from schedule_cpg's";
  if (!same_stats(merged.stats, ref.merge)) {
    return "composed MergeStats differ from schedule_cpg's";
  }
  if (delays.delta_m != ref.delta_m || delays.delta_max != ref.delta_max) {
    return "composed delay report differs from schedule_cpg's";
  }
  return "";
}

double time_item_layers(const cps::BatchConfig& config, std::size_t index,
                        std::uint64_t id, const std::string& csv,
                        SpanLog& log, RunResult& result) {
  using namespace cps;
  const std::unique_ptr<Cpg> g = log.timed(
      id, "gen.random_cpg", "", [&] { return generate_graph(config, index); });
  Digest128 digest;
  const std::string key = log.timed(id, "cpg.canonical", "", [&] {
    std::string encoding = canonical_encoding(*g);
    digest = digest_of(encoding);
    return encoding;
  });

  BatchConfig uncached = config;
  uncached.cache = nullptr;
  const double t0 = log.now_ms();
  const BatchItem item = run_batch_item(uncached, index, nullptr);
  const double item_ms = log.now_ms() - t0;
  log.add(id, "sched.batch_driver.item", "", t0, t0 + item_ms);
  ++result.attempted;
  if (!item.ok) result.fail("batch item " + std::to_string(index) + ": " +
                            item.error);

  log.timed(id, "serve.protocol.response", "",
            [&] { return make_item_response(id, item, &csv); });

  // A cache hit on a key and payload of the size the daemon stores.
  ScheduleCache cache;
  const std::string payload =
      batch_item_to_json(item, serve_item_json_options()) + csv;
  cache.insert(digest, key, payload);
  std::string replay;
  const bool hit =
      log.timed(id, "sched.schedule_cache.lookup", "",
                [&] { return cache.lookup(digest, key, &replay); });
  ++result.attempted;
  if (!hit || replay != payload) {
    result.fail("schedule cache lookup missed an inserted key");
  }
  return item_ms;
}

void add_layer_metrics(const SpanLog& log, const LayerCounters& c,
                       RunResult& result) {
  const double f = result.speed_factor;
  const auto span_ms = [&](const char* name) { return f * log.mean_ms(name); };
  const double expand = span_ms("cpg.flat_graph.expand");
  const double schedule = span_ms("sched.list_scheduler");
  const double merge = span_ms("sched.merge");
  const double validate = span_ms("sched.table_validate");
  const double delay = span_ms("sched.delay");
  const double graphs = static_cast<double>(c.graphs);

  result.add("cpg.flat_graph.expand_ms", expand, "ms");
  result.add("sched.list_scheduler.ms", schedule, "ms");
  result.add("sched.list_scheduler.resume_frac",
             ratio(c.leaf_resumes, c.leaves), "ratio");
  result.add("sched.merge.ms", merge, "ms");
  result.add("sched.merge.cpu_ms",
             graphs > 0 ? f * c.merge_cpu_ms / graphs : 0.0, "ms");
  result.add("sched.merge.spec_hit_frac",
             ratio(c.spec_hits, c.spec_hits + c.spec_misses), "ratio");
  result.add("sched.merge.resume_frac", ratio(c.merge_resumes, c.merge_runs),
             "ratio");
  result.add("sched.merge.adjustments",
             graphs > 0 ? static_cast<double>(c.adjustments) / graphs : 0.0,
             "count");
  result.add("sched.merge.delay_increase_pct",
             graphs > 0 ? c.increase_percent_sum / graphs : 0.0, "%");
  result.add("sched.table_validate.ms", validate, "ms");
  result.add("sched.delay.ms", delay, "ms");
  result.add("pipeline.unattributed_frac",
             c.untraced_ms_per_graph > 0.0
                 ? 1.0 - (expand + schedule + merge + validate + delay) /
                             (f * c.untraced_ms_per_graph)
                 : 0.0,
             "ratio");
  result.add("trace.overhead_frac", c.trace_overhead_frac, "ratio");
  result.add("sched.batch_driver.item_ms", span_ms("sched.batch_driver.item"),
             "ms");
  result.add("serve.server.overhead_ms",
             c.server_overhead_samples == 0
                 ? 0.0
                 : f * c.server_overhead_ms /
                       static_cast<double>(c.server_overhead_samples),
             "ms");
  result.add("io.table_csv.ms", span_ms("io.table_csv"), "ms");
  result.add("gen.random_cpg.ms", span_ms("gen.random_cpg"), "ms");
  result.add("cpg.canonical.ms", span_ms("cpg.canonical"), "ms");
  result.add("sched.schedule_cache.lookup_ms",
             span_ms("sched.schedule_cache.lookup"), "ms");
  result.add("serve.protocol.response_ms",
             span_ms("serve.protocol.response"), "ms");
  result.add("sched.schedule_cache.exact_hit_frac",
             ratio(c.exact_hits, c.exact_lookups), "ratio");
  result.add("sched.schedule_cache.prefix_hit_frac",
             ratio(c.prefix_hits, c.prefix_lookups), "ratio");
  result.add("sched.workspace_pool.warm_frac", ratio(c.warm_hits, c.leases),
             "ratio");
}

}  // namespace perfbench
