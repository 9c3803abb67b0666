// The traced run's view of the layers: the pipeline composed call by call
// from each module's public functions, and the service-side calls around
// it, each timed from the benchmark's own code.
#pragma once

#include <cstdint>
#include <string>

#include "sched/driver.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What schedule_cpg produced for a graph. The composed pipeline must
/// reproduce it, or its layer times would describe a different program.
struct Reference {
  std::string csv;
  cps::MergeStats merge;
  cps::Time delta_m = 0;
  cps::Time delta_max = 0;
};

/// Counts behind the ratio and count metrics, summed over graphs.
struct LayerCounters {
  std::size_t graphs = 0;  ///< composed pipelines
  std::size_t leaves = 0;
  std::size_t leaf_resumes = 0;
  std::size_t spec_hits = 0;
  std::size_t spec_misses = 0;
  std::size_t merge_runs = 0;
  std::size_t merge_resumes = 0;
  std::size_t adjustments = 0;
  double merge_cpu_ms = 0.0;
  double increase_percent_sum = 0.0;  ///< DelayReport::increase_percent
  /// schedule_cpg wall time per graph, untraced (the attribution base).
  double untraced_ms_per_graph = 0.0;
  /// Traced / untraced wall - 1.
  double trace_overhead_frac = 0.0;
  // Service-side counters; zero on workloads without a server.
  std::size_t exact_hits = 0;
  std::size_t exact_lookups = 0;
  std::size_t prefix_hits = 0;
  std::size_t prefix_lookups = 0;
  std::size_t leases = 0;
  std::size_t warm_hits = 0;
  double server_overhead_ms = 0.0;
  std::size_t server_overhead_samples = 0;
};

/// Run the pipeline of `g` the way schedule_cpg's serial guard-trie walk
/// does, one span per layer under a "pipeline" span with `id`, then
/// render the table as CSV (span "io.table_csv"). Returns an empty string
/// when the table bytes, MergeStats and delays equal `ref`, and what
/// differs otherwise.
std::string compose_pipeline(const cps::Cpg& g,
                             const cps::CoSynthesisOptions& options,
                             const Reference& ref, std::uint64_t id,
                             SpanLog& log, LayerCounters& counters);

/// Time the service-side calls for item `index` of `config`: graph
/// generation, canonical digest, the whole batch item with the cache off,
/// a schedule-cache hit and the response body with `csv` attached.
/// Returns the batch item's wall time in milliseconds.
double time_item_layers(const cps::BatchConfig& config, std::size_t index,
                        std::uint64_t id, const std::string& csv,
                        SpanLog& log, RunResult& result);

/// Every per-layer metric, in BENCHMARK.json order.
void add_layer_metrics(const SpanLog& log, const LayerCounters& counters,
                       RunResult& result);

}  // namespace perfbench
