// wide-shallow: one thread calls schedule_cpg with default
// options for each graph of the workload in turn.
#include <chrono>
#include <map>

#include "bench_stats.hpp"
#include "io/table_csv.hpp"
#include "layers.hpp"
#include "sched/driver.hpp"
#include "support/error.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;

/// Calls between two samples of the host's speed: about 20 samples a
/// round, so the run's median sample follows the host's speed over the
/// whole run.
constexpr std::size_t kKernelEvery = 24;

/// Item `index` of config `config`.
struct GraphRef {
  std::size_t config = 0;
  std::size_t index = 0;
  std::string key;  ///< golden key, e.g. "n60-p10-uniform/3"
};

struct Graph {
  const GraphRef* ref = nullptr;
  std::unique_ptr<cps::Cpg> cpg;
};

std::string output_record(const std::string& csv, cps::Time delta_m,
                          cps::Time delta_max) {
  return "csv:" + fnv1a_hex(csv) + ":" + std::to_string(csv.size()) +
         " delta_m:" + std::to_string(delta_m) +
         " delta_max:" + std::to_string(delta_max);
}

/// The workload's graphs and the output each must produce. For every
/// config it takes the first graphs_per_config indices that are not known
/// defects, and three warm-up graphs from kWarmupIndex on. Each is run
/// once through run_batch_item, the oracle, which records its table CSV
/// digest and delays; an item the oracle fails on counts as failed.
struct Selection {
  std::vector<GraphRef> graphs;
  std::vector<GraphRef> warmups;
  Golden expected;  ///< key -> output record
};

Selection select_graphs(const PipelineWorkload& w,
                        const KnownDefects& defects, RunResult& result) {
  Selection s;
  const auto take = [&](std::size_t c, std::size_t* next,
                        std::vector<GraphRef>* into) {
    const std::size_t j = next_input(w.configs[c], defects, next);
    const std::string key =
        config_label(w.configs[c]) + "/" + std::to_string(j);
    cps::BatchItem item;
    std::string csv;
    if (run_oracle(w.configs[c], j, key, &item, &csv, result)) {
      s.expected[key] = output_record(csv, item.delta_m, item.delta_max);
      into->push_back(GraphRef{c, j, key});
    }
  };
  for (std::size_t c = 0; c < w.configs.size(); ++c) {
    std::size_t next = 0;
    for (std::size_t n = 0; n < w.graphs_per_config; ++n) {
      take(c, &next, &s.graphs);
    }
  }
  const std::size_t last = w.configs.size() - 1;
  for (const std::size_t c : {std::size_t{0}, last / 2, last}) {
    std::size_t next = kWarmupIndex;
    take(c, &next, &s.warmups);
  }
  return s;
}

/// One schedule_cpg call, checked against the oracle: its wall time
/// (kMissed when it failed or produced a wrong output) and what it
/// produced. validate_table runs inside every call
/// (CoSynthesisOptions::validate is on by default); a violation throws and
/// counts as a failed operation.
struct Call {
  double wall = kMissed;
  Reference output;
};

Call timed_call(const PipelineWorkload& w, const Selection& s, const Graph& g,
                RunResult& result, double* cpu_ms) {
  Call call;
  ++result.attempted;
  const std::string& key = g.ref->key;
  try {
    const double cpu0 = process_cpu_ms();
    const auto t0 = clock_type::now();
    const cps::CoSynthesisResult r = cps::schedule_cpg(*g.cpg, w.synthesis);
    const double wall = ms_since(t0);
    *cpu_ms += process_cpu_ms() - cpu0;
    call.output = Reference{cps::table_csv_string(r.table), r.merge_stats,
                            r.delays.delta_m, r.delays.delta_max};
    const std::string record = output_record(
        call.output.csv, r.delays.delta_m, r.delays.delta_max);
    if (record == s.expected.at(key)) {
      call.wall = wall;
    } else {
      result.fail(key + ": expected " + s.expected.at(key) + ", got " +
                  record);
    }
  } catch (const std::exception& e) {
    result.fail(key + ": " + e.what());
  }
  return call;
}

/// What a user of the library pays before the first measured call:
/// generating the inputs, and a warm-up on the three warm-up graphs (it
/// starts the shared merge pool and warms the heap). Warm-up outputs are
/// checked like measured ones.
std::vector<Graph> set_up(const PipelineWorkload& w, const Selection& s,
                          RunResult& result) {
  std::vector<Graph> graphs;
  for (const GraphRef& ref : s.graphs) {
    graphs.push_back(
        Graph{&ref, generate_graph(w.configs[ref.config], ref.index)});
  }
  for (const GraphRef& ref : s.warmups) {
    const Graph warm{&ref, generate_graph(w.configs[ref.config], ref.index)};
    double cpu_ms = 0.0;
    timed_call(w, s, warm, result, &cpu_ms);
  }
  return graphs;
}

/// A run is a series of rounds. Each round sets up afresh (new inputs,
/// warm-up), then calls schedule_cpg on every graph twice: the first pass
/// is cold (the round's first call on the graph), the second repeats it.
/// Each call's wall and CPU time is its fastest round, because
/// interference from other tenants of the host only ever adds time. One
/// thread makes the calls back to back, so the rate is calls per second
/// of those times.
void measure(const PipelineWorkload& w, const Selection& s,
             const RunOptions& o, RunResult& result) {
  std::vector<double> setups;
  std::vector<std::vector<double>> walls;  // [round][call], 2 per graph
  std::vector<std::vector<double>> cpus;
  std::vector<double> kernel_ms;
  double measured_ms = 0.0;
  while (walls.size() < kMinRounds || measured_ms < o.seconds * 1e3) {
    const auto t0 = clock_type::now();
    const std::vector<Graph> graphs = set_up(w, s, result);
    setups.push_back(ms_since(t0) / 1e3);
    walls.emplace_back();
    cpus.emplace_back();
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        if (i % kKernelEvery == 0) kernel_ms.push_back(time_reference_kernel());
        const Graph& g = graphs[i];
        double cpu_ms = 0.0;
        const double wall = timed_call(w, s, g, result, &cpu_ms).wall;
        walls.back().push_back(wall);
        cpus.back().push_back(wall == kMissed ? kMissed : cpu_ms);
        if (wall != kMissed) measured_ms += wall;
      }
    }
    if (measured_ms >= kMaxMeasureMs) break;
  }

  const double f = result.speed_factor = speed_factor(kernel_ms);
  const std::vector<double> wall = position_values(walls);
  const std::vector<double> cpu = position_values(cpus);
  const auto half = wall.begin() + static_cast<std::ptrdiff_t>(s.graphs.size());
  const auto tail = supported_percentile(wall, 90);
  if (!tail) result.fail("too few graphs for graph_ms_p90");
  result.add("setup_s", f * best(setups, false), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("graphs_per_s", 1e3 / (f * mean(wall)), "1/s");
  result.add("cpu_ms_per_graph", f * mean(cpu), "ms");
  result.add("cold_ms_p50",
             f * percentile({wall.begin(), half}, 50).value_or(kMissed), "ms");
  result.add("repeat_ms_p50",
             f * percentile({half, wall.end()}, 50).value_or(kMissed), "ms");
  result.add("graph_ms_p90", f * tail.value_or(kMissed), "ms");
}

/// Rounds of one untraced pass (schedule_cpg, the attribution base) and
/// one traced pass (the same pipeline composed layer by layer), then the
/// service-side layers once per graph.
void measure_traced(const PipelineWorkload& w, const Selection& s,
                    const RunOptions& o, RunResult& result) {
  SpanLog log;
  LayerCounters counters;
  double untraced_ms = 0.0;
  std::size_t untraced_calls = 0;
  double traced_ms = 0.0;
  double cpu_ms = 0.0;
  std::map<std::string, Reference> refs;
  std::vector<double> kernel_ms;
  while (untraced_ms + traced_ms < o.seconds * 1e3 &&
         untraced_ms + traced_ms < kMaxMeasureMs) {
    kernel_ms.push_back(time_reference_kernel());
    const std::vector<Graph> graphs = set_up(w, s, result);
    for (const Graph& g : graphs) {
      Call call = timed_call(w, s, g, result, &cpu_ms);
      if (call.wall == kMissed) continue;
      untraced_ms += call.wall;
      ++untraced_calls;
      refs[g.ref->key] = std::move(call.output);
    }
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const Graph& g = graphs[i];
      ++result.attempted;
      try {
        const double t0 = log.now_ms();
        const std::string why = compose_pipeline(
            *g.cpg, w.synthesis, refs[g.ref->key], i, log, counters);
        traced_ms += log.now_ms() - t0;
        if (!why.empty()) result.fail(g.ref->key + ": traced run: " + why);
      } catch (const std::exception& e) {
        result.fail(g.ref->key + ": traced run: " + e.what());
      }
    }
  }
  for (std::size_t i = 0; i < s.graphs.size(); ++i) {
    const GraphRef& ref = s.graphs[i];
    time_item_layers(w.configs[ref.config], ref.index, i, refs[ref.key].csv,
                     log, result);
  }
  if (untraced_calls > 0) {
    counters.untraced_ms_per_graph =
        untraced_ms / static_cast<double>(untraced_calls);
    counters.trace_overhead_frac =
        log.mean_ms("pipeline") / counters.untraced_ms_per_graph - 1.0;
  }
  result.speed_factor = speed_factor(kernel_ms);
  add_layer_metrics(log, counters, result);
  if (!o.trace_out.empty()) log.write(o.trace_out);
}

}  // namespace

void run_pipeline(const RunOptions& o, RunResult& result) {
  const PipelineWorkload w = make_pipeline_workload(o.workload, o.seed);
  const Selection s = select_graphs(w, load_known_defects(o), result);
  Golden measured;
  for (const GraphRef& ref : s.graphs) {
    measured[ref.key] = s.expected.at(ref.key);
  }
  check_goldens(measured, o, result);
  if (o.inputs_only) return;
  if (o.trace) {
    measure_traced(w, s, o, result);
  } else {
    measure(w, s, o, result);
  }
}

}  // namespace perfbench
