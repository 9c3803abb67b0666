// S2 — batch co-synthesis throughput: graphs/second of the parallel batch
// driver as the worker-thread count grows, on a fixed deterministic
// workload. The scaling-substrate benchmark for the ROADMAP's
// "thousands of scenarios" north star: per-task seeding makes the result
// set identical at every thread count, so the sweep isolates pure
// parallel-efficiency effects.
//
// `--json FILE` dumps the final batch (machine-readable) to FILE
// ("-" = stdout).
#include <unistd.h>

#include <iostream>
#include <memory>
#include <thread>

#include "sched/batch_driver.hpp"
#include "sched/schedule_cache.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/table_format.hpp"

int main(int argc, char** argv) try {
  using namespace cps;
  CliParser cli("parallel batch co-synthesis throughput");
  cli.add_flag("graphs", "64", "graphs per batch");
  cli.add_flag("nodes", "60", "processes per graph");
  cli.add_flag("paths", "10", "alternative paths per graph");
  cli.add_flag("seed", "1", "base random seed");
  cli.add_flag("max-threads", "0",
               "largest worker count of the sweep (0 = hardware)");
  cli.add_flag("deadline-ms", "0",
               "per-item wall-clock deadline in ms (0 = none); timed-out "
               "items are isolated, not fatal");
  cli.add_flag("retries", "2",
               "retry attempts for transient injected faults per item");
  cli.add_flag("json", "", "dump the last batch as JSON to FILE (- = stdout)");
  cli.add_flag("json-out", "",
               "write the throughput sweep (stable schema: threads, wall "
               "ms, graphs/s, speedup) as JSON to FILE (- = stdout)");
  cli.add_flag("threads", "",
               "run only this worker count instead of the power-of-two "
               "sweep");
  cli.add_bool("no-timing",
               "omit wall-clock fields from --json so output is "
               "byte-identical across runs and thread counts");
  cli.add_bool("server",
               "route the same workload through an in-process co-synthesis "
               "service (closed-loop client per worker) instead of "
               "run_batch — measures the service overhead on top of the "
               "batch substrate");
  cli.add_flag("cache-dir", "",
               "content-addressed schedule cache backed by this directory "
               "(persists across runs; a second identical run replays "
               "every item from the store)");
  if (!cli.parse(argc, argv)) return 0;

  BatchConfig config;
  config.count = cli.get_count("graphs", 0);
  config.base_seed = static_cast<std::uint64_t>(cli.get_count("seed", 0));
  config.cpg.process_count = cli.get_count("nodes", 1);
  config.cpg.path_count = cli.get_count("paths", 1);
  config.deadline_ms = static_cast<double>(cli.get_count("deadline-ms", 0));
  config.max_retries = cli.get_count("retries", 0);

  // One cache across the whole sweep: the 1-thread point warms it and
  // wider points replay (results are byte-identical either way). With
  // --cache-dir the exact tier persists across bench invocations too.
  std::unique_ptr<ScheduleCache> cache;
  if (!cli.get_string("cache-dir").empty()) {
    ScheduleCacheOptions cache_options;
    cache_options.store_dir = cli.get_string("cache-dir");
    cache = std::make_unique<ScheduleCache>(cache_options);
    config.cache = cache.get();
  }

  std::size_t max_threads = cli.get_count("max-threads", 0);
  if (max_threads == 0) {
    max_threads = std::thread::hardware_concurrency();
    if (max_threads == 0) max_threads = 1;
  }

  AsciiTable table("S2 — batch throughput (" + std::to_string(config.count) +
                   " graphs, " + std::to_string(config.cpg.process_count) +
                   " nodes, " + std::to_string(config.cpg.path_count) +
                   " paths)");
  table.header({"threads", "wall ms", "graphs/s", "speedup", "efficiency %",
                "ok", "timeouts", "retries"});

  // Sweep powers of two, always ending exactly at max_threads — unless
  // --threads pins a single worker count (determinism checks in CI).
  std::vector<std::size_t> sweep;
  if (!cli.get_string("threads").empty()) {
    sweep.push_back(cli.get_count("threads", 1));
  } else {
    for (std::size_t threads = 1; threads < max_threads; threads *= 2) {
      sweep.push_back(threads);
    }
    sweep.push_back(max_threads);
  }

  const bool serve_mode = cli.get_bool("server");
  if (serve_mode && !cli.get_string("json").empty()) {
    std::cerr << "error: --json (per-item dump) is a run_batch feature; "
                 "--server responses live in the service protocol — use "
                 "bench_serve_load --verify for per-item comparisons\n";
    return 1;
  }

  std::string last_json;
  double base_wall = 0.0;
  bool failed = false;
  struct SweepPoint {
    std::size_t threads = 0;
    double wall_ms = 0.0;
    double graphs_per_second = 0.0;
    double speedup = 0.0;
    std::size_t timeouts = 0;
    std::size_t retries = 0;
  };
  std::vector<SweepPoint> points;
  for (std::size_t threads : sweep) {
    config.threads = threads;
    SweepPoint point;
    point.threads = threads;
    std::size_t ok_count = 0;
    if (serve_mode) {
      // Same workload definition, routed through the service: an
      // in-process Server with `threads` workers, a closed-loop client
      // per worker. The delta against the plain sweep is the service
      // overhead (framing, admission, completion hand-off).
      ServerOptions options;
      options.socket_path =
          "/tmp/condsched_s2_" + std::to_string(::getpid()) + ".sock";
      options.threads = threads;
      // The whole batch is offered deliberately; admission must not shed.
      options.max_queue_depth = std::max<std::size_t>(config.count, 1);
      options.workload = config;
      Server server(std::move(options));
      std::thread runner([&server] { server.run(); });
      LoadGenConfig load;
      load.socket_path = server.socket_path();
      load.requests = config.count;
      load.connections = threads;
      const LoadGenResult r = run_loadgen(load);
      server.request_drain();
      runner.join();
      // The workload's own --deadline-ms applies inside run_batch_item,
      // so timeouts surface as deadline-coded item responses here too.
      if (r.ok + r.timed_out != config.count) failed = true;
      ok_count = r.ok;
      point.wall_ms = r.wall_ms;
      point.graphs_per_second =
          r.wall_ms > 0.0
              ? 1000.0 * static_cast<double>(r.responses) / r.wall_ms
              : 0.0;
      point.timeouts = r.timed_out;
    } else {
      const BatchResult result = run_batch(config);
      const BatchSummary& s = result.summary;
      // A timed-out item is an expected outcome under --deadline-ms, not
      // a benchmark failure; anything else failing still fails the run.
      if (s.ok_count + s.timeouts != s.count) failed = true;
      ok_count = s.ok_count;
      point.wall_ms = s.wall_ms;
      point.graphs_per_second = s.graphs_per_second;
      point.timeouts = s.timeouts;
      point.retries = s.retries;
      if (!cli.get_string("json").empty()) {
        BatchJsonOptions json_options;
        json_options.include_timing = !cli.get_bool("no-timing");
        last_json = batch_result_to_json(result, json_options);
      }
    }
    if (threads == 1) base_wall = point.wall_ms;
    point.speedup = point.wall_ms > 0.0 ? base_wall / point.wall_ms : 0.0;
    points.push_back(point);
    table.cell(static_cast<std::int64_t>(threads))
        .cell(point.wall_ms, 1)
        .cell(point.graphs_per_second, 1)
        .cell(point.speedup, 2)
        .cell(100.0 * point.speedup / static_cast<double>(threads), 1)
        .cell(static_cast<std::int64_t>(ok_count))
        .cell(static_cast<std::int64_t>(point.timeouts))
        .cell(static_cast<std::int64_t>(point.retries));
    table.end_row();
  }

  const std::string json_path = cli.get_string("json");
  const std::string perf_path = cli.get_string("json-out");
  if (json_path == "-" && perf_path == "-") {
    std::cerr << "error: --json - and --json-out - would interleave two "
                 "JSON documents on stdout; write one of them to a file\n";
    return 1;
  }
  // With --json(-out) - the JSON owns stdout; the human table moves to
  // stderr.
  std::ostream& human =
      json_path == "-" || perf_path == "-" ? std::cerr : std::cout;
  human << "=== S2: batch co-synthesis throughput ===\n\n";
  table.render(human);
  if (!json_path.empty()) {
    if (!JsonWriter::write_output(json_path, last_json)) return 1;
  }
  if (!perf_path.empty()) {
    JsonWriter w(2);
    w.begin_object();
    w.field("schema_version", 1);
    w.field("bench", "bench_batch_throughput");
    w.field("mode", serve_mode ? "server" : "batch");
    w.key("config").begin_object();
    w.field("graphs", config.count);
    w.field("nodes", config.cpg.process_count);
    w.field("paths", config.cpg.path_count);
    w.field("seed", config.base_seed);
    w.field("deadline_ms", config.deadline_ms);
    w.field("retries", config.max_retries);
    w.end_object();
    w.key("sweep").begin_array();
    for (const SweepPoint& p : points) {
      w.begin_object();
      w.field("threads", p.threads);
      w.field("wall_ms", p.wall_ms);
      w.field("graphs_per_second", p.graphs_per_second);
      w.field("timeouts", p.timeouts);
      w.field("retries", p.retries);
      if (base_wall > 0.0) {
        w.field("speedup", p.speedup);
      } else {
        // No 1-thread point in the sweep (--threads N): there is no
        // baseline to speak of, and a fabricated 0x would mislead
        // machine consumers.
        w.key("speedup").null();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!JsonWriter::write_output(perf_path, w.str() + "\n")) return 1;
  }
  return failed ? 1 : 0;
} catch (const cps::ParseError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
