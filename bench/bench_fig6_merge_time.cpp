// E5 — Fig. 6: execution time of the schedule-merging algorithm as a
// function of the number of merged schedules, for 60/80/120-node graphs.
//
// Paper reference (SPARCstation 20, 1998): 0.05s .. 0.25s, growing with
// the number of merged schedules and only weakly with the node count.
// Absolute times on a modern machine are far smaller; the *shape* is the
// reproduction target. The per-path list scheduling itself is also timed
// (paper: < 0.003 s for 120-node graphs). A merge that fails exits
// non-zero.
//
// --json-out FILE writes the measurements in a stable machine-readable
// schema (see cells_to_json below); --baseline FILE reads a previous
// --json-out dump (e.g. the committed BENCH_baseline.json) and reports the
// schedule+merge speedup of this run against it. The baseline comparison
// is informational only — it never fails the run, so CI stays robust to
// host-speed differences.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>

#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "sched/driver.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table_format.hpp"

namespace {

using namespace cps;
using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
      .count();
}

/// One (nodes, paths) cell of the measurement grid.
struct CellResult {
  std::size_t nodes = 0;
  std::size_t paths = 0;
  double merge_ms = 0.0;  // mean over the cell's graphs
  double sched_ms = 0.0;
  double conditions_mean = 0.0;
};

/// Machine-readable dump (schema_version 5): config, per-cell means, and
/// run totals. Schema 3 dropped schema 2's threads/compare/resume/
/// compare_resume config fields and the speculative/from-scratch columns
/// with them, and renamed merge_serial_ms to merge_ms; schema 4 dropped
/// config.engine (there is one engine); schema 5 dropped config.sched
/// (there is one per-path walk). totals.sched_plus_merge_ms, which
/// --baseline reads, is unchanged.
std::string cells_to_json(const CliParser& cli, std::size_t graphs_per_cell,
                          const std::vector<CellResult>& cells,
                          double total_merge_ms, double total_sched_ms) {
  JsonWriter w(2);
  w.begin_object();
  w.field("schema_version", 5);
  w.field("bench", "bench_fig6_merge_time");
  w.key("config").begin_object();
  w.field("graphs_per_cell", graphs_per_cell);
  w.field("seed", cli.get_int("seed"));
  w.field("nodes", cli.get_string("nodes"));
  w.field("paths", cli.get_string("paths"));
  w.end_object();
  w.key("cells").begin_array();
  for (const CellResult& cell : cells) {
    w.begin_object();
    w.field("nodes", cell.nodes);
    w.field("paths", cell.paths);
    w.field("conditions_mean", cell.conditions_mean);
    w.field("sched_ms", cell.sched_ms);
    w.field("merge_ms", cell.merge_ms);
    w.end_object();
  }
  w.end_array();
  w.key("totals").begin_object();
  w.field("sched_ms", total_sched_ms);
  w.field("merge_ms", total_merge_ms);
  w.field("sched_plus_merge_ms", total_sched_ms + total_merge_ms);
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

/// Report this run against a committed --json-out dump. Informational:
/// prints the ratio (baseline slower => ratio > 1) and never fails. Only
/// runs with the baseline's exact workload are compared — a ratio across
/// different graph counts or sizes would be meaningless.
void report_against_baseline(std::ostream& os, const std::string& path,
                             const CliParser& cli,
                             std::size_t graphs_per_cell, double sched_ms,
                             double merge_ms) {
  JsonValue baseline;
  try {
    baseline = JsonValue::parse_file(path);
  } catch (const ParseError& e) {
    os << "baseline " << path << " not usable (" << e.what()
              << ") — skipping comparison\n";
    return;
  }
  try {
    const JsonValue& config = baseline.at("config");
    const bool same_workload =
        config.at("graphs_per_cell").as_int() ==
            static_cast<std::int64_t>(graphs_per_cell) &&
        config.at("seed").as_int() == cli.get_int("seed") &&
        config.at("nodes").as_string() == cli.get_string("nodes") &&
        config.at("paths").as_string() == cli.get_string("paths");
    if (!same_workload) {
      os << "baseline " << path
         << " measures a different workload (graphs="
         << config.at("graphs_per_cell").as_int() << " seed="
         << config.at("seed").as_int() << " nodes="
         << config.at("nodes").as_string() << " paths="
         << config.at("paths").as_string() << ") — skipping comparison\n";
      return;
    }
    const double base =
        baseline.at("totals").at("sched_plus_merge_ms").as_number();
    const double ours = sched_ms + merge_ms;
    os << "baseline " << path << ": schedule+merge " << format_double(base, 1)
       << " ms -> " << format_double(ours, 1) << " ms, speedup "
       << format_double(base / std::max(ours, 1e-9), 2) << "x\n";
  } catch (const ParseError& e) {
    os << "baseline " << path << " has an unexpected schema (" << e.what()
       << ") — skipping comparison\n";
  }
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("Fig. 6: execution time of schedule merging");
  cli.add_flag("graphs", "8", "graphs per (nodes, paths) cell");
  cli.add_flag("seed", "42", "base random seed");
  cli.add_flag("nodes", "60,80,120", "comma-separated node counts");
  cli.add_flag("paths", "10,12,18,24,32",
               "comma-separated merged-schedule counts");
  cli.add_flag("json-out", "",
               "write the measurements (stable schema) as JSON to FILE "
               "(- = stdout)");
  cli.add_flag("baseline", "BENCH_baseline.json",
               "previous --json-out dump to report a speedup against "
               "(skipped silently when the file does not exist; empty = "
               "off)");
  if (!cli.parse(argc, argv)) return 0;
  const auto graphs_per_cell = cli.get_count("graphs", 1);
  const std::vector<std::size_t> node_counts = cli.get_count_list("nodes");
  const std::vector<std::size_t> path_counts = cli.get_count_list("paths");

  AsciiTable merge_time("Fig. 6 — schedule merging time (milliseconds)");
  AsciiTable sched_time(
      "Per-path list scheduling time, all paths together (milliseconds)");
  std::vector<std::string> head{"nodes \\ merged schedules"};
  for (std::size_t p : path_counts) head.push_back(std::to_string(p));
  merge_time.header(head);
  sched_time.header(head);

  double total_merge_ms = 0.0;
  double total_sched_ms = 0.0;
  std::vector<CellResult> cells;
  bool merge_failed = false;
  WorkspaceStats merge_workspace;

  // One engine workspace for all per-path scheduling, so buffer
  // allocations stay out of the timed regions.
  EngineWorkspace sched_ws;

  std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  for (std::size_t nodes : node_counts) {
    std::vector<std::string> mrow{std::to_string(nodes)};
    std::vector<std::string> srow{std::to_string(nodes)};
    for (std::size_t paths : path_counts) {
      StatAccumulator merge_ms;
      StatAccumulator sched_ms;
      StatAccumulator conditions;
      for (std::size_t i = 0; i < graphs_per_cell; ++i) {
        Rng rng(++seed);
        const Architecture arch = generate_random_architecture(rng);
        RandomCpgParams params;
        params.process_count = nodes;
        params.path_count = paths;
        const Cpg g = generate_random_cpg(arch, params, rng);
        const FlatGraph fg = FlatGraph::expand(g);
        conditions.add(static_cast<double>(g.conditions().size()));

        // Enumeration streams, but its cost is excluded from the
        // list-scheduling figure (the paper quotes them separately).
        std::vector<AltPath> alt;
        std::vector<PathSchedule> schedules;
        CoverCache cache;
        PathEnumerator en(g);
        double cell_sched_ms = 0.0;
        while (auto path = en.next()) {
          alt.push_back(std::move(*path));
          const auto t_sched = clock_type::now();
          EngineRequest req = make_path_request(
              fg, alt.back(), PriorityPolicy::kCriticalPath, nullptr,
              ReadySelection::kHeap, &cache);
          EngineResult res = run_list_scheduler(fg, req, sched_ws);
          if (!res.feasible) {
            std::cerr << "ERROR: path unschedulable: " << res.reason << '\n';
            return 1;
          }
          schedules.push_back(std::move(res.schedule));
          cell_sched_ms += ms_since(t_sched);
        }
        sched_ms.add(cell_sched_ms);

        const auto t0 = clock_type::now();
        const MergeResult merged = merge_schedules(fg, alt, schedules);
        merge_ms.add(ms_since(t0));
        merge_workspace += merged.workspace;
        if (!merged.ok) {
          merge_failed = true;
          std::cerr << "ERROR: merge infeasible (nodes=" << nodes
                    << " paths=" << paths << " seed=" << seed
                    << "): " << merged.error << "\n";
        }
      }
      mrow.push_back(format_double(merge_ms.mean(), 3));
      srow.push_back(format_double(sched_ms.mean(), 3));
      CellResult cell;
      cell.nodes = nodes;
      cell.paths = paths;
      cell.merge_ms = merge_ms.mean();
      cell.sched_ms = sched_ms.mean();
      cell.conditions_mean = conditions.mean();
      cells.push_back(cell);
      total_merge_ms += merge_ms.mean() * graphs_per_cell;
      total_sched_ms += sched_ms.mean() * graphs_per_cell;
    }
    merge_time.add_row(mrow);
    sched_time.add_row(srow);
  }

  // With --json-out - the JSON owns stdout; the human report moves to
  // stderr (same convention as bench_batch_throughput).
  std::ostream& human =
      cli.get_string("json-out") == "-" ? std::cerr : std::cout;
  human << "=== E5: Fig. 6 reproduction (" << graphs_per_cell
        << " graphs per cell) ===\n\n";
  merge_time.render(human);
  human << '\n';
  sched_time.render(human);
  human << "\nengine workspace (merges): " << merge_workspace.runs
        << " runs, " << merge_workspace.reuse_hits << " buffer reuses\n";

  const std::string json_path = cli.get_string("json-out");
  if (!json_path.empty()) {
    const std::string json = cells_to_json(cli, graphs_per_cell, cells,
                                           total_merge_ms, total_sched_ms);
    if (!JsonWriter::write_output(json_path, json)) return 1;
  }
  const std::string baseline_path = cli.get_string("baseline");
  if (!baseline_path.empty() && std::ifstream(baseline_path).good()) {
    human << '\n';
    report_against_baseline(human, baseline_path, cli, graphs_per_cell,
                            total_sched_ms, total_merge_ms);
  }

  if (merge_failed) return 1;
  human << "\npaper shape: merge time grows with the number of merged "
           "schedules (0.05s..0.25s\non a 1998 SPARCstation 20) and "
           "depends only weakly on the node count.\n";
  return 0;
} catch (const cps::ParseError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
