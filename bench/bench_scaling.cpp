// S1 — component scaling: wall-clock cost of every pipeline stage
// (expansion, path enumeration, per-path scheduling, merging, validation)
// as the graph grows. Complements Fig. 6 with a per-stage breakdown.
//
// Built on the parallel batch driver: each size row is one batch of
// deterministically seeded random CPGs. `--json FILE` dumps the
// machine-readable batch results (use "-" for stdout).
#include <iostream>

#include "sched/batch_driver.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/table_format.hpp"

namespace {

using namespace cps;

BatchResult run_size(std::size_t nodes, std::size_t graphs,
                     std::size_t paths, std::uint64_t seed,
                     std::size_t threads) {
  BatchConfig config;
  config.count = graphs;
  config.base_seed = seed;
  config.threads = threads;
  config.cpg.process_count = nodes;
  config.cpg.path_count = paths;
  return run_batch(config);
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("pipeline stage scaling");
  cli.add_flag("graphs", "6", "graphs per size");
  cli.add_flag("paths", "12", "alternative paths per graph");
  cli.add_flag("seed", "5", "base random seed");
  cli.add_flag("sizes", "40,80,160,320", "comma-separated node counts");
  cli.add_flag("threads", "1", "worker threads per batch (0 = hardware)");
  cli.add_flag("json", "", "dump batch results as JSON to FILE (- = stdout)");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t graphs = cli.get_count("graphs", 1);
  const std::size_t paths = cli.get_count("paths", 1);
  const std::size_t threads = cli.get_count("threads", 0);
  const auto seed = static_cast<std::uint64_t>(cli.get_count("seed", 0));
  const std::vector<std::size_t> sizes = cli.get_count_list("sizes");

  AsciiTable table("S1 — pipeline stage cost (ms, averaged over " +
                   std::to_string(graphs) + " graphs, " +
                   std::to_string(paths) + " paths)");
  table.header({"nodes", "expand", "enumerate", "schedule paths", "merge",
                "validate", "tasks", "table cells"});

  std::vector<std::string> json_batches;
  bool failed = false;
  for (std::size_t nodes : sizes) {
    const BatchResult result = run_size(nodes, graphs, paths, seed, threads);
    const BatchSummary& s = result.summary;
    for (const BatchItem& item : result.items) {
      if (!item.ok) {
        std::cerr << "graph seed " << item.seed << " failed: " << item.error
                  << '\n';
        failed = true;
      }
    }
    table.cell(static_cast<std::int64_t>(nodes))
        .cell(s.expand_ms.mean(), 3)
        .cell(s.enumerate_ms.mean(), 3)
        .cell(s.schedule_ms.mean(), 3)
        .cell(s.merge_ms.mean(), 3)
        .cell(s.validate_ms.mean(), 3)
        .cell(s.tasks.mean(), 0)
        .cell(s.table_entries.mean(), 0);
    table.end_row();
    if (!cli.get_string("json").empty()) {
      json_batches.push_back(batch_result_to_json(result));
    }
  }

  const std::string json_path = cli.get_string("json");
  // With --json - the JSON owns stdout; the human table moves to stderr.
  std::ostream& human = json_path == "-" ? std::cerr : std::cout;
  human << "=== S1: pipeline scaling ===\n\n";
  table.render(human);
  if (!json_path.empty()) {
    // One JSON array with one batch object per size (each
    // batch_result_to_json string is a complete object).
    std::string json_out = "[\n";
    for (std::size_t i = 0; i < json_batches.size(); ++i) {
      std::string batch = json_batches[i];
      while (!batch.empty() && batch.back() == '\n') batch.pop_back();
      json_out += batch;
      json_out += (i + 1 < json_batches.size()) ? ",\n" : "\n";
    }
    json_out += "]\n";
    if (!JsonWriter::write_output(json_path, json_out)) return 1;
  }
  return failed ? 1 : 0;
} catch (const cps::ParseError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
