// S1 — component scaling: wall-clock cost of every pipeline stage
// (expansion, path enumeration, per-path scheduling, merging, validation)
// as the graph grows. Complements Fig. 6 with a per-stage breakdown.
//
// Built on the parallel batch driver: each size row is one batch of
// deterministically seeded random CPGs. `--json FILE` dumps the
// machine-readable batch results (use "-" for stdout).
//
// `--compare-tree` switches to the guard-trie equivalence/speedup mode:
// each seeded CPG is co-synthesized with the retained path-list reference
// (PathScheduling::kList) and with the guard-trie walk
// (PathScheduling::kTree); any schedule-table mismatch exits non-zero
// (the CI gate), and the report quotes the schedule-stage speedup plus
// the prefix-reuse counters. Deep condition nests (high --paths) are the
// regime where the trie wins.
#include <iostream>

#include "cpg/builder.hpp"
#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "sched/batch_driver.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
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

bool tables_equal(const CoSynthesisResult& a, const CoSynthesisResult& b) {
  return a.table == b.table && a.delays.delta_m == b.delays.delta_m &&
         a.delays.delta_max == b.delays.delta_max;
}

/// Deep condition nest: balanced two-arm conditional regions in series on
/// one processor, arm chains sized so the process count lands near
/// `nodes` and the leaf count near `paths`. Both arms of a region share
/// their (randomly drawn) durations, so the shared prefix's critical-path
/// priorities are identical across sibling paths — the regime where
/// checkpointed prefix reuse pays (heterogeneous arms shift priorities at
/// t=0 and the engine adaptively falls back to plain from-scratch runs).
Cpg deep_nest_cpg(std::size_t nodes, std::size_t paths, Rng& rng) {
  std::size_t regions = 1;
  while ((std::size_t{1} << regions) < paths && regions < 12) ++regions;
  // Two processors + a broadcast bus: regions alternate PEs, so condition
  // values cross resources through broadcast tasks and the engine's
  // per-step work (bus contention, knowledge checks) is realistic.
  Architecture arch;
  arch.add_processor("cpu0");
  arch.add_processor("cpu1");
  arch.add_bus("bus");
  arch.set_cond_broadcast_time(1);
  CpgBuilder b(arch);
  const std::size_t per_arm = std::max<std::size_t>(
      1, (nodes > 2 * regions ? nodes - 2 * regions : regions) /
             (2 * regions));
  std::optional<ProcessId> prev;
  for (std::size_t i = 0; i < regions; ++i) {
    const std::string n = std::to_string(i);
    const PeId pe = static_cast<PeId>(i % 2);
    const CondId c = b.add_condition("C" + n);
    const ProcessId d =
        b.add_process("D" + n, pe, static_cast<Time>(1 + rng.index(6)));
    if (prev) b.add_edge(*prev, d, /*comm_time=*/2);
    std::vector<Time> durations(per_arm);
    for (Time& t : durations) t = static_cast<Time>(1 + rng.index(9));
    const ProcessId join = b.add_process("J" + n, pe, 1);
    for (bool arm : {true, false}) {
      ProcessId head = d;
      for (std::size_t k = 0; k < per_arm; ++k) {
        const ProcessId p =
            b.add_process((arm ? "T" : "F") + n + "_" + std::to_string(k),
                          pe, durations[k]);
        if (k == 0) {
          b.add_cond_edge(head, p, Literal{c, arm});
        } else {
          b.add_edge(head, p);
        }
        head = p;
      }
      b.add_edge(head, join);
    }
    b.mark_conjunction(join);
    prev = join;
  }
  return b.build();
}

/// Guard-trie equivalence + speedup mode (--compare-tree). Returns the
/// process exit code: non-zero on any tree-vs-list table mismatch.
int run_compare_tree(const CliParser& cli) {
  const std::size_t graphs = cli.get_count("graphs", 1);
  const std::size_t paths = cli.get_count("paths", 1);
  const auto seed = static_cast<std::uint64_t>(cli.get_count("seed", 0));
  const std::vector<std::size_t> sizes = cli.get_count_list("sizes");

  bool all_identical = true;
  std::size_t nest_resumes = 0;
  double nest_list_ms = 0.0;
  double nest_tree_ms = 0.0;
  std::uint64_t next_seed = seed;

  // One row per (workload, size): random CPGs stress equivalence on
  // adversarial shapes, the deep nest demonstrates the prefix-reuse win.
  const auto run_rows = [&](AsciiTable& table, bool nest) {
    for (std::size_t nodes : sizes) {
      double list_ms = 0.0;
      double tree_ms = 0.0;
      std::size_t resumes = 0;
      std::size_t steps = 0;
      bool identical = true;
      for (std::size_t i = 0; i < graphs; ++i) {
        Rng rng(++next_seed);
        Cpg g = [&] {
          if (nest) return deep_nest_cpg(nodes, paths, rng);
          const Architecture arch = generate_random_architecture(rng);
          RandomCpgParams params;
          params.process_count = nodes;
          params.path_count = paths;
          return generate_random_cpg(arch, params, rng);
        }();

        CoSynthesisOptions list;
        list.path_scheduling = PathScheduling::kList;
        const CoSynthesisResult reference = schedule_cpg(g, list);
        list_ms += reference.timings.schedule_ms;

        CoSynthesisOptions tree;
        tree.path_scheduling = PathScheduling::kTree;
        const CoSynthesisResult result = schedule_cpg(g, tree);
        tree_ms += result.timings.schedule_ms;
        resumes += result.tree.prefix_resumes;
        steps += result.tree.resumed_steps;
        if (!tables_equal(result, reference)) {
          identical = false;
          std::cerr << "ERROR: tree scheduling diverged from the "
                       "path-list reference ("
                    << (nest ? "nest" : "random") << " nodes=" << nodes
                    << " paths=" << paths << " seed=" << next_seed << ")\n";
        }
      }
      all_identical = all_identical && identical;
      if (nest) {
        nest_list_ms += list_ms;
        nest_tree_ms += tree_ms;
        nest_resumes += resumes;
      }
      table.cell(static_cast<std::int64_t>(nodes))
          .cell(list_ms, 3)
          .cell(tree_ms, 3)
          .cell(tree_ms > 0.0 ? list_ms / tree_ms : 0.0, 2)
          .cell(static_cast<std::int64_t>(resumes))
          .cell(static_cast<std::int64_t>(steps))
          .cell(identical ? "identical" : "DIVERGED")
          .end_row();
    }
  };

  const std::vector<std::string> head = {
      "nodes", "list sched ms", "tree sched ms", "speedup",
      "prefix resumes", "steps skipped", "tables"};
  AsciiTable random_table("Random CPGs (" + std::to_string(graphs) +
                          " graphs per size, " + std::to_string(paths) +
                          " paths)");
  random_table.header(head);
  run_rows(random_table, /*nest=*/false);
  AsciiTable nest_table("Deep condition nest (balanced arms, " +
                        std::to_string(paths) + " leaves)");
  nest_table.header(head);
  run_rows(nest_table, /*nest=*/true);

  std::cout << "=== S1: guard-trie scheduling vs path-list reference ===\n\n";
  random_table.render(std::cout);
  std::cout << '\n';
  nest_table.render(std::cout);
  std::cout << "\ndeep-nest per-path scheduling: list "
            << format_double(nest_list_ms, 1) << " ms, tree "
            << format_double(nest_tree_ms, 1) << " ms, speedup "
            << format_double(nest_list_ms / std::max(nest_tree_ms, 1e-9), 2)
            << "x, " << nest_resumes << " prefix resumes\n";
  std::cout << (all_identical
                    ? "tables: byte-identical across scheduling modes\n"
                    : "tables: DIVERGED — see errors above\n");
  return all_identical ? 0 : 1;
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
  cli.add_bool("compare-tree",
               "guard-trie mode: verify tree-vs-list schedule-table "
               "identity and report the schedule-stage speedup (exits "
               "non-zero on any mismatch)");
  if (!cli.parse(argc, argv)) return 0;
  if (cli.get_bool("compare-tree")) return run_compare_tree(cli);
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
