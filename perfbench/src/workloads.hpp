// Workload definitions, run options and the result every workload fills.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sched/batch_driver.hpp"

namespace perfbench {

/// The seed whose outputs are pinned in golden/<workload>.json. At any
/// other seed outputs are checked against the run_batch_item oracle.
constexpr std::uint64_t kDefaultSeed = 1;

/// Number of distinct input sets: seed s draws input set s % kInputSets.
/// Every input of every set was run through the oracle once, and the few
/// the library fails on are listed in known_defects.json. So the inputs a
/// run measures depend on the seed alone, and any failure on them is news.
constexpr std::uint64_t kInputSets = 256;

/// Graph index from which warm-up graphs are drawn: outside the measured
/// indices, so warm-up never touches a measured graph.
constexpr std::size_t kWarmupIndex = 1000000;

/// Rounds per run at least, so each operation has several samples.
constexpr std::size_t kMinRounds = 3;

/// Bound on a run's measured time whatever --seconds asks for.
constexpr double kMaxMeasureMs = 100e3;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Golden file of this workload (read at the default seed).
  std::string golden_path;
  /// Record the oracle's outputs into golden_path instead of comparing
  /// against it.
  bool write_golden = false;
  /// known_defects.json.
  std::string defects_path;
  /// Check the inputs against the oracle and the goldens, then stop.
  bool inputs_only = false;
  /// Where the traced run writes its spans.
  std::string trace_out;
  /// Directory for the service socket.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the benchmark's last output line.
struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// The run's speed_factor(): every reported time is the measured time
  /// multiplied by it.
  double speed_factor = 1.0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// A failed operation or a wrong output: counted, explained on stderr.
  void fail(const std::string& what);
};

/// A graph set scheduled one graph at a time with schedule_cpg. Graphs
/// are drawn exactly as run_batch_item draws item `index` of a config, so
/// the batch driver is an oracle for every seed.
struct PipelineWorkload {
  std::vector<cps::BatchConfig> configs;
  std::size_t graphs_per_config = 0;
  /// What the workload's users pass to schedule_cpg.
  cps::CoSynthesisOptions synthesis;
};

/// wide-shallow; throws cps::InvalidArgument for any other name.
PipelineWorkload make_pipeline_workload(const std::string& name,
                                        std::uint64_t seed);

/// The serve-repeat daemon's workload, configured the way
/// tools/condsched_served.cpp configures it (80 processes x 18 paths,
/// serial merge, heap engine).
cps::BatchConfig make_serve_workload(std::uint64_t seed);

/// Names a config's graphs, e.g. "n600-p2-uniform"; graph j of it is
/// "<label>/j".
std::string config_label(const cps::BatchConfig& config);

/// Graph `index` of `config`, generated exactly as run_batch_item does.
std::unique_ptr<cps::Cpg> generate_graph(const cps::BatchConfig& config,
                                         std::size_t index);

/// Inputs of the run's workload and input set that the library is known
/// to fail on, by key ("n80-p18-uniform/5"), from known_defects.json.
using KnownDefects = std::set<std::string>;
KnownDefects load_known_defects(const RunOptions& options);

/// The first index at or after `*next` whose graph of `config` is not a
/// known defect; `*next` moves past it.
std::size_t next_input(const cps::BatchConfig& config,
                       const KnownDefects& defects, std::size_t* next);

/// Runs item `index` of `config` through run_batch_item, the oracle, with
/// the cache off: one attempted operation. When the library fails on the
/// item it counts as failed under `key`, and false is returned.
bool run_oracle(const cps::BatchConfig& config, std::size_t index,
                const std::string& key, cps::BatchItem* item,
                std::string* csv, RunResult& result);

/// Outputs keyed by graph or request id.
using Golden = std::map<std::string, std::string>;

/// With --write-golden, records `expected` as the workload's golden
/// outputs. Otherwise, on the default seed's input set, every expected
/// output must equal the committed golden one; a difference is a failed
/// operation.
void check_goldens(const Golden& expected, const RunOptions& options,
                   RunResult& result);

void run_pipeline(const RunOptions& options, RunResult& result);
void run_serve(const RunOptions& options, RunResult& result);

}  // namespace perfbench
