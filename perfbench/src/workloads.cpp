#include "workloads.hpp"

#include <fstream>
#include <iostream>

#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Base seed of config `tag` of a workload: distinct configs draw
/// independent graphs, and the same (seed, tag) always draws the same.
std::uint64_t config_seed(std::uint64_t seed, std::uint64_t tag) {
  return splitmix64(splitmix64(seed) ^ (tag * 0x632be59bd9b4e019ull));
}

}  // namespace

void RunResult::fail(const std::string& what) {
  ++failed;
  correct = false;
  std::cerr << "perfbench: FAILED: " << what << '\n';
}

PipelineWorkload make_pipeline_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name != "wide-shallow") {
    throw cps::InvalidArgument("unknown pipeline workload: " + name);
  }
  PipelineWorkload w;
  for (const std::size_t paths : {2, 3, 4}) {
    cps::BatchConfig c;
    c.base_seed = config_seed(seed % kInputSets, w.configs.size() + 1);
    c.cpg.process_count = 600;
    c.cpg.path_count = paths;
    c.cpg.distribution = cps::TimeDistribution::kUniform;
    w.configs.push_back(c);
  }
  w.graphs_per_config = 64;
  return w;
}

cps::BatchConfig make_serve_workload(std::uint64_t seed) {
  cps::BatchConfig c;
  c.base_seed = config_seed(seed % kInputSets, 0);
  c.cpg.process_count = 80;
  c.cpg.path_count = 18;
  c.synthesis.merge.ready = cps::ReadySelection::kHeap;
  c.synthesis.merge.execution = cps::MergeExecution::kSerial;
  return c;
}

std::string config_label(const cps::BatchConfig& config) {
  return "n" + std::to_string(config.cpg.process_count) + "-p" +
         std::to_string(config.cpg.path_count) + "-" +
         cps::to_string(config.cpg.distribution);
}

std::unique_ptr<cps::Cpg> generate_graph(const cps::BatchConfig& config,
                                         std::size_t index) {
  cps::Rng rng(config.base_seed + index);
  const cps::Architecture arch =
      cps::generate_random_architecture(rng, config.arch);
  return std::make_unique<cps::Cpg>(
      cps::generate_random_cpg(arch, config.cpg, rng));
}

KnownDefects load_known_defects(const RunOptions& o) {
  const cps::JsonValue doc = cps::JsonValue::parse_file(o.defects_path);
  if (doc.at("input_sets").as_int() != static_cast<std::int64_t>(kInputSets)) {
    throw cps::Error(o.defects_path + " lists defects of another input-set "
                     "count; run the input check again");
  }
  KnownDefects defects;
  for (const cps::JsonValue& d : doc.at("defects").items()) {
    if (d.at("workload").as_string() == o.workload &&
        static_cast<std::uint64_t>(d.at("input_set").as_int()) ==
            o.seed % kInputSets) {
      defects.insert(d.at("input").as_string());
    }
  }
  return defects;
}

std::size_t next_input(const cps::BatchConfig& config,
                       const KnownDefects& defects, std::size_t* next) {
  const std::string label = config_label(config) + "/";
  while (defects.count(label + std::to_string(*next)) > 0) ++*next;
  return (*next)++;
}

bool run_oracle(const cps::BatchConfig& config, std::size_t index,
                const std::string& key, cps::BatchItem* item,
                std::string* csv, RunResult& result) {
  cps::BatchConfig uncached = config;
  uncached.cache = nullptr;
  csv->clear();
  ++result.attempted;
  *item = cps::run_batch_item(uncached, index, nullptr, nullptr, csv);
  if (!item->ok) {
    result.fail(key + ": the run_batch_item oracle fails: " +
                item->error.substr(0, item->error.find('\n')));
  }
  return item->ok;
}

void check_goldens(const Golden& expected, const RunOptions& o,
                   RunResult& result) {
  if (o.write_golden) {
    cps::JsonWriter w(2);
    w.begin_object();
    w.field("workload", o.workload);
    w.field("seed", o.seed);
    w.key("outputs").begin_object();
    for (const auto& [key, value] : expected) w.field(key, value);
    w.end_object();
    w.end_object();
    std::ofstream out(o.golden_path);
    out << w.str() << '\n';
    if (!out) throw cps::Error("cannot write golden file " + o.golden_path);
    return;
  }
  if (o.seed % kInputSets != kDefaultSeed) return;
  Golden golden;
  if (std::ifstream(o.golden_path).good()) {
    const cps::JsonValue doc = cps::JsonValue::parse_file(o.golden_path);
    for (const auto& [key, value] : doc.at("outputs").members()) {
      golden[key] = value.as_string();
    }
  }
  for (const auto& [key, value] : expected) {
    ++result.attempted;
    const auto it = golden.find(key);
    if (it == golden.end() || it->second != value) {
      result.fail(key + ": output differs from " + o.golden_path);
    }
  }
}

}  // namespace perfbench
