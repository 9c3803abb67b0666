// condsched_perfbench — runs one benchmark workload and prints its
// metrics. perfbench/run.py builds this binary and calls it; see
// perfbench/README.md for the workloads and metrics.
//
//   condsched_perfbench --workload wide-shallow --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
// The exit code is 0 only when every operation succeeded and every output
// matched its golden record or oracle.
#include <charconv>
#include <cmath>
#include <iomanip>
#include <iostream>

#include "support/cli.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace {

/// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string result_line(const perfbench::RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + cps::JsonWriter::escape(m.name) + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" +
           cps::JsonWriter::escape(m.unit) + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) try {
  cps::CliParser cli("condsched benchmark: runs one workload");
  cli.add_flag("workload", "", "wide-shallow | serve-repeat");
  cli.add_flag("seed", "1", "workload seed");
  cli.add_flag("seconds", "10", "measured time per run");
  cli.add_flag("trace", "0", "1 = traced run reporting per-layer metrics");
  cli.add_flag("golden-dir", "perfbench/golden",
               "directory of the golden outputs (<workload>.json)");
  cli.add_bool("write-golden",
               "check outputs against the oracle and record them as the "
               "workload's golden outputs");
  cli.add_flag("known-defects", "perfbench/known_defects.json",
               "inputs the library is known to fail on; they are not run");
  cli.add_bool("inputs-only",
               "check the inputs against the oracle and the goldens, then "
               "stop without measuring");
  cli.add_flag("trace-out", "", "file the traced run writes its spans to");
  cli.add_flag("work-dir", ".", "directory for the service socket");
  if (!cli.parse(argc, argv)) return 0;

  perfbench::RunOptions o;
  o.workload = cli.get_string("workload");
  o.seed = static_cast<std::uint64_t>(cli.get_count("seed", 0));
  o.seconds = cli.get_double("seconds");
  o.trace = cli.get_count("trace", 0) != 0;
  o.golden_path = cli.get_string("golden-dir") + "/" + o.workload + ".json";
  o.write_golden = cli.get_bool("write-golden");
  o.defects_path = cli.get_string("known-defects");
  o.inputs_only = cli.get_bool("inputs-only");
  o.trace_out = cli.get_string("trace-out");
  o.work_dir = cli.get_string("work-dir");

  perfbench::RunResult result;
  if (o.workload == "serve-repeat") {
    perfbench::run_serve(o, result);
  } else {
    perfbench::run_pipeline(o, result);
  }

  std::cout << o.workload << " seed " << o.seed
            << (o.trace ? " (traced)" : "") << '\n';
  for (const perfbench::Metric& m : result.metrics) {
    std::cout << "  " << std::left << std::setw(40) << m.name << ' '
              << std::right << std::setw(14) << json_number(m.value) << ' '
              << m.unit << '\n';
  }
  std::cout << "  times scaled by " << json_number(result.speed_factor)
            << " to the reference speed (bench_stats.hpp)\n";
  std::cout << "  attempted " << result.attempted << ", failed "
            << result.failed << '\n';
  std::cout << result_line(result) << std::endl;
  return result.correct && result.failed == 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "condsched_perfbench: " << e.what() << '\n';
  return 2;
}
