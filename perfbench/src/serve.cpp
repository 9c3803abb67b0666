// serve-repeat: an in-process Server with 2 workers, driven in closed
// loop by 2 connections from this process. Each round starts a fresh
// daemon (its cache starts empty), warms it with requests outside the
// measured plan, then sends the plan: half of the requests re-issue an
// earlier index, and every request asks for the table as CSV.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>

#include "bench_stats.hpp"
#include "io/table_csv.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;

/// Requests per round. The plan is a pure function of the seed, so the
/// same ids carry the same bodies in every round and in the golden file.
constexpr std::size_t kPlanRequests = 512;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kWarmupPerConnection = 2;
/// Ids of warm-up and stats requests: never a plan id.
constexpr std::uint64_t kControlId = std::uint64_t{1} << 40;

std::string run_payload(std::uint64_t id, std::uint64_t index) {
  cps::JsonWriter w(0);
  w.begin_object();
  w.field("id", id);
  w.field("op", "run");
  w.field("index", index);
  w.field("csv", true);
  w.end_object();
  return w.str();
}

/// Cache and workspace-pool counters from the daemon's "stats" op.
struct DaemonCounters {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t prefix_hits = 0;
  std::size_t prefix_misses = 0;
  std::size_t leases = 0;
  std::size_t warm_hits = 0;
};

DaemonCounters query_stats(cps::ServeClient& client) {
  cps::JsonWriter w(0);
  w.begin_object();
  w.field("id", kControlId + 1000);
  w.field("op", "stats");
  w.end_object();
  if (!client.send(w.str())) throw cps::Error("stats request not sent");
  const auto reply = client.recv();
  if (!reply) throw cps::Error("stats request unanswered");
  const cps::JsonValue doc = cps::JsonValue::parse(*reply);
  const auto count = [&](const char* block, const char* field) {
    return static_cast<std::size_t>(doc.at(block).at(field).as_int());
  };
  return DaemonCounters{count("cache", "hits"),
                        count("cache", "misses"),
                        count("cache", "prefix_hits"),
                        count("cache", "prefix_misses"),
                        count("workspace_pool", "leases"),
                        count("workspace_pool", "warm_hits")};
}

/// Runs a Server's event loop on its own thread; drains and joins it on
/// every exit path.
class ServerThread {
 public:
  explicit ServerThread(cps::ServerOptions options)
      : server_(std::move(options)), loop_([this] { run(); }) {}
  ~ServerThread() {
    server_.request_drain();
    loop_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  const std::string& path() const { return server_.socket_path(); }

 private:
  void run() {
    try {
      server_.run();
    } catch (const std::exception& e) {
      // Requests still in flight then go unanswered and count as failed.
      std::cerr << "perfbench: server loop stopped: " << e.what() << '\n';
    }
  }

  cps::Server server_;
  std::thread loop_;  ///< declared last: starts once server_ exists
};

/// The requests of a round and the body each must receive. The loadgen
/// plan asks for ranks: the first occurrence of rank u is cold, later ones
/// repeat it. Rank u maps to the u-th workload index that is not a known
/// defect. Each index is run once through run_batch_item, the oracle; an
/// item the oracle fails on counts as failed. Each expected body is the
/// server's own response construction (Server::run_request) over the
/// uncached oracle item.
struct ServePlan {
  std::vector<std::uint64_t> index;   ///< workload index per ordinal
  std::vector<bool> repeat;           ///< per ordinal
  std::vector<std::string> expected;  ///< body digest per ordinal
  std::vector<std::uint64_t> warmup;  ///< indices outside the plan
  std::vector<std::string> warmup_expected;  ///< body digest per warm-up
};

ServePlan make_plan(const cps::BatchConfig& workload,
                    const KnownDefects& defects, std::uint64_t seed,
                    RunResult& result) {
  cps::LoadGenConfig config;
  config.requests = kPlanRequests;
  config.repeat_frac = 0.5;
  config.repeat_seed = seed % kInputSets;
  const std::vector<std::uint64_t> ranks = cps::loadgen_plan_indices(config);

  // The oracle's item and CSV for the next input at or after `*next`.
  const auto take = [&](std::size_t* next, cps::BatchItem* item,
                        std::string* csv) {
    const std::size_t index = next_input(workload, defects, next);
    run_oracle(workload, index,
               config_label(workload) + "/" + std::to_string(index), item, csv,
               result);
    return index;
  };
  ServePlan plan;
  plan.repeat = repeat_mask(ranks);
  std::vector<std::uint64_t> index_of_rank;
  std::vector<std::pair<cps::BatchItem, std::string>> oracle;  // by rank
  std::size_t next = 0;
  for (std::size_t o = 0; o < ranks.size(); ++o) {
    if (ranks[o] == index_of_rank.size()) {
      cps::BatchItem item;
      std::string csv;
      index_of_rank.push_back(take(&next, &item, &csv));
      oracle.emplace_back(std::move(item), std::move(csv));
    }
    const auto& [item, csv] = oracle.at(ranks[o]);
    plan.index.push_back(index_of_rank[ranks[o]]);
    plan.expected.push_back(fnv1a_hex(cps::make_item_response(o, item, &csv)));
  }
  next = kWarmupIndex;
  for (std::size_t w = 0; w < kConnections * kWarmupPerConnection; ++w) {
    cps::BatchItem item;
    std::string csv;
    plan.warmup.push_back(take(&next, &item, &csv));
    plan.warmup_expected.push_back(
        fnv1a_hex(cps::make_item_response(kControlId + w, item, &csv)));
  }
  return plan;
}

struct Round {
  double setup_s = 0.0;
  double window_ms = 0.0;
  double cpu_ms = 0.0;
  std::vector<double> latency;      ///< per plan ordinal; kMissed when lost
  std::vector<double> sent_ms;      ///< per ordinal, on the span clock
  std::vector<std::string> digest;  ///< of the response body, per ordinal
  DaemonCounters counters;          ///< measured window only (traced rounds)
};

Round run_round(const cps::ServerOptions& options, const ServePlan& plan,
                bool traced, const SpanLog& clock, RunResult& result) {
  const std::size_t n = plan.index.size();
  Round round;
  round.latency.assign(n, kMissed);
  round.sent_ms.assign(n, 0.0);
  round.digest.resize(n);

  const auto t0 = clock_type::now();
  ServerThread server(options);
  std::vector<cps::ServeClient> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back(server.path(), 60.0);
  }
  // Warm every session's workspace pool with indices outside the plan, so
  // the plan's cold requests stay cold.
  for (std::size_t w = 0; w < plan.warmup.size(); ++w) {
    cps::ServeClient& client = clients[w % kConnections];
    if (!client.send(run_payload(kControlId + w, plan.warmup[w]))) {
      throw cps::Error("warm-up request not sent");
    }
    const auto reply = client.recv();
    ++result.attempted;
    if (!reply || fnv1a_hex(*reply) != plan.warmup_expected[w]) {
      result.fail("warm-up request " + std::to_string(w) +
                  ": response missing or differs from the oracle");
    }
  }
  DaemonCounters before;
  if (traced) before = query_stats(clients[0]);
  round.setup_s = ms_since(t0) / 1e3;

  const double cpu0 = process_cpu_ms();
  const auto t1 = clock_type::now();
  std::atomic<std::size_t> next{0};
  const auto drive = [&](cps::ServeClient& client) {
    try {
      while (true) {
        const std::size_t o = next.fetch_add(1);
        if (o >= n) return;
        const std::string payload = run_payload(o, plan.index[o]);
        round.sent_ms[o] = clock.now_ms();
        const auto s = clock_type::now();
        if (!client.send(payload)) return;
        auto reply = client.recv();
        if (!reply) return;
        round.latency[o] = ms_since(s);
        round.digest[o] = fnv1a_hex(*reply);
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: connection failed: " << e.what() << '\n';
    }
  };
  std::thread second([&] { drive(clients[1]); });
  drive(clients[0]);
  second.join();
  round.window_ms = ms_since(t1);
  round.cpu_ms = process_cpu_ms() - cpu0;

  if (traced) {
    const DaemonCounters after = query_stats(clients[0]);
    round.counters = DaemonCounters{after.hits - before.hits,
                                    after.misses - before.misses,
                                    after.prefix_hits - before.prefix_hits,
                                    after.prefix_misses - before.prefix_misses,
                                    after.leases - before.leases,
                                    after.warm_hits - before.warm_hits};
  }
  return round;
}

/// The layers behind each distinct graph of the plan: the pipeline as the
/// daemon runs it (serial merge), composed layer by layer and checked
/// against schedule_cpg, and the service-side calls around it. `traced`
/// holds the traced rounds' latencies, [round][ordinal].
void time_layers(const cps::BatchConfig& workload, const ServePlan& plan,
                 const std::vector<std::vector<double>>& traced, SpanLog& log,
                 LayerCounters& counters, RunResult& result) {
  double untraced_ms = 0.0;
  for (std::size_t i = 0; i < plan.index.size(); ++i) {
    if (plan.repeat[i]) continue;
    const auto g = generate_graph(workload, plan.index[i]);
    ++result.attempted;
    try {
      const auto t0 = clock_type::now();
      const cps::CoSynthesisResult ref =
          cps::schedule_cpg(*g, workload.synthesis);
      untraced_ms += ms_since(t0);
      const Reference reference{cps::table_csv_string(ref.table),
                                ref.merge_stats, ref.delays.delta_m,
                                ref.delays.delta_max};
      const std::string why = compose_pipeline(*g, workload.synthesis,
                                               reference, i, log, counters);
      if (!why.empty()) result.fail("traced run: " + why);
      const double item_ms =
          time_item_layers(workload, plan.index[i], i, reference.csv, log,
                           result);
      std::vector<double> latencies;
      for (const auto& round : traced) latencies.push_back(round[i]);
      if (const double latency = position_value(latencies);
          latency != kMissed) {
        counters.server_overhead_ms += latency - item_ms;
        ++counters.server_overhead_samples;
      }
    } catch (const std::exception& e) {
      result.fail("traced run: " + std::string(e.what()));
    }
  }
  if (counters.graphs > 0) {
    counters.untraced_ms_per_graph =
        untraced_ms / static_cast<double>(counters.graphs);
  }
}

}  // namespace

void run_serve(const RunOptions& o, RunResult& result) {
  const cps::BatchConfig workload = make_serve_workload(o.seed);
  const ServePlan plan =
      make_plan(workload, load_known_defects(o), o.seed, result);
  Golden expected;
  for (std::size_t i = 0; i < plan.expected.size(); ++i) {
    expected[std::to_string(i)] = plan.expected[i];
  }
  check_goldens(expected, o, result);
  if (o.inputs_only) return;

  // As tools/condsched_served.cpp configures the daemon: memory-only exact
  // cache, serial merge, heap engine (the workload carries the last two).
  cps::ServerOptions options;
  options.socket_path =
      o.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  options.threads = kWorkers;
  options.workload = workload;

  SpanLog log;
  LayerCounters counters;
  std::vector<double> setups;
  std::vector<std::vector<double>> untraced;  // [round][ordinal] latency
  std::vector<std::vector<double>> traced;
  std::vector<double> round_cpu;
  std::vector<double> untraced_windows;
  std::vector<double> traced_windows;
  std::vector<double> kernel_ms;
  double window_ms = 0.0;

  for (std::size_t r = 0;; ++r) {
    const bool is_traced = o.trace && r % 2 == 1;
    kernel_ms.push_back(time_reference_kernel());
    Round round = run_round(options, plan, is_traced, log, result);
    std::size_t ok = 0;
    for (std::size_t i = 0; i < plan.index.size(); ++i) {
      ++result.attempted;
      if (round.latency[i] == kMissed) {
        result.fail("request " + std::to_string(i) + " unanswered");
      } else if (round.digest[i] != plan.expected[i]) {
        result.fail("request " + std::to_string(i) +
                    ": response differs from the run_batch_item oracle");
        round.latency[i] = kMissed;
      } else {
        ++ok;
      }
      if (is_traced) {
        log.add(r * kPlanRequests + i, "serve.request", "", round.sent_ms[i],
                round.sent_ms[i] + round.latency[i]);
      }
    }
    setups.push_back(round.setup_s);
    window_ms += round.window_ms;
    if (ok > 0) round_cpu.push_back(round.cpu_ms / static_cast<double>(ok));
    if (is_traced) {
      traced.push_back(std::move(round.latency));
      traced_windows.push_back(round.window_ms);
      counters.exact_hits += round.counters.hits;
      counters.exact_lookups += round.counters.hits + round.counters.misses;
      counters.prefix_hits += round.counters.prefix_hits;
      counters.prefix_lookups +=
          round.counters.prefix_hits + round.counters.prefix_misses;
      counters.leases += round.counters.leases;
      counters.warm_hits += round.counters.warm_hits;
    } else {
      untraced.push_back(std::move(round.latency));
      untraced_windows.push_back(round.window_ms);
    }
    const bool enough = untraced.size() >= kMinRounds &&
                        window_ms >= o.seconds * 1e3 &&
                        (!o.trace || !traced.empty());
    if ((enough && (!o.trace || is_traced)) || window_ms >= kMaxMeasureMs) {
      break;
    }
  }

  const double f = result.speed_factor = speed_factor(kernel_ms);
  if (o.trace) {
    time_layers(workload, plan, traced, log, counters, result);
    if (!untraced_windows.empty() && !traced_windows.empty()) {
      counters.trace_overhead_frac =
          mean(traced_windows) / mean(untraced_windows) - 1.0;
    }
    add_layer_metrics(log, counters, result);
    if (!o.trace_out.empty()) log.write(o.trace_out);
  } else {
    // Each ordinal's value is its fastest round. Each connection waits for
    // its reply before it sends again, so the rate is kConnections requests
    // per mean value; CPU is the best round's. Cold and repeat ordinals
    // come from the plan.
    const std::vector<double> values = position_values(untraced);
    std::vector<double> cold;
    std::vector<double> repeats;
    for (std::size_t i = 0; i < values.size(); ++i) {
      (plan.repeat[i] ? repeats : cold).push_back(values[i]);
    }
    const auto tail = supported_percentile(values, 90);
    if (!tail) result.fail("too few requests for graph_ms_p90");
    result.add("setup_s", f * best(setups, false), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("graphs_per_s",
               static_cast<double>(kConnections) * 1e3 / (f * mean(values)),
               "1/s");
    result.add("cpu_ms_per_graph", f * best(round_cpu, false), "ms");
    result.add("cold_ms_p50", f * percentile(cold, 50).value_or(kMissed),
               "ms");
    result.add("repeat_ms_p50",
               f * percentile(repeats, 50).value_or(kMissed), "ms");
    result.add("graph_ms_p90", f * tail.value_or(kMissed), "ms");
  }
}

}  // namespace perfbench
