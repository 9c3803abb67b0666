// S3 — service load: drive the co-synthesis daemon with a closed- or
// open-loop load generator and report latency percentiles (p50/p99/p999)
// plus the typed-response tally (ok / shed / deadline_exceeded).
//
// Two modes:
//  - `--socket PATH`: load an externally started condsched_served (the
//    CI smoke job runs it this way, with a mid-stream SIGTERM).
//  - no --socket: spawn an in-process Server on a private socket, drive
//    it, drain it, and exit — a self-contained benchmark.
//
// `--verify` retains every response and checks the determinism contract:
// each response that carries an item body must be byte-identical to
// make_item_response(id, run_batch_item(workload, id)) — the offline
// oracle. It also asks for the table CSV on every odd id; those
// responses must carry exactly the CSV of run_batch_item's csv
// out-param. Shed/expired responses are timing-dependent *selections* (the
// text is typed, but which request drew it depends on load), so they are
// tallied, not compared.
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <thread>

#include "sched/batch_driver.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/table_format.hpp"

namespace {

/// The daemon's schedule-cache counters, fetched via the "stats" op.
/// `available` stays false when the server cannot be reached or predates
/// the op — the bench then just omits the cache block.
struct CacheStatsSnapshot {
  bool available = false;
  bool enabled = false;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_errors = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

CacheStatsSnapshot fetch_cache_stats(const std::string& socket_path) {
  using namespace cps;
  CacheStatsSnapshot snap;
  try {
    ServeClient client(socket_path, 5.0);
    JsonWriter w(0);
    w.begin_object();
    w.field("id", std::uint64_t{0});
    w.field("op", "stats");
    w.end_object();
    if (!client.send(w.str())) return snap;
    const std::optional<std::string> response = client.recv();
    if (!response.has_value()) return snap;
    const JsonValue doc = JsonValue::parse(*response);
    const JsonValue* cache = doc.find("cache");
    if (cache == nullptr || !cache->is_object()) return snap;
    const auto u64 = [&](const char* key) -> std::uint64_t {
      const JsonValue* v = cache->find(key);
      if (v == nullptr || v->kind() != JsonValue::Kind::kNumber) return 0;
      return static_cast<std::uint64_t>(v->as_number());
    };
    snap.hits = u64("hits");
    snap.misses = u64("misses");
    snap.store_hits = u64("store_hits");
    snap.store_errors = u64("store_errors");
    snap.insertions = u64("insertions");
    snap.evictions = u64("evictions");
    if (const JsonValue* enabled = doc.find("cache_enabled")) {
      snap.enabled = enabled->kind() == JsonValue::Kind::kBool &&
                     enabled->as_bool();
    }
    snap.available = true;
  } catch (const std::exception&) {
    // Unreachable daemon (already drained): no cache block, not an error.
  }
  return snap;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cps;
  CliParser cli("co-synthesis service load generator");
  cli.add_flag("socket", "",
               "AF_UNIX socket of a running daemon (empty = spawn an "
               "in-process server)");
  cli.add_flag("requests", "64", "total run requests");
  cli.add_flag("connections", "2", "concurrent client connections");
  cli.add_bool("open-loop", "fire on a fixed schedule instead of waiting "
                            "for responses (drives overload)");
  cli.add_flag("rate", "200", "open-loop offered load, requests/second");
  cli.add_flag("deadline-ms", "0", "client-supplied per-request deadline");
  cli.add_flag("first-id", "0", "first request id (ids pick workload items)");
  cli.add_flag("recv-timeout-s", "120", "client receive timeout");
  cli.add_bool("tolerate-drain", "treat dropped connections as expected "
                                 "(mid-stream SIGTERM smoke)");
  cli.add_bool("verify", "compare every item-bearing response against the "
                         "run_batch_item oracle, byte for byte (odd ids "
                         "ask for the table CSV)");
  cli.add_flag("json-out", "", "write results as JSON to FILE (- = stdout)");
  cli.add_flag("repeat-frac", "0",
               "fraction of requests re-issuing an earlier index (zipf-ish "
               "reuse; exercises the daemon schedule cache)");
  cli.add_flag("repeat-seed", "1", "seed of the deterministic repeat plan");
  // In-process server knobs (ignored with --socket).
  cli.add_flag("threads", "0", "server workers (0 = hardware)");
  cli.add_flag("max-queue-depth", "64", "server admission bound");
  cli.add_flag("max-inflight-bytes", "4194304", "server byte watermark");
  cli.add_flag("overload", "shed-oldest",
               "server policy: shed-oldest | reject-newest");
  cli.add_bool("no-cache", "disable the in-process server's schedule cache");
  cli.add_flag("cache-dir", "",
               "persistent schedule-cache directory of the in-process "
               "server (empty = memory only)");
  // Workload definition (must match the daemon's when --socket is used;
  // --verify builds its oracle from these flags).
  cli.add_flag("nodes", "60", "processes per generated graph");
  cli.add_flag("paths", "10", "alternative paths per generated graph");
  cli.add_flag("seed", "1", "base random seed");
  if (!cli.parse(argc, argv)) return 0;

  BatchConfig workload;
  workload.base_seed = static_cast<std::uint64_t>(cli.get_count("seed", 0));
  workload.cpg.process_count = cli.get_count("nodes", 1);
  workload.cpg.path_count = cli.get_count("paths", 1);

  LoadGenConfig load;
  load.socket_path = cli.get_string("socket");
  load.requests = cli.get_count("requests", 1);
  load.connections = cli.get_count("connections", 1);
  load.open_loop = cli.get_bool("open-loop");
  load.rate_per_sec = cli.get_double("rate");
  load.deadline_ms = static_cast<double>(cli.get_count("deadline-ms", 0));
  load.first_id = static_cast<std::uint64_t>(cli.get_count("first-id", 0));
  load.recv_timeout_s = static_cast<double>(cli.get_count("recv-timeout-s", 1));
  load.tolerate_disconnect = cli.get_bool("tolerate-drain");
  load.keep_payloads = cli.get_bool("verify");
  load.repeat_frac = cli.get_double("repeat-frac");
  load.repeat_seed = static_cast<std::uint64_t>(cli.get_count("repeat-seed", 0));

  // No external daemon: run one in-process on a private socket and drain
  // it after the load completes.
  std::unique_ptr<Server> server;
  std::thread server_thread;
  if (load.socket_path.empty()) {
    ServerOptions options;
    options.socket_path =
        "/tmp/condsched_bench_" + std::to_string(::getpid()) + ".sock";
    options.threads = cli.get_count("threads", 0);
    options.max_queue_depth = cli.get_count("max-queue-depth", 1);
    options.max_inflight_bytes = cli.get_count("max-inflight-bytes", 1);
    const std::string overload = cli.get_string("overload");
    if (overload == "shed-oldest") {
      options.overload = OverloadPolicy::kShedOldest;
    } else if (overload == "reject-newest") {
      options.overload = OverloadPolicy::kRejectNewest;
    } else {
      std::cerr << "unknown --overload value: " << overload << '\n';
      return 1;
    }
    options.workload = workload;
    options.enable_cache = !cli.get_bool("no-cache");
    options.cache.store_dir = cli.get_string("cache-dir");
    server = std::make_unique<Server>(std::move(options));
    load.socket_path = server->socket_path();
    server_thread = std::thread([&server] { server->run(); });
  }

  const LoadGenResult result = run_loadgen(load);

  // Snapshot the daemon's cache counters before draining it (the load's
  // exact hits and misses are all recorded by now).
  const CacheStatsSnapshot cache = fetch_cache_stats(load.socket_path);

  if (server != nullptr) {
    server->request_drain();
    server_thread.join();
  }

  // Oracle comparison: every response carrying an item body must match
  // the offline computation for its id exactly.
  std::size_t verified = 0;
  std::size_t mismatches = 0;
  if (cli.get_bool("verify")) {
    // Repeat plans decouple the workload index from the request id; the
    // oracle must follow the same deterministic id -> index mapping.
    const std::vector<std::uint64_t> plan = loadgen_plan_indices(load);
    auto payloads = result.payloads;
    std::sort(payloads.begin(), payloads.end());
    for (const auto& [id, payload] : payloads) {
      if (payload.find("\"item\": ") == std::string::npos) continue;
      const std::uint64_t ordinal = id - load.first_id;
      const std::uint64_t index =
          ordinal < plan.size() ? plan[ordinal] : id;
      const bool csv_requested = load.keep_payloads && id % 2 == 1;
      std::string csv;
      const BatchItem item =
          run_batch_item(workload, static_cast<std::size_t>(index), nullptr,
                         nullptr, csv_requested ? &csv : nullptr);
      const std::string expected = make_item_response(
          id, item, csv_requested && item.ok ? &csv : nullptr);
      if (payload == expected) {
        ++verified;
      } else {
        ++mismatches;
        std::cerr << "ORACLE MISMATCH id " << id << ":\n  served:  " << payload
                  << "\n  oracle:  " << expected << '\n';
      }
    }
  }

  AsciiTable table("S3 — service load (" + std::to_string(load.requests) +
                   " requests, " + std::to_string(load.connections) +
                   " connections, " +
                   (load.open_loop ? "open" : "closed") + " loop)");
  table.header({"sent", "ok", "shed", "timeout", "failed", "lost", "wall ms",
                "req/s", "p50 ms", "p99 ms", "p999 ms"});
  const double rps =
      result.wall_ms > 0.0
          ? 1000.0 * static_cast<double>(result.responses) / result.wall_ms
          : 0.0;
  table.cell(static_cast<std::int64_t>(result.sent))
      .cell(static_cast<std::int64_t>(result.ok))
      .cell(static_cast<std::int64_t>(result.shed))
      .cell(static_cast<std::int64_t>(result.timed_out))
      .cell(static_cast<std::int64_t>(result.other_failed +
                                      result.parse_failed))
      .cell(static_cast<std::int64_t>(result.disconnected +
                                      result.recv_timeouts))
      .cell(result.wall_ms, 1)
      .cell(rps, 1)
      .cell(result.p50_ms, 2)
      .cell(result.p99_ms, 2)
      .cell(result.p999_ms, 2);
  table.end_row();

  const std::string perf_path = cli.get_string("json-out");
  std::ostream& human = perf_path == "-" ? std::cerr : std::cout;
  human << "=== S3: service load ===\n\n";
  table.render(human);
  if (cli.get_bool("verify")) {
    human << "oracle: " << verified << " verified, " << mismatches
          << " mismatches\n";
  }
  if (load.repeat_frac > 0.0) {
    human << "repeat mode: " << result.unique_indices << " unique / "
          << result.repeats_planned << " repeats; cold p50 "
          << result.cold_p50_ms << " ms p99 " << result.cold_p99_ms
          << " ms; repeat p50 " << result.repeat_p50_ms << " ms p99 "
          << result.repeat_p99_ms << " ms\n";
  }
  if (cache.available) {
    const std::uint64_t lookups = cache.hits + cache.misses;
    human << "daemon cache: " << (cache.enabled ? "enabled" : "disabled")
          << "; exact " << cache.hits << "/" << lookups << " hits";
    if (lookups > 0) {
      human << " (" << 100.0 * static_cast<double>(cache.hits) /
                           static_cast<double>(lookups)
            << "% hit rate)";
    }
    human << ", store hits " << cache.store_hits << "\n";
  }

  if (!perf_path.empty()) {
    JsonWriter w(2);
    w.begin_object();
    w.field("schema_version", 1);
    w.field("bench", "bench_serve_load");
    w.key("config").begin_object();
    w.field("requests", load.requests);
    w.field("connections", load.connections);
    w.field("open_loop", load.open_loop);
    w.field("rate_per_sec", load.rate_per_sec);
    w.field("deadline_ms", load.deadline_ms);
    w.field("nodes", workload.cpg.process_count);
    w.field("paths", workload.cpg.path_count);
    w.field("seed", workload.base_seed);
    w.field("repeat_frac", load.repeat_frac);
    w.field("repeat_seed", load.repeat_seed);
    w.end_object();
    w.key("result").begin_object();
    w.field("sent", result.sent);
    w.field("responses", result.responses);
    w.field("ok", result.ok);
    w.field("shed", result.shed);
    w.field("timed_out", result.timed_out);
    w.field("other_failed", result.other_failed);
    w.field("parse_failed", result.parse_failed);
    w.field("disconnected", result.disconnected);
    w.field("recv_timeouts", result.recv_timeouts);
    w.field("wall_ms", result.wall_ms);
    w.field("responses_per_second", rps);
    w.field("p50_ms", result.p50_ms);
    w.field("p99_ms", result.p99_ms);
    w.field("p999_ms", result.p999_ms);
    if (load.repeat_frac > 0.0) {
      w.field("unique_indices", result.unique_indices);
      w.field("repeats_planned", result.repeats_planned);
      w.field("cold_p50_ms", result.cold_p50_ms);
      w.field("cold_p99_ms", result.cold_p99_ms);
      w.field("repeat_p50_ms", result.repeat_p50_ms);
      w.field("repeat_p99_ms", result.repeat_p99_ms);
    }
    if (cli.get_bool("verify")) {
      w.field("oracle_verified", verified);
      w.field("oracle_mismatches", mismatches);
    }
    w.end_object();
    if (cache.available) {
      w.key("cache").begin_object();
      w.field("enabled", cache.enabled);
      w.field("hits", cache.hits);
      w.field("misses", cache.misses);
      const std::uint64_t lookups = cache.hits + cache.misses;
      w.field("hit_rate",
              lookups > 0 ? static_cast<double>(cache.hits) /
                                static_cast<double>(lookups)
                          : 0.0);
      w.field("store_hits", cache.store_hits);
      w.field("store_errors", cache.store_errors);
      w.field("insertions", cache.insertions);
      w.field("evictions", cache.evictions);
      w.end_object();
    }
    w.end_object();
    if (!JsonWriter::write_output(perf_path, w.str() + "\n")) return 1;
  }

  // Lost requests fail the bench unless a drain was expected; an oracle
  // mismatch always does.
  if (mismatches > 0) return 1;
  if (!load.tolerate_disconnect &&
      (result.disconnected > 0 || result.recv_timeouts > 0 ||
       result.parse_failed > 0)) {
    return 1;
  }
  return 0;
} catch (const cps::ParseError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
