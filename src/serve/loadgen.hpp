// Load generator for the co-synthesis service, shared by the CI smoke
// job (overload burst + mid-stream SIGTERM), the serve benchmark, and
// the --server mode of bench_batch_throughput.
//
// Two driving disciplines:
//  - Closed loop (default): each connection keeps exactly one request in
//    flight — send, await the response, send the next. Offered load
//    equals `connections` concurrent requests; the classic
//    latency-vs-concurrency probe.
//  - Open loop: each connection fires requests on a fixed schedule
//    (rate_per_sec split evenly) whether or not responses came back —
//    the discipline that actually drives a server into overload, which
//    is the point: shed responses are expected output here, not errors.
//
// Latency percentiles are computed per completed response (send-to-recv
// wall time), statuses are tallied from the typed response envelopes,
// and — for oracle verification — complete response payloads can be
// retained keyed by request id.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cps {

struct LoadGenConfig {
  std::string socket_path;
  /// Total "run" requests to issue across all connections.
  std::size_t requests = 64;
  std::size_t connections = 1;
  /// false = closed loop, true = open loop at `rate_per_sec`.
  bool open_loop = false;
  double rate_per_sec = 50.0;
  /// Client-supplied per-request deadline; 0 = none.
  double deadline_ms = 0.0;
  /// Request ids are first_id .. first_id + requests - 1; index defaults
  /// to the id server-side, so ids choose workload items.
  std::uint64_t first_id = 0;
  /// Retain each response payload (for sorting by id and comparing to
  /// the run_batch oracle). Also asks for the schedule-table CSV
  /// ("csv": true) on every odd request id, so a verifying run covers
  /// both response shapes.
  bool keep_payloads = false;
  /// Per-recv timeout; expiring counts the remaining requests as lost.
  double recv_timeout_s = 120.0;
  /// Treat a dropped connection as expected (mid-stream SIGTERM smoke):
  /// remaining requests are counted as disconnected, not errors.
  bool tolerate_disconnect = false;
  /// Fraction of requests (after the first) that RE-ISSUE an earlier
  /// workload index instead of a fresh one — the repeat-heavy discipline
  /// that exercises the daemon's schedule cache. Repeats pick among the
  /// already-issued indices with a zipf-ish popularity bias (early
  /// indices repeat most). 0 = every request unique (and, as before, the
  /// index is left implicit so ids keep choosing items). The plan is a
  /// pure function of (requests, repeat_frac, repeat_seed, first_id):
  /// deterministic across runs, threads, and arrival order.
  double repeat_frac = 0.0;
  std::uint64_t repeat_seed = 1;
};

struct LoadGenResult {
  std::size_t sent = 0;
  std::size_t responses = 0;
  std::size_t ok = 0;            ///< envelope status "ok"
  std::size_t shed = 0;          ///< rejected_overload
  std::size_t timed_out = 0;     ///< deadline_exceeded
  std::size_t other_failed = 0;  ///< any other typed status
  std::size_t parse_failed = 0;  ///< responses this client could not parse
  std::size_t disconnected = 0;  ///< requests lost to a dropped connection
  std::size_t recv_timeouts = 0; ///< recv() waits that expired
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  /// Repeat-mode split (repeat_frac > 0): a request is "cold" when it is
  /// the first occurrence of its workload index, "repeat" otherwise —
  /// repeats are the daemon cache's exact-hit candidates. Counts are
  /// planned sends; percentiles cover completed responses of each class.
  std::size_t unique_indices = 0;
  std::size_t repeats_planned = 0;
  double cold_p50_ms = 0.0;
  double cold_p99_ms = 0.0;
  double repeat_p50_ms = 0.0;
  double repeat_p99_ms = 0.0;
  /// (request id, response payload) pairs, unordered; filled only with
  /// keep_payloads. Sort by id before comparing to an oracle.
  std::vector<std::pair<std::uint64_t, std::string>> payloads;
};

LoadGenResult run_loadgen(const LoadGenConfig& config);

/// The deterministic workload-index plan run_loadgen(config) will use:
/// element o is the index requested by ordinal o (= id first_id + o).
/// Exposed so harnesses can rebuild the id -> index mapping when oracle-
/// verifying repeat-heavy runs. With repeat_frac = 0 this is the identity
/// plan first_id + o.
std::vector<std::uint64_t> loadgen_plan_indices(const LoadGenConfig& config);

}  // namespace cps
