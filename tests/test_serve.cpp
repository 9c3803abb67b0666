// Co-synthesis service: determinism contract (responses are a pure
// function of the request index — byte-identical to the run_batch
// oracle regardless of thread count, connection count, or arrival
// order), admission control and typed overload shedding, deadline and
// step-budget edges, graceful drain (shutdown request and SIGTERM), and
// the serve.* fault-injection sweep.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "io/table_csv.hpp"
#include "sched/batch_driver.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"
#include "support/signals.hpp"

namespace {

using namespace cps;

BatchConfig tiny_workload() {
  BatchConfig config;
  config.base_seed = 42;
  config.cpg.process_count = 16;
  config.cpg.path_count = 4;
  return config;
}

std::string test_socket(const char* tag) {
  return "/tmp/condsched_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

ServerOptions tiny_options(const char* tag) {
  ServerOptions options;
  options.socket_path = test_socket(tag);
  options.threads = 2;
  options.workload = tiny_workload();
  return options;
}

/// The offline oracle: the exact bytes the service must answer for a
/// "run" request with this id (index defaults to id).
std::string oracle_payload(const BatchConfig& workload, std::uint64_t id) {
  const BatchItem item = run_batch_item(workload, id, nullptr);
  return make_item_response(id, item, nullptr);
}

std::string status_of(const std::string& payload) {
  return JsonValue::parse(payload).at("status").as_string();
}

/// Server on its own thread; drained and joined at scope exit.
class ServerHarness {
 public:
  explicit ServerHarness(ServerOptions options)
      : server_(std::move(options)), thread_([this] { server_.run(); }) {}
  ~ServerHarness() { drain(); }

  /// Idempotent: triggers a drain (no-op if already draining) and joins.
  void drain() {
    if (joined_) return;
    server_.request_drain();
    thread_.join();
    joined_ = true;
  }

  Server& server() { return server_; }

 private:
  Server server_;
  std::thread thread_;
  bool joined_ = false;
};

// ------------------------------------------------------------ determinism

// The PR's acceptance gate: the sorted-by-id response set is
// byte-identical across thread counts and connection counts, and equal
// to the offline oracle.
TEST(Serve, ResponsesByteIdenticalAcrossThreadsAndConnections) {
  const BatchConfig workload = tiny_workload();
  constexpr std::size_t kRequests = 12;
  std::vector<std::string> oracle;
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    oracle.push_back(oracle_payload(workload, id));
  }

  for (std::size_t threads : {1u, 2u, 4u}) {
    for (std::size_t connections : {1u, 3u}) {
      ServerOptions options = tiny_options("det");
      options.threads = threads;
      ServerHarness harness(std::move(options));

      LoadGenConfig load;
      load.socket_path = harness.server().socket_path();
      load.requests = kRequests;
      load.connections = connections;
      load.keep_payloads = true;
      LoadGenResult r = run_loadgen(load);
      ASSERT_EQ(r.responses, kRequests)
          << threads << " threads, " << connections << " connections";
      ASSERT_EQ(r.ok, kRequests);

      std::sort(r.payloads.begin(), r.payloads.end());
      for (std::size_t i = 0; i < kRequests; ++i) {
        EXPECT_EQ(r.payloads[i].second, oracle[i])
            << "id " << i << " at " << threads << " threads, " << connections
            << " connections";
      }
    }
  }
}

// Arrival order must not matter either: pipeline requests in shuffled
// order on one connection and match every (out-of-order) completion
// against the oracle by id.
TEST(Serve, ShuffledPipelinedArrivalMatchesOracle) {
  const BatchConfig workload = tiny_workload();
  ServerHarness harness(tiny_options("shuffle"));
  ServeClient client(harness.server().socket_path());

  const std::vector<std::uint64_t> order = {5, 0, 3, 1, 4, 2};
  for (std::uint64_t id : order) {
    ASSERT_TRUE(client.send_run(id));
  }
  std::map<std::uint64_t, std::string> by_id;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::optional<std::string> response = client.recv();
    ASSERT_TRUE(response.has_value());
    const JsonValue doc = JsonValue::parse(*response);
    by_id[static_cast<std::uint64_t>(doc.at("id").as_number())] = *response;
  }
  ASSERT_EQ(by_id.size(), order.size());
  for (std::uint64_t id : order) {
    EXPECT_EQ(by_id[id], oracle_payload(workload, id)) << "id " << id;
  }
}

// Reconnecting and re-sending the same id is idempotent: same bytes.
TEST(Serve, ReconnectAndResendIsIdempotent) {
  ServerHarness harness(tiny_options("reconnect"));
  const std::string path = harness.server().socket_path();

  std::string first;
  {
    ServeClient client(path);
    ASSERT_TRUE(client.send_run(9));
    const std::optional<std::string> response = client.recv();
    ASSERT_TRUE(response.has_value());
    first = *response;
  }
  ServeClient again(path);
  ASSERT_TRUE(again.send_run(9));
  const std::optional<std::string> response = again.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, first);
  EXPECT_EQ(first, oracle_payload(tiny_workload(), 9));
}

// `csv: true` attaches the schedule table rendered by the same writer
// the offline CSV path uses.
TEST(Serve, CsvRequestAttachesScheduleTable) {
  ServerHarness harness(tiny_options("csv"));
  ServeClient client(harness.server().socket_path());
  ASSERT_TRUE(client.send("{\"id\": 4, \"op\": \"run\", \"csv\": true}"));
  const std::optional<std::string> response = client.recv();
  ASSERT_TRUE(response.has_value());

  const BatchConfig workload = tiny_workload();
  std::string csv;
  const BatchItem item = run_batch_item(
      workload, 4, nullptr,
      [&](const CoSynthesisResult& r) { csv = table_csv_string(r.table); });
  ASSERT_TRUE(item.ok) << item.error;
  ASSERT_FALSE(csv.empty());
  EXPECT_EQ(*response, make_item_response(4, item, &csv));
  EXPECT_EQ(JsonValue::parse(*response).at("table_csv").as_string(), csv);
}

// --------------------------------------------------- protocol odds & ends

TEST(Serve, PingPongAndParseFailureKeepTheConnection) {
  ServerHarness harness(tiny_options("ping"));
  ServeClient client(harness.server().socket_path());

  // Garbage gets a typed parse_failed with a null id...
  ASSERT_TRUE(client.send("{this is not json"));
  std::optional<std::string> response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(status_of(*response), "parse_failed");
  EXPECT_EQ(JsonValue::parse(*response).at("id").kind(),
            JsonValue::Kind::kNull);

  // ...and the connection survives to serve a ping on the same socket.
  ASSERT_TRUE(client.send("{\"id\": 1, \"op\": \"ping\"}"));
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  const JsonValue doc = JsonValue::parse(*response);
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  EXPECT_TRUE(doc.at("pong").as_bool());
  EXPECT_FALSE(doc.at("draining").as_bool());
}

// ------------------------------------------------------ overload shedding

// Open-loop load far above a 1-worker server's capacity: every request
// still gets exactly one typed response — ok or rejected_overload, no
// silent drops — and the queue stays within its bound.
TEST(Serve, OverloadShedsTypedResponsesShedOldest) {
  ServerOptions options = tiny_options("shed");
  options.threads = 1;
  options.max_queue_depth = 3;
  options.overload = OverloadPolicy::kShedOldest;
  ServerHarness harness(std::move(options));

  LoadGenConfig load;
  load.socket_path = harness.server().socket_path();
  load.requests = 80;
  load.connections = 2;
  load.open_loop = true;
  load.rate_per_sec = 4000.0;
  const LoadGenResult r = run_loadgen(load);

  EXPECT_EQ(r.sent, 80u);
  EXPECT_EQ(r.responses, r.sent) << "every request answered, none dropped";
  EXPECT_GT(r.shed, 0u) << "2x+ capacity must shed";
  EXPECT_GT(r.ok, 0u) << "shedding must not starve admitted work";
  EXPECT_EQ(r.ok + r.shed + r.timed_out, r.responses);
  EXPECT_EQ(r.parse_failed, 0u);
  EXPECT_EQ(r.disconnected, 0u);
  EXPECT_EQ(r.recv_timeouts, 0u);

  harness.drain();
  const ServerCounters c = harness.server().stats();
  EXPECT_GT(c.shed_overload, 0u);
  EXPECT_LE(c.peak_queue_depth, 3u) << "admission bound held";
  EXPECT_EQ(c.completed_ok, r.ok);
}

TEST(Serve, OverloadRejectNewestAnswersEveryRequest) {
  ServerOptions options = tiny_options("reject");
  options.threads = 1;
  options.max_queue_depth = 3;
  options.overload = OverloadPolicy::kRejectNewest;
  ServerHarness harness(std::move(options));

  LoadGenConfig load;
  load.socket_path = harness.server().socket_path();
  load.requests = 80;
  load.connections = 2;
  load.open_loop = true;
  load.rate_per_sec = 4000.0;
  const LoadGenResult r = run_loadgen(load);

  EXPECT_EQ(r.responses, r.sent);
  EXPECT_GT(r.shed, 0u);
  EXPECT_GT(r.ok, 0u);
  EXPECT_EQ(r.parse_failed + r.disconnected + r.recv_timeouts, 0u);
}

// The in-flight-bytes watermark is its own admission axis: a watermark
// smaller than any frame refuses everything — typed, never silent.
TEST(Serve, ByteWatermarkRejectsWithTypedResponses) {
  ServerOptions options = tiny_options("bytes");
  options.max_inflight_bytes = 1;
  ServerHarness harness(std::move(options));

  LoadGenConfig load;
  load.socket_path = harness.server().socket_path();
  load.requests = 6;
  load.connections = 2;
  const LoadGenResult r = run_loadgen(load);
  EXPECT_EQ(r.responses, 6u);
  EXPECT_EQ(r.shed, 6u);
  EXPECT_EQ(r.ok, 0u);
}

// ------------------------------------------------------------------ drain

// A "shutdown" request acks, refuses later runs with a typed response,
// finishes the in-flight work, flushes, and run() returns.
TEST(Serve, ShutdownRequestDrainsGracefully) {
  ServerHarness harness(tiny_options("shutdown"));
  const std::string path = harness.server().socket_path();
  ServeClient client(path);

  ASSERT_TRUE(client.send_run(0));
  ASSERT_TRUE(client.send("{\"id\": 1, \"op\": \"shutdown\"}"));
  // A run pipelined behind the shutdown is refused, typed.
  ASSERT_TRUE(client.send_run(2));

  std::map<std::uint64_t, std::string> by_id;
  for (int i = 0; i < 3; ++i) {
    const std::optional<std::string> response = client.recv();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    const JsonValue doc = JsonValue::parse(*response);
    by_id[static_cast<std::uint64_t>(doc.at("id").as_number())] = *response;
  }
  EXPECT_EQ(by_id[0], oracle_payload(tiny_workload(), 0));
  EXPECT_TRUE(JsonValue::parse(by_id[1]).at("draining").as_bool());
  EXPECT_EQ(status_of(by_id[2]), "rejected_overload");

  // The daemon exits on its own — no request_drain() needed; after the
  // flush it closes the connection.
  EXPECT_FALSE(client.recv().has_value());
  harness.drain();
  EXPECT_EQ(harness.server().stats().rejected_draining, 1u);
}

// SIGTERM through a SignalDrain fd takes the same path: in-flight work
// is answered (ok or typed refusal), everything flushes, run() returns.
TEST(Serve, SigtermDrainsAndFlushesInFlightWork) {
  SignalDrain drain{SIGTERM};
  ServerOptions options = tiny_options("sigterm");
  options.signal_fd = drain.fd();
  ServerHarness harness(std::move(options));
  ServeClient client(harness.server().socket_path());

  for (std::uint64_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(client.send_run(id));
  }
  std::raise(SIGTERM);

  // Every pipelined request is answered before the server exits; whether
  // a given one ran or was refused depends on the race with the signal,
  // but none may vanish.
  std::size_t answered = 0;
  for (std::uint64_t id = 0; id < 3; ++id) {
    const std::optional<std::string> response = client.recv();
    if (!response.has_value()) break;
    const std::string status = status_of(*response);
    EXPECT_TRUE(status == "ok" || status == "rejected_overload") << status;
    ++answered;
  }
  EXPECT_EQ(answered, 3u);
  harness.drain();
}

// ------------------------------------------------- budget edges (ISSUE 9)

TEST(Serve, AlreadyExpiredDeadlineIsRefusedAtAdmission) {
  ServerHarness harness(tiny_options("expired"));
  ServeClient client(harness.server().socket_path());
  ASSERT_TRUE(
      client.send("{\"id\": 1, \"op\": \"run\", \"deadline_ms\": -5.0}"));
  const std::optional<std::string> response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(status_of(*response), "deadline_exceeded");

  // The server keeps serving afterwards.
  ASSERT_TRUE(client.send_run(2));
  const std::optional<std::string> ok = client.recv();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(status_of(*ok), "ok");
}

TEST(Serve, ZeroStepBudgetIsATypedRefusal) {
  ServerHarness harness(tiny_options("zerosteps"));
  ServeClient client(harness.server().socket_path());
  ASSERT_TRUE(client.send("{\"id\": 1, \"op\": \"run\", \"max_steps\": 0}"));
  const std::optional<std::string> response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(status_of(*response), "step_budget_exceeded");
}

// A tiny deadline behind a queue of slower work fires while queued (or
// at dispatch, or inside the run — whichever the race picks, the answer
// is typed and the server never hangs).
TEST(Serve, TinyDeadlineBehindQueuedWorkExpiresTyped) {
  ServerOptions options = tiny_options("queued");
  options.threads = 1;
  ServerHarness harness(std::move(options));
  ServeClient client(harness.server().socket_path());

  for (std::uint64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE(client.send_run(id));
  }
  ASSERT_TRUE(client.send(
      "{\"id\": 99, \"op\": \"run\", \"deadline_ms\": 0.0001}"));

  bool saw_expired = false;
  for (int i = 0; i < 5; ++i) {
    const std::optional<std::string> response = client.recv();
    ASSERT_TRUE(response.has_value());
    const JsonValue doc = JsonValue::parse(*response);
    if (static_cast<std::uint64_t>(doc.at("id").as_number()) == 99) {
      EXPECT_EQ(doc.at("status").as_string(), "deadline_exceeded");
      saw_expired = true;
    }
  }
  EXPECT_TRUE(saw_expired);

  // Still serving.
  ASSERT_TRUE(client.send_run(7));
  const std::optional<std::string> after = client.recv();
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, oracle_payload(tiny_workload(), 7));
}

// max_paths bounds coverage instead of failing: the envelope stays ok,
// the item reports path_budget_exceeded with partial coverage.
TEST(Serve, PathBudgetYieldsBoundedCoverageResponse) {
  ServerHarness harness(tiny_options("paths"));
  ServeClient client(harness.server().socket_path());
  ASSERT_TRUE(client.send("{\"id\": 3, \"op\": \"run\", \"max_paths\": 1}"));
  const std::optional<std::string> response = client.recv();
  ASSERT_TRUE(response.has_value());
  const JsonValue doc = JsonValue::parse(*response);
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  const JsonValue& item = doc.at("item");
  EXPECT_EQ(item.at("status").as_string(), "path_budget_exceeded");
  EXPECT_LT(item.at("coverage").as_number(), 1.0);
  EXPECT_GT(item.at("coverage").as_number(), 0.0);
}

// ------------------------------------------------ fault injection (serve.*)

// One request absorbs the injected fault as a typed response; its
// neighbors are untouched (byte-identical to the oracle) and the daemon
// keeps serving. Swept over every serve.* site that maps to a request.
TEST(Serve, FaultSweepRequestSitesFailExactlyOneRequestTyped) {
  if (!fault::enabled()) {
    GTEST_SKIP() << "built without CPS_FAULT_INJECT";
  }
  const BatchConfig workload = tiny_workload();
  for (const char* site : {"serve.read", "serve.dispatch", "serve.write"}) {
    SCOPED_TRACE(site);
    fault::disarm_all();
    ServerHarness harness(tiny_options("fault"));
    ServeClient client(harness.server().socket_path());

    fault::FaultSpec spec;
    spec.fire_at = 2;  // ids 0,1,2 arrive in order: id 1 draws the fault
    fault::arm(site, spec);
    std::size_t injected = 0;
    for (std::uint64_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(client.send_run(id));
      const std::optional<std::string> response = client.recv();
      ASSERT_TRUE(response.has_value()) << "id " << id;
      if (status_of(*response) == "injected_fault") {
        ++injected;
        EXPECT_EQ(
            static_cast<std::uint64_t>(
                JsonValue::parse(*response).at("id").as_number()),
            id);
      } else {
        EXPECT_EQ(*response, oracle_payload(workload, id)) << "id " << id;
      }
    }
    EXPECT_EQ(injected, 1u);
    fault::disarm_all();

    // The daemon survived: a fresh connection still gets answers.
    ServeClient again(harness.server().socket_path());
    ASSERT_TRUE(again.send_run(5));
    const std::optional<std::string> after = again.recv();
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(*after, oracle_payload(workload, 5));
    EXPECT_GE(harness.server().stats().injected_failures, 1u);
  }
}

// serve.accept drops exactly the faulted connection; the next one works.
TEST(Serve, FaultAcceptDropsOnlyTheFaultedConnection) {
  if (!fault::enabled()) {
    GTEST_SKIP() << "built without CPS_FAULT_INJECT";
  }
  fault::disarm_all();
  ServerHarness harness(tiny_options("faultaccept"));
  fault::arm("serve.accept", fault::FaultSpec{});

  ServeClient dropped(harness.server().socket_path());
  dropped.send_run(0);
  EXPECT_FALSE(dropped.recv().has_value()) << "faulted accept must close";
  fault::disarm_all();

  ServeClient survivor(harness.server().socket_path());
  ASSERT_TRUE(survivor.send_run(1));
  const std::optional<std::string> response = survivor.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, oracle_payload(tiny_workload(), 1));
}

// ------------------------------------------------------- schedule cache

std::string stats_request(std::uint64_t id) {
  JsonWriter w(0);
  w.begin_object();
  w.field("id", id);
  w.field("op", "stats");
  w.end_object();
  return w.str();
}

// The "stats" op exposes the daemon's cache, per-session workspace-pool,
// and runtime counters in one typed response.
TEST(Serve, StatsOpReportsCacheAndPoolCounters) {
  ServerHarness harness(tiny_options("stats"));
  ServeClient client(harness.server().socket_path());

  // Same index twice: the second run is an exact daemon-cache hit.
  ASSERT_TRUE(client.send_run(0));
  ASSERT_TRUE(client.recv().has_value());
  ASSERT_TRUE(client.send_run(7, std::uint64_t{0}));
  const std::optional<std::string> repeat = client.recv();
  ASSERT_TRUE(repeat.has_value());

  ASSERT_TRUE(client.send(stats_request(99)));
  const std::optional<std::string> response = client.recv();
  ASSERT_TRUE(response.has_value());
  const JsonValue doc = JsonValue::parse(*response);
  EXPECT_EQ(doc.at("id").as_number(), 99.0);
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  EXPECT_TRUE(doc.at("cache_enabled").as_bool());
  EXPECT_EQ(doc.at("cache").at("hits").as_number(), 1.0);
  EXPECT_EQ(doc.at("cache").at("misses").as_number(), 1.0);
  EXPECT_EQ(doc.at("cache").at("insertions").as_number(), 1.0);
  EXPECT_GE(doc.at("server").at("admitted").as_number(), 2.0);
  EXPECT_GE(doc.at("workspace_pool").at("leases").as_number(), 1.0);
  EXPECT_GE(doc.at("runtime").at("executed").as_number(), 0.0);

  // perfbench/src/serve.cpp reads these fields through JsonValue::at,
  // which throws on a missing member: each must be present as a number.
  const auto expect_number = [&doc](const char* block, const char* field) {
    SCOPED_TRACE(std::string(block) + "." + field);
    const JsonValue* value = doc.at(block).find(field);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->kind(), JsonValue::Kind::kNumber);
  };
  for (const char* field : {"hits", "misses", "prefix_hits", "prefix_misses"}) {
    expect_number("cache", field);
  }
  expect_number("workspace_pool", "leases");
  expect_number("workspace_pool", "warm_hits");
  // There is no prefix tier: both of its counters read 0.
  EXPECT_EQ(doc.at("cache").at("prefix_hits").as_number(), 0.0);
  EXPECT_EQ(doc.at("cache").at("prefix_misses").as_number(), 0.0);
}

// A replayed response is the same bytes as the computed one — the cache
// is invisible in the payload (the determinism contract's cache clause).
TEST(Serve, CacheReplayIsByteIdenticalIncludingCsv) {
  ServerHarness harness(tiny_options("cachebytes"));
  ServeClient client(harness.server().socket_path());

  const std::string csv_request = [&] {
    JsonWriter w(0);
    w.begin_object();
    w.field("id", std::uint64_t{3});
    w.field("op", "run");
    w.field("csv", true);
    w.end_object();
    return w.str();
  }();
  ASSERT_TRUE(client.send(csv_request));
  const std::optional<std::string> cold = client.recv();
  ASSERT_TRUE(cold.has_value());
  EXPECT_NE(cold->find("table_csv"), std::string::npos);

  // Second client, same request: exact hit (the cache is per-daemon, not
  // per-connection), byte-identical bytes, CSV replayed from the record.
  ServeClient again(harness.server().socket_path());
  ASSERT_TRUE(again.send(csv_request));
  const std::optional<std::string> warm = again.recv();
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(*warm, *cold);

  ASSERT_TRUE(again.send(stats_request(4)));
  const std::optional<std::string> stats = again.recv();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(JsonValue::parse(*stats).at("cache").at("hits").as_number(),
            1.0);
}

// With --no-cache semantics (enable_cache = false) the daemon still
// answers identically — the cache only ever changes latency.
TEST(Serve, DisabledCacheAnswersIdenticallyAndReportsDisabled) {
  const BatchConfig workload = tiny_workload();
  ServerOptions options = tiny_options("nocache");
  options.enable_cache = false;
  ServerHarness harness(std::move(options));
  ServeClient client(harness.server().socket_path());

  ASSERT_TRUE(client.send_run(2));
  const std::optional<std::string> response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, oracle_payload(workload, 2));

  ASSERT_TRUE(client.send(stats_request(1)));
  const std::optional<std::string> stats = client.recv();
  ASSERT_TRUE(stats.has_value());
  const JsonValue doc = JsonValue::parse(*stats);
  EXPECT_FALSE(doc.at("cache_enabled").as_bool());
  EXPECT_EQ(doc.at("cache").at("hits").as_number(), 0.0);
}

// Restarting the daemon over a warm persistent store serves every
// repeated request as an exact (store) hit with identical bytes.
TEST(Serve, RestartOverWarmStoreReplaysExactHits) {
  namespace fs = std::filesystem;
  const fs::path store =
      fs::temp_directory_path() /
      ("cps_serve_store_" + std::to_string(::getpid()));
  fs::remove_all(store);
  constexpr std::uint64_t kRequests = 4;

  std::vector<std::string> first_run;
  {
    ServerOptions options = tiny_options("warmstore1");
    options.cache.store_dir = store.string();
    ServerHarness harness(std::move(options));
    ServeClient client(harness.server().socket_path());
    for (std::uint64_t id = 0; id < kRequests; ++id) {
      ASSERT_TRUE(client.send_run(id));
      const std::optional<std::string> response = client.recv();
      ASSERT_TRUE(response.has_value());
      first_run.push_back(*response);
    }
  }  // daemon drains; its in-memory tiers die with it

  ServerOptions options = tiny_options("warmstore2");
  options.cache.store_dir = store.string();
  ServerHarness harness(std::move(options));
  ServeClient client(harness.server().socket_path());
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    ASSERT_TRUE(client.send_run(id));
    const std::optional<std::string> response = client.recv();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(*response, first_run[id]) << "id " << id;
  }
  ASSERT_TRUE(client.send(stats_request(77)));
  const std::optional<std::string> stats = client.recv();
  ASSERT_TRUE(stats.has_value());
  const JsonValue doc = JsonValue::parse(*stats);
  EXPECT_EQ(doc.at("cache").at("hits").as_number(),
            static_cast<double>(kRequests));
  EXPECT_EQ(doc.at("cache").at("store_hits").as_number(),
            static_cast<double>(kRequests));
  harness.drain();
  std::error_code ec;
  fs::remove_all(store, ec);
}

}  // namespace
