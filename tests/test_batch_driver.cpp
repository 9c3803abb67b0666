// Batch experiment driver: deterministic per-task seeding (same seed,
// byte-identical JSON regardless of thread count), failure capture, and
// the JSON writer's formatting rules.
#include <gtest/gtest.h>

#include "sched/batch_driver.hpp"
#include "sched/workspace_pool.hpp"
#include "support/json.hpp"

namespace {

using namespace cps;

BatchConfig small_config() {
  BatchConfig config;
  config.count = 8;
  config.base_seed = 42;
  config.cpg.process_count = 20;
  config.cpg.path_count = 4;
  return config;
}

BatchJsonOptions deterministic_json() {
  BatchJsonOptions options;
  options.include_timing = false;
  return options;
}

TEST(JsonWriter, RendersNestedStructures) {
  JsonWriter w(0);
  w.begin_object();
  w.field("name", "a \"quoted\" string\n");
  w.field("int", static_cast<std::int64_t>(-3));
  w.field("real", 1.5);
  w.field("flag", true);
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("empty").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\": \"a \\\"quoted\\\" string\\n\",\"int\": -3,"
            "\"real\": 1.500000,\"flag\": true,\"list\": [1,2],"
            "\"empty\": {}}");
}

TEST(JsonWriter, IndentedOutputIsStable) {
  JsonWriter w(2);
  w.begin_object();
  w.field("a", 1);
  w.key("b").begin_array().value(2).end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(BatchDriver, ItemsAreDeterministicPureFunctionsOfSeed) {
  const BatchConfig config = small_config();
  const BatchItem a = run_batch_item(config, 3);
  const BatchItem b = run_batch_item(config, 3);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.seed, config.base_seed + 3);
  EXPECT_EQ(a.delta_m, b.delta_m);
  EXPECT_EQ(a.delta_max, b.delta_max);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.table_entries, b.table_entries);
}

TEST(BatchDriver, SameSeedByteIdenticalJsonAcrossThreadCounts) {
  BatchConfig config = small_config();
  config.threads = 1;
  const std::string single =
      batch_result_to_json(run_batch(config), deterministic_json());
  config.threads = 4;
  const std::string pooled =
      batch_result_to_json(run_batch(config), deterministic_json());
  EXPECT_EQ(single, pooled);

  // And across repeated runs of the same configuration.
  const std::string again =
      batch_result_to_json(run_batch(config), deterministic_json());
  EXPECT_EQ(pooled, again);
}

TEST(BatchDriver, DifferentSeedsChangeResults) {
  BatchConfig config = small_config();
  const std::string a =
      batch_result_to_json(run_batch(config), deterministic_json());
  config.base_seed = 1234567;
  const std::string b =
      batch_result_to_json(run_batch(config), deterministic_json());
  EXPECT_NE(a, b);
}

TEST(BatchDriver, JsonOmitsWalkAndRuntimeCounters) {
  const BatchConfig config = small_config();
  const std::string json =
      batch_result_to_json(run_batch(config), deterministic_json());
  // The guard-trie walk and its counters are gone from the format.
  EXPECT_EQ(json.find("\"path_tree\""), std::string::npos);
  EXPECT_EQ(json.find("\"path_scheduling\""), std::string::npos);
  // Deterministic JSON must not leak the timing-gated runtime counters.
  EXPECT_EQ(json.find("\"runtime\""), std::string::npos);
  EXPECT_EQ(json.find("\"steals\""), std::string::npos);
}

// 40 seeds, byte-identical JSON at every thread count. The 1-thread run
// has no pool at all (the serial reference); the others run whole items
// on one runtime — none of which may leak into deterministic output.
TEST(BatchDriver, FortySeedSweepIsByteIdenticalAt1248Threads) {
  BatchConfig config;
  config.count = 40;
  config.base_seed = 7;
  config.cpg.process_count = 16;
  config.cpg.path_count = 6;
  config.threads = 1;
  const std::string reference =
      batch_result_to_json(run_batch(config), deterministic_json());
  for (std::size_t threads : {2u, 4u, 8u}) {
    config.threads = threads;
    const std::string pooled =
        batch_result_to_json(run_batch(config), deterministic_json());
    EXPECT_EQ(reference, pooled) << "thread count " << threads;
  }
}

// A pooled batch runs its items on the runtime and reports a balanced
// runtime snapshot.
TEST(BatchDriver, PooledBatchReportsABalancedRuntimeSnapshot) {
  BatchConfig config = small_config();
  config.cpg.path_count = 8;
  config.threads = 4;
  const BatchResult result = run_batch(config);
  ASSERT_EQ(result.summary.ok_count, config.count);
  const PoolStats& pool = result.summary.pool;
  // run_batch drains the pool before snapshotting, so the snapshot is
  // exactly balanced.
  EXPECT_GT(pool.executed, 0u);
  EXPECT_EQ(pool.executed, pool.submitted);
  EXPECT_EQ(pool.pending, 0u);
}

// A shared warm-workspace pool (the service's per-session reuse) must
// not change any result: with the reuse counters excluded from the
// serialization, a pooled batch is byte-identical to a cold one. Of
// those counters only the workspace block reflects warm-lease luck; the
// cover_cache counters stay a pure function of the graph and options,
// so they must match item by item too.
TEST(BatchDriver, SharedWorkspacePoolKeepsResultsByteIdentical) {
  BatchConfig config = small_config();
  BatchJsonOptions json_options = deterministic_json();
  json_options.include_reuse_counters = false;
  const BatchResult cold_result = run_batch(config);
  const std::string cold = batch_result_to_json(cold_result, json_options);

  WorkspacePool pool;
  config.synthesis.workspace_pool = &pool;
  const BatchResult warm_result = run_batch(config);
  const std::string warm = batch_result_to_json(warm_result, json_options);
  EXPECT_EQ(cold, warm);

  ASSERT_EQ(cold_result.items.size(), warm_result.items.size());
  for (std::size_t i = 0; i < cold_result.items.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i));
    const BatchItem& c = cold_result.items[i];
    const BatchItem& w = warm_result.items[i];
    EXPECT_EQ(c.cover_cache.hits, w.cover_cache.hits);
    EXPECT_EQ(c.cover_cache.misses, w.cover_cache.misses);
    EXPECT_EQ(c.cover_cache.entries, w.cover_cache.entries);
    EXPECT_EQ(c.cover_cache.resets, w.cover_cache.resets);
  }

  const WorkspacePool::Stats stats = pool.stats();
  EXPECT_GT(stats.leases, 0u);
  EXPECT_GT(stats.warm_hits, 0u) << "the pool must actually reuse buffers";
  EXPECT_EQ(pool.idle(), stats.created) << "every lease returned";
}

TEST(BatchDriver, SummaryAggregatesOnlySuccessfulItems) {
  BatchConfig config = small_config();
  config.count = 5;
  const BatchResult result = run_batch(config);
  EXPECT_EQ(result.summary.count, 5u);
  EXPECT_EQ(result.summary.ok_count,
            static_cast<std::size_t>(result.summary.delta_m.count()));
  for (const BatchItem& item : result.items) {
    EXPECT_TRUE(item.ok) << item.error;
  }
  EXPECT_GT(result.summary.graphs_per_second, 0.0);
}

TEST(BatchDriver, GenerationFailureIsCapturedNotThrown) {
  BatchConfig config = small_config();
  config.count = 2;
  config.cpg.path_count = 0;  // invalid: generator must reject
  const BatchResult result = run_batch(config);
  EXPECT_EQ(result.summary.ok_count, 0u);
  for (const BatchItem& item : result.items) {
    EXPECT_FALSE(item.ok);
    EXPECT_FALSE(item.error.empty());
  }
  // Failures still serialize.
  const std::string json =
      batch_result_to_json(result, deterministic_json());
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
}

}  // namespace
