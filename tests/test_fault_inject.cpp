// Deterministic fault injection (support/fault) across the pipeline.
//
// Every test arms a named fault site, runs a serial batch (threads = 1,
// so hit ordinals map to items deterministically), and checks the three
// robustness guarantees end to end:
//   1. the fault surfaces as a *typed* kInjectedFault on exactly the
//      item that hit it — the batch completes, nothing leaks out;
//   2. every surviving item is untouched — identical to the same item
//      in a never-faulted reference run;
//   3. after disarming, a rerun is byte-identical to the reference
//      (no poisoned workspace or pool state survives).
//
// The whole file GTEST_SKIPs unless the build compiled the sites in
// (CPS_FAULT_INJECT=ON); the CI fault job runs it under ASan.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/batch_driver.hpp"
#include "sched/schedule_cache.hpp"
#include "support/fault.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace cps;

/// Sites a serial batch deterministically passes through, in pipeline
/// order. "pool.group_task" is exercised at the TaskGroup level (a serial
/// batch never routes work through one).
const char* const kBatchSites[] = {
    "batch.item", "engine.run", "engine.step", "merge.adjust",
};

BatchConfig sweep_config() {
  BatchConfig config;
  config.count = 4;
  config.base_seed = 11;
  config.threads = 1;  // serial: hit order == item order, no races
  config.max_retries = 0;
  return config;
}

std::string json_of(const BatchResult& result) {
  BatchJsonOptions options;
  options.include_timing = false;
  return batch_result_to_json(result, options);
}

void expect_item_untouched(const BatchItem& got, const BatchItem& want) {
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.code, want.code);
  EXPECT_EQ(got.paths, want.paths);
  EXPECT_EQ(got.table_entries, want.table_entries);
  EXPECT_EQ(got.delta_m, want.delta_m);
  EXPECT_EQ(got.delta_max, want.delta_max);
  EXPECT_EQ(got.merge.backsteps, want.merge.backsteps);
  EXPECT_EQ(got.merge.conflicts, want.merge.conflicts);
  EXPECT_EQ(got.workspace.runs, want.workspace.runs);
}

class FaultInject : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::enabled()) {
      GTEST_SKIP() << "built without CPS_FAULT_INJECT";
    }
    fault::disarm_all();
  }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(FaultInject, UnarmedSitesNeverFire) {
  const BatchConfig config = sweep_config();
  const BatchResult result = run_batch(config);
  EXPECT_EQ(result.summary.ok_count, config.count);
  for (const char* site : kBatchSites) {
    EXPECT_EQ(fault::fires(site), 0u) << site;
    EXPECT_EQ(fault::hits(site), 0u) << site;  // unarmed sites don't count
  }
}

TEST_F(FaultInject, EverySiteFailsExactlyOneItemAndCleanRerunIsIdentical) {
  const BatchConfig config = sweep_config();
  const BatchResult reference = run_batch(config);
  ASSERT_EQ(reference.summary.ok_count, config.count);
  const std::string reference_json = json_of(reference);

  for (const char* site : kBatchSites) {
    SCOPED_TRACE(site);
    fault::FaultSpec spec;
    spec.fire_at = 1;  // first hit: lands in item 0 in a serial batch
    fault::arm(site, spec);
    const BatchResult faulted = run_batch(config);
    fault::disarm_all();

    ASSERT_EQ(fault::fires(site), 0u);  // disarm_all reset the counters
    ASSERT_EQ(faulted.items.size(), config.count);

    // Exactly one item failed, with the typed code and the site name in
    // the message; the batch itself completed.
    std::size_t failed = 0;
    for (const BatchItem& item : faulted.items) {
      if (item.ok) continue;
      ++failed;
      EXPECT_EQ(item.code, ErrorCode::kInjectedFault);
      EXPECT_NE(item.error.find(site), std::string::npos) << item.error;
      EXPECT_EQ(item.attempts, 1u);  // max_retries = 0
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_FALSE(faulted.items[0].ok) << "first hit must land in item 0";
    EXPECT_EQ(faulted.summary.ok_count, config.count - 1);

    // Isolation: the survivors match the never-faulted reference.
    for (std::size_t i = 1; i < faulted.items.size(); ++i) {
      SCOPED_TRACE("item " + std::to_string(i));
      expect_item_untouched(faulted.items[i], reference.items[i]);
    }

    // No poison: a clean rerun is byte-identical to the reference.
    EXPECT_EQ(json_of(run_batch(config)), reference_json);
  }
}

TEST_F(FaultInject, SurvivingItemsAreByteIdenticalAtEveryThreadCount) {
  // The same sweep through a *pooled* batch: the fault may land in any
  // item (hit order races), but whichever items survive must serialize
  // byte-identically to the reference, and the clean rerun must too.
  BatchConfig config = sweep_config();
  const std::string reference_json = json_of(run_batch(config));
  const BatchResult reference = run_batch(config);

  config.threads = 4;
  const std::string pooled_reference_json = json_of(run_batch(config));
  EXPECT_EQ(pooled_reference_json, reference_json);

  for (const char* site : {"engine.step", "merge.adjust", "batch.item"}) {
    SCOPED_TRACE(site);
    fault::FaultSpec spec;
    spec.fire_at = 1;
    fault::arm(site, spec);
    const BatchResult faulted = run_batch(config);
    fault::disarm_all();
    EXPECT_GE(faulted.summary.ok_count, config.count - 1);
    for (const BatchItem& item : faulted.items) {
      if (!item.ok) {
        EXPECT_EQ(item.code, ErrorCode::kInjectedFault);
        continue;
      }
      SCOPED_TRACE("item " + std::to_string(item.index));
      expect_item_untouched(item, reference.items[item.index]);
    }
    EXPECT_EQ(json_of(run_batch(config)), reference_json);
  }
}

TEST_F(FaultInject, TransientFaultsRetryWithDeterministicBackoff) {
  BatchConfig config = sweep_config();
  config.max_retries = 2;
  const std::string reference_json = json_of(run_batch(config));

  // Without a cache, then against a warm one: there the retried attempt
  // replays an exact hit, which must keep the retries that came before it.
  ScheduleCache warm;
  for (ScheduleCache* cache : {static_cast<ScheduleCache*>(nullptr), &warm}) {
    SCOPED_TRACE(cache == nullptr ? "no cache" : "warm cache");
    config.cache = cache;
    if (cache != nullptr) {
      ASSERT_EQ(json_of(run_batch(config)), reference_json);
    }

    fault::FaultSpec spec;
    spec.fire_at = 1;
    spec.count = 1;  // fail the first attempt only
    spec.transient = true;
    fault::arm("batch.item", spec);
    const BatchResult result = run_batch(config);
    fault::disarm_all();

    // Item 0 recovered on the retry; its serialized form is identical to
    // the never-faulted run (attempt counters are struct-only on purpose).
    const BatchItem& item = result.items[0];
    EXPECT_TRUE(item.ok);
    EXPECT_EQ(item.code, ErrorCode::kOk);
    EXPECT_EQ(item.attempts, 2u);
    EXPECT_EQ(item.retries, 1u);
    EXPECT_GT(item.backoff_ms, 0u);
    EXPECT_LE(item.backoff_ms, 8u);  // capped
    EXPECT_EQ(result.summary.ok_count, config.count);
    EXPECT_EQ(result.summary.retries, 1u);
    // The summary's retry counter is the one legitimate delta: it records
    // that a fault ever happened. Normalize it and demand byte-equality
    // everywhere else.
    std::string faulted = json_of(result);
    const auto pos = faulted.find("\"retries\": 1");
    ASSERT_NE(pos, std::string::npos);
    faulted.replace(pos, std::string("\"retries\": 1").size(),
                    "\"retries\": 0");
    EXPECT_EQ(faulted, reference_json);
  }
  EXPECT_EQ(warm.stats().hits, config.count);  // item 0's retry included
}

TEST_F(FaultInject, PersistentTransientFaultExhaustsRetries) {
  BatchConfig config = sweep_config();
  config.max_retries = 2;
  fault::FaultSpec spec;
  spec.fire_at = 1;
  spec.count = 100;  // every attempt fails
  spec.transient = true;
  fault::arm("batch.item", spec);
  const BatchResult result = run_batch(config);
  fault::disarm_all();
  const BatchItem& item = result.items[0];
  EXPECT_FALSE(item.ok);
  EXPECT_EQ(item.code, ErrorCode::kInjectedFault);
  EXPECT_EQ(item.attempts, 3u);  // 1 + max_retries
  EXPECT_EQ(item.retries, 2u);
}

TEST_F(FaultInject, NonTransientFaultNeverRetries) {
  BatchConfig config = sweep_config();
  config.max_retries = 5;
  fault::FaultSpec spec;
  spec.fire_at = 1;
  fault::arm("batch.item", spec);  // transient = false
  const BatchResult result = run_batch(config);
  fault::disarm_all();
  EXPECT_FALSE(result.items[0].ok);
  EXPECT_EQ(result.items[0].attempts, 1u);
  EXPECT_EQ(result.items[0].retries, 0u);
}

TEST_F(FaultInject, PoolGroupTaskFaultCrossesTheStealBoundaryTyped) {
  // The pool.group_task site sits inside the TaskGroup wrapper, so the
  // fault is thrown on whatever thread (worker or help-running waiter)
  // executes the task — wait() must still rethrow it typed, and the
  // pool must survive with its error ledger balanced.
  ThreadPool pool(2);
  const PoolStats before = pool.stats();
  fault::FaultSpec spec;
  spec.fire_at = 1;
  fault::arm("pool.group_task", spec);
  TaskGroup group(pool);
  for (int i = 0; i < 16; ++i) {
    group.submit([] {});
  }
  try {
    group.wait();
    FAIL() << "expected the injected fault to rethrow";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(e.site(), "pool.group_task");
    EXPECT_EQ(e.code(), ErrorCode::kInjectedFault);
  }
  fault::disarm_all();
  // The pool survives and the error was observed, not dropped.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
  pool.wait_idle();
  EXPECT_EQ(pool.stats().delta_since(before).dropped_errors, 0u);
}

TEST_F(FaultInject, FireAtOrdinalSelectsALaterItem) {
  // Arm the batch.item site past item 0's hit: the failure must move to
  // the matching later item — the ordinal is a deterministic cursor.
  const BatchConfig config = sweep_config();
  fault::FaultSpec spec;
  spec.fire_at = 3;  // third hit = item 2 in a serial batch
  fault::arm("batch.item", spec);
  const BatchResult result = run_batch(config);
  fault::disarm_all();
  ASSERT_EQ(result.items.size(), 4u);
  EXPECT_TRUE(result.items[0].ok);
  EXPECT_TRUE(result.items[1].ok);
  EXPECT_FALSE(result.items[2].ok);
  EXPECT_TRUE(result.items[3].ok);
}

}  // namespace
