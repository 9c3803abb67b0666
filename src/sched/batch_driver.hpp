// Parallel batch experiment driver.
//
// The paper's experiments (§6) co-synthesize ~1080 random CPGs; the
// ROADMAP's north star is "thousands of scenarios, as fast as the hardware
// allows". This driver is the scaling substrate: one work-stealing
// runtime (support/thread_pool) co-synthesizes N random CPGs in parallel,
// one whole item per task; each item runs schedule_cpg's serial walk.
// Each graph derives from a deterministic per-task seed (base_seed +
// index), so results are byte-identical regardless of thread count or
// completion order. Per-graph pipeline-stage timings and delay/merge
// statistics are aggregated via support/stats and exported as
// machine-readable JSON (support/json) for the benchmark harness and
// external tooling.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "sched/driver.hpp"
#include "sched/schedule_cache.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace cps {

class JsonWriter;

struct BatchConfig {
  /// Number of random CPGs to co-synthesize.
  std::size_t count = 16;
  /// Graph i uses Rng(base_seed + i) for architecture + CPG generation.
  std::uint64_t base_seed = 1;
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Per-item wall-clock deadline in milliseconds; 0 = none. Each item
  /// (each retry attempt, in fact) gets a fresh deadline; a trip isolates
  /// that item — it reports kDeadlineExceeded and the batch continues.
  double deadline_ms = 0.0;
  /// Retry attempts for *transient* injected faults (deterministic
  /// seeded backoff, capped at 8 ms per step). Non-transient failures
  /// never retry. Total attempts per item = 1 + max_retries.
  std::size_t max_retries = 2;
  /// Optional batch-wide cancellation (non-owning; must outlive the
  /// call). Cancelling stops in-flight items cooperatively and fails
  /// not-yet-started items fast with kCancelled; run_batch still returns
  /// a complete BatchResult. Overrides (together with deadline_ms) any
  /// synthesis.budget the caller set.
  const CancelToken* cancel = nullptr;
  RandomArchParams arch;
  RandomCpgParams cpg;
  /// Per-item co-synthesis knobs. Most are passed through as-is; the
  /// driver overrides workspace/keep_paths per item (see
  /// run_batch_item). synthesis.workspace_pool *does* flow through: a
  /// thread-safe pool of warm engine workspaces shared by every item
  /// (the service sets one per session). Results are identical with or
  /// without it, but the per-item "workspace" reuse counters then depend
  /// on which item drew a warm workspace — serialize with
  /// BatchJsonOptions::include_reuse_counters off when comparing such
  /// runs byte-for-byte.
  CoSynthesisOptions synthesis;
  /// Optional content-addressed schedule cache shared across items,
  /// batches and (via its persistent tier) processes — non-owning,
  /// thread-safe, must outlive the call. Exact tier: an item whose graph
  /// + result-affecting options were co-synthesized before replays the
  /// recorded result (and CSV) without touching the engine. Results are
  /// byte-identical with or without a cache.
  ScheduleCache* cache = nullptr;
};

/// Outcome of one co-synthesized graph. All non-timing fields are a pure
/// function of the item seed (and config), never of thread scheduling.
struct BatchItem {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  bool ok = false;
  /// kOk for complete results; kPathBudgetExceeded for successful
  /// bounded-coverage results (ok stays true); otherwise the typed
  /// failure code (kDeadlineExceeded, kCancelled, kInjectedFault,
  /// kValidationFailed, ... — kInternal for untyped exceptions).
  ErrorCode code = ErrorCode::kOk;
  std::string error;  ///< non-empty iff !ok
  /// Attempts actually run (1 + retries taken; 0 only for count == 0).
  std::size_t attempts = 0;
  /// Transient-fault retries taken (attempts - 1 when retrying happened).
  std::size_t retries = 0;
  /// Total deterministic backoff slept between retry attempts.
  std::uint64_t backoff_ms = 0;
  /// Covered-leaves fraction (< 1.0 only for bounded-coverage results).
  double coverage = 1.0;
  /// Total leaf count behind `coverage` (see CoSynthesisResult).
  std::size_t total_leaves = 0;

  std::size_t processes = 0;
  std::size_t tasks = 0;
  std::size_t conditions = 0;
  std::size_t paths = 0;
  std::size_t table_entries = 0;
  Time delta_m = 0;
  Time delta_max = 0;
  double increase_percent = 0.0;
  MergeStats merge;
  /// Per-path scheduling cover-cache counters (deterministic per seed).
  CoverCacheStats cover_cache;
  /// Per-path scheduling engine-workspace counters (same determinism
  /// contract as cover_cache: each item runs on its own workspace, so the
  /// counters are a pure function of the seed).
  WorkspaceStats workspace;

  // Wall-clock per pipeline stage (milliseconds).
  double expand_ms = 0.0;
  double enumerate_ms = 0.0;
  double schedule_ms = 0.0;
  double merge_ms = 0.0;
  double validate_ms = 0.0;
  double total_ms = 0.0;
};

struct BatchSummary {
  std::size_t count = 0;
  std::size_t ok_count = 0;
  /// Items that failed with kDeadlineExceeded.
  std::size_t timeouts = 0;
  /// Items that failed with kCancelled.
  std::size_t cancelled = 0;
  /// Transient-fault retry attempts summed over all items (including
  /// items that eventually succeeded).
  std::size_t retries = 0;
  /// Whole-batch wall clock (ms) and resulting throughput.
  double wall_ms = 0.0;
  double graphs_per_second = 0.0;

  StatAccumulator delta_m;
  StatAccumulator delta_max;
  StatAccumulator increase_percent;
  StatAccumulator tasks;
  StatAccumulator paths;
  StatAccumulator table_entries;
  StatAccumulator expand_ms;
  StatAccumulator enumerate_ms;
  StatAccumulator schedule_ms;
  StatAccumulator merge_ms;
  StatAccumulator validate_ms;
  StatAccumulator total_ms;

  /// Work-stealing runtime counters over the whole batch (zero for serial
  /// runs — no pool exists then). Like the wall-clock fields these are
  /// timing-dependent (which worker stole what is a legitimate race), so
  /// the JSON writer gates them behind include_timing.
  PoolStats pool;
  /// Snapshot of BatchConfig::cache at batch end (zero when none). Gated
  /// behind include_timing the same way PoolStats are: the counters are a
  /// pure function of the request set for one batch, but on a shared
  /// (daemon) cache they accumulate whatever earlier traffic left behind.
  ScheduleCacheStats cache;
  bool cache_enabled = false;
};

struct BatchResult {
  BatchConfig config;
  std::vector<BatchItem> items;  ///< ordered by index
  BatchSummary summary;
};

/// Run one item of the batch (exposed for tests and custom harnesses) on
/// the calling thread. The ThreadPool* parameter of all three overloads
/// is ignored. It stays because perfbench/src/layers.cpp (3 arguments)
/// and perfbench/src/workloads.cpp (5 arguments) pass nullptr there; the
/// observer overload keeps it so a nullptr third argument stays
/// unambiguous.
BatchItem run_batch_item(const BatchConfig& config, std::size_t index,
                         ThreadPool* /*ignored*/ = nullptr);

/// Like run_batch_item, but additionally hands the successful attempt's
/// full CoSynthesisResult to `observe` (never called when the item
/// failed) — for harnesses that need more than the summarized BatchItem,
/// e.g. the service rendering a schedule-table CSV for a request. The
/// callback runs while the generated graph is still alive; the result
/// (its FlatGraph references the Cpg/Architecture, both locals of the
/// attempt) must NOT escape the callback.
using BatchItemObserver = std::function<void(const CoSynthesisResult&)>;
BatchItem run_batch_item(const BatchConfig& config, std::size_t index,
                         ThreadPool* /*ignored*/,
                         const BatchItemObserver& observe);

/// Like the observer overload, but additionally returns the schedule-table
/// CSV through `table_csv` (ignored when nullptr, left empty for failed
/// items). This is the cache-transparent way to get the CSV: an exact
/// cache hit replays the *recorded* CSV bytes — the observer, which needs
/// a live CoSynthesisResult, is NOT called on a hit (the engine never
/// ran). The service uses this overload for its table_csv responses.
BatchItem run_batch_item(const BatchConfig& config, std::size_t index,
                         ThreadPool* /*ignored*/,
                         const BatchItemObserver& observe,
                         std::string* table_csv);

/// Run the whole batch on the configured thread pool. Per-item failures
/// (generation or validation errors) are captured in the item, not thrown.
BatchResult run_batch(const BatchConfig& config);

struct BatchJsonOptions {
  /// Include wall-clock fields. Disable for byte-identical output across
  /// runs and thread counts (determinism tests, golden files).
  bool include_timing = true;
  /// Include the per-item array, not just config + summary.
  bool include_items = true;
  /// Include the per-item cover_cache and workspace counter blocks. They
  /// are a pure function of the seed for the default cold per-item
  /// workspaces, but with a shared WorkspacePool the workspace block
  /// reflects warm-lease luck — disable when comparing a pooled run
  /// against a cold oracle byte-for-byte (the service's determinism
  /// contract).
  bool include_reuse_counters = true;
  /// Spaces per indentation level (0 = compact).
  int indent = 2;
};

std::string batch_result_to_json(const BatchResult& result,
                                 const BatchJsonOptions& options = {});

/// Serialize one item exactly as it appears in batch_result_to_json's
/// "items" array — into an existing writer (for embedding in a larger
/// document, e.g. a service response) or as a standalone string. The
/// byte-identical service contract rides on this shared serializer: a
/// response item and the run_batch oracle's item are the same bytes.
void write_batch_item_json(JsonWriter& w, const BatchItem& item,
                           const BatchJsonOptions& options);
std::string batch_item_to_json(const BatchItem& item,
                               const BatchJsonOptions& options = {});

}  // namespace cps
