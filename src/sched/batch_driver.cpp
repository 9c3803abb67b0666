#include "sched/batch_driver.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "io/table_csv.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace cps {

namespace {

using clock_type = std::chrono::steady_clock;

double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void add_item_stats(BatchSummary& s, const BatchItem& item) {
  ++s.count;
  s.retries += item.retries;
  if (!item.ok) {
    if (item.code == ErrorCode::kDeadlineExceeded) ++s.timeouts;
    if (item.code == ErrorCode::kCancelled) ++s.cancelled;
    return;
  }
  ++s.ok_count;
  s.delta_m.add(static_cast<double>(item.delta_m));
  s.delta_max.add(static_cast<double>(item.delta_max));
  s.increase_percent.add(item.increase_percent);
  s.tasks.add(static_cast<double>(item.tasks));
  s.paths.add(static_cast<double>(item.paths));
  s.table_entries.add(static_cast<double>(item.table_entries));
  s.expand_ms.add(item.expand_ms);
  s.enumerate_ms.add(item.enumerate_ms);
  s.schedule_ms.add(item.schedule_ms);
  s.merge_ms.add(item.merge_ms);
  s.validate_ms.add(item.validate_ms);
  s.total_ms.add(item.total_ms);
}

void write_stat(JsonWriter& w, const std::string& name,
                const StatAccumulator& acc) {
  w.key(name).begin_object();
  w.field("count", acc.count());
  if (!acc.empty()) {
    w.field("mean", acc.mean());
    w.field("stddev", acc.stddev());
    w.field("min", acc.min());
    w.field("max", acc.max());
    w.field("median", acc.median());
  }
  w.end_object();
}

}  // namespace

void write_batch_item_json(JsonWriter& w, const BatchItem& item,
                           const BatchJsonOptions& options) {
  w.begin_object();
  w.field("index", item.index);
  w.field("seed", item.seed);
  w.field("ok", item.ok);
  if (!item.ok) {
    // Typed code first: tooling switches on it; the message is for humans.
    w.field("error_code", to_string(item.code));
    w.field("error", item.error);
    w.field("attempts", item.attempts);
    w.end_object();
    return;
  }
  // Successful items serialize their status (kOk, or kPathBudgetExceeded
  // for bounded coverage) but never their attempt/retry counters: a
  // transiently-faulted item that succeeded on retry must stay
  // byte-identical to the same item in a never-faulted run.
  w.field("status", to_string(item.code));
  if (item.code != ErrorCode::kOk) {
    w.field("coverage", item.coverage);
    w.field("total_leaves", item.total_leaves);
  }
  w.field("processes", item.processes);
  w.field("tasks", item.tasks);
  w.field("conditions", item.conditions);
  w.field("paths", item.paths);
  w.field("table_entries", item.table_entries);
  w.field("delta_m", static_cast<std::int64_t>(item.delta_m));
  w.field("delta_max", static_cast<std::int64_t>(item.delta_max));
  w.field("increase_percent", item.increase_percent);
  const MergeStats& stats = item.merge;
  w.key("merge").begin_object();
  w.field("backsteps", stats.backsteps);
  w.field("adjustments", stats.adjustments);
  w.field("locks", stats.locks);
  w.field("conflicts", stats.conflicts);
  w.field("conflict_moves", stats.conflict_moves);
  w.field("unresolved_conflicts", stats.unresolved_conflicts);
  w.field("relaxed_locks", stats.relaxed_locks);
  w.field("column_clashes", stats.column_clashes);
  // Always 0; still written so serve responses keep their bytes (see
  // MergeStats).
  w.field("speculative_hits", stats.speculative_hits);
  w.field("speculative_misses", stats.speculative_misses);
  w.end_object();
  if (options.include_reuse_counters) {
    w.key("cover_cache").begin_object();
    w.field("hits", item.cover_cache.hits);
    w.field("misses", item.cover_cache.misses);
    w.field("entries", item.cover_cache.entries);
    w.field("resets", item.cover_cache.resets);
    w.end_object();
    w.key("workspace").begin_object();
    w.field("runs", item.workspace.runs);
    w.field("reuse_hits", item.workspace.reuse_hits);
    w.end_object();
  }
  if (options.include_timing) {
    w.key("timing_ms").begin_object();
    w.field("expand", item.expand_ms);
    w.field("enumerate", item.enumerate_ms);
    w.field("schedule", item.schedule_ms);
    w.field("merge", item.merge_ms);
    w.field("validate", item.validate_ms);
    w.field("total", item.total_ms);
    w.end_object();
  }
  w.end_object();
}

std::string batch_item_to_json(const BatchItem& item,
                               const BatchJsonOptions& options) {
  JsonWriter w(options.indent);
  write_batch_item_json(w, item, options);
  return w.str();
}

namespace {

/// Deterministic retry backoff: a pure function of the item seed and the
/// (0-based) attempt that just failed — never of the clock — so retry
/// schedules reproduce exactly. Exponential from a small seed-derived
/// base, capped at 8 ms.
std::uint64_t retry_backoff_ms(std::uint64_t seed, std::size_t attempt) {
  const std::uint64_t base = 1 + (seed & 3);
  const std::uint64_t shifted =
      attempt < 8 ? base << attempt : std::uint64_t{8};
  return std::min<std::uint64_t>(shifted, 8);
}

// ---- Schedule-cache exact tier: key encoding + payload codec ----------
//
// The exact key is the canonical graph encoding followed by every option
// field that affects a *serialized item*: the schedule/table (priority
// policy, merge order, seeds, path budget). Interrupt limits (deadline,
// step budget, cancel) are deliberately absent — a tripped item is never
// ok, and only ok items are cached. Index and seed are absent too: that is
// the point of content addressing — the same graph requested under a
// different index replays the same result.

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t read_u64(std::string_view in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[at + i]))
         << (8 * i);
  }
  return v;
}

std::string exact_key_encoding(const Cpg& g,
                               const CoSynthesisOptions& synthesis) {
  std::string key = canonical_encoding(g);
  key.append("OPT5");
  const auto u8 = [&key](std::uint8_t v) {
    key.push_back(static_cast<char>(v));
  };
  u8(static_cast<std::uint8_t>(synthesis.path_priority));
  u8(static_cast<std::uint8_t>(synthesis.merge.selection));
  u8(synthesis.merge.trace ? 1 : 0);
  u8(synthesis.validate ? 1 : 0);
  u8(static_cast<std::uint8_t>(synthesis.on_budget));
  append_u64(key, synthesis.merge.random_seed);
  append_u64(key, effective_max_paths(synthesis));
  return key;
}

// Payload: every result field of an ok BatchItem (doubles as IEEE bit
// patterns for exact round-trips) plus the rendered CSV. Identity fields
// (index, seed) and attempt/timing fields are excluded — the former come
// from the replaying request, the latter are wall-clock.
constexpr std::uint64_t kPayloadVersion = 4;

std::string encode_cached_item(const BatchItem& item, std::string_view csv) {
  std::string out;
  append_u64(out, kPayloadVersion);
  out.push_back(static_cast<char>(item.code));
  const auto bits = [&out](double d) {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(d), "IEEE-754 double expected");
    std::memcpy(&b, &d, sizeof(b));
    append_u64(out, b);
  };
  bits(item.coverage);
  append_u64(out, item.total_leaves);
  append_u64(out, item.processes);
  append_u64(out, item.tasks);
  append_u64(out, item.conditions);
  append_u64(out, item.paths);
  append_u64(out, item.table_entries);
  append_u64(out, static_cast<std::uint64_t>(item.delta_m));
  append_u64(out, static_cast<std::uint64_t>(item.delta_max));
  bits(item.increase_percent);
  const MergeStats& stats = item.merge;
  append_u64(out, stats.backsteps);
  append_u64(out, stats.adjustments);
  append_u64(out, stats.locks);
  append_u64(out, stats.conflicts);
  append_u64(out, stats.conflict_moves);
  append_u64(out, stats.unresolved_conflicts);
  append_u64(out, stats.relaxed_locks);
  append_u64(out, stats.column_clashes);
  append_u64(out, stats.speculative_hits);
  append_u64(out, stats.speculative_misses);
  append_u64(out, item.cover_cache.hits);
  append_u64(out, item.cover_cache.misses);
  append_u64(out, item.cover_cache.entries);
  append_u64(out, item.cover_cache.resets);
  append_u64(out, item.workspace.runs);
  append_u64(out, item.workspace.reuse_hits);
  append_u64(out, csv.size());
  out.append(csv);
  return out;
}

bool decode_cached_item(std::string_view in, BatchItem* item,
                        std::string* csv) {
  // Every read is bounds-checked, so the shortest payload accepted is
  // exactly the fields read: u64 version, code byte, 26 u64 scalars and
  // the u64 CSV length (225 bytes). A short payload reads as zeros and is
  // rejected below.
  std::size_t at = 0;
  bool truncated = false;
  const auto u64 = [&] {
    if (in.size() - at < 8) {
      truncated = true;
      return std::uint64_t{0};
    }
    const std::uint64_t v = read_u64(in, at);
    at += 8;
    return v;
  };
  if (u64() != kPayloadVersion || at == in.size()) return false;
  item->code = static_cast<ErrorCode>(static_cast<unsigned char>(in[at]));
  at += 1;
  const auto dbl = [&] {
    const std::uint64_t b = u64();
    double d;
    std::memcpy(&d, &b, sizeof(d));
    return d;
  };
  item->ok = true;
  item->coverage = dbl();
  item->total_leaves = u64();
  item->processes = u64();
  item->tasks = u64();
  item->conditions = u64();
  item->paths = u64();
  item->table_entries = u64();
  item->delta_m = static_cast<Time>(u64());
  item->delta_max = static_cast<Time>(u64());
  item->increase_percent = dbl();
  MergeStats& stats = item->merge;
  stats.backsteps = u64();
  stats.adjustments = u64();
  stats.locks = u64();
  stats.conflicts = u64();
  stats.conflict_moves = u64();
  stats.unresolved_conflicts = u64();
  stats.relaxed_locks = u64();
  stats.column_clashes = u64();
  stats.speculative_hits = u64();
  stats.speculative_misses = u64();
  item->cover_cache.hits = u64();
  item->cover_cache.misses = u64();
  item->cover_cache.entries = u64();
  item->cover_cache.resets = u64();
  item->workspace.runs = u64();
  item->workspace.reuse_hits = u64();
  const std::uint64_t csv_len = u64();
  if (truncated || in.size() - at != csv_len) return false;
  csv->assign(in.substr(at));
  return true;
}

}  // namespace

BatchItem run_batch_item(const BatchConfig& config, std::size_t index,
                         ThreadPool* /*ignored*/) {
  return run_batch_item(config, index, nullptr, nullptr, nullptr);
}

BatchItem run_batch_item(const BatchConfig& config, std::size_t index,
                         ThreadPool* /*ignored*/,
                         const BatchItemObserver& observe) {
  return run_batch_item(config, index, nullptr, observe, nullptr);
}

BatchItem run_batch_item(const BatchConfig& config, std::size_t index,
                         ThreadPool* /*ignored*/,
                         const BatchItemObserver& observe,
                         std::string* table_csv) {
  BatchItem item;
  item.index = index;
  item.seed = config.base_seed + index;
  const auto t_begin = clock_type::now();
  const std::size_t max_attempts = 1 + config.max_retries;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    ++item.attempts;
    // One budget per attempt: a fresh deadline per retry (a timed-out
    // attempt would otherwise make every retry trip instantly), the
    // shared batch cancel token, and the caller's step/path limits.
    RunBudget budget;
    budget.token = config.cancel;
    if (config.deadline_ms > 0.0) {
      budget.set_deadline_after(config.deadline_ms);
    }
    if (config.synthesis.budget != nullptr) {
      budget.max_steps = config.synthesis.budget->max_steps;
      budget.max_paths = config.synthesis.budget->max_paths;
    }
    const bool own_budget = config.cancel != nullptr ||
                            config.deadline_ms > 0.0 ||
                            config.synthesis.budget != nullptr;
    try {
      // Fail fast on a cancelled batch: not-yet-started items report
      // kCancelled without generating their graphs.
      if (config.cancel != nullptr && config.cancel->cancelled()) {
        throw CancelledError("batch cancelled");
      }
      CPS_FAULT_POINT("batch.item");
      Rng rng(item.seed);
      const Architecture arch = generate_random_architecture(rng, config.arch);
      const Cpg g = generate_random_cpg(arch, config.cpg, rng);

      // Items do not retain their path vectors — thousand-graph batches
      // would otherwise carry O(paths × depth) dead weight apiece.
      CoSynthesisOptions synthesis = config.synthesis;
      synthesis.keep_paths = false;
      synthesis.budget = own_budget ? &budget : nullptr;

      // Exact-tier lookup: the key is the canonical graph encoding plus
      // the post-override options (what actually runs), so a hit replays
      // the recorded item + CSV without touching the engine. The cache
      // verifies the full key encoding byte-for-byte — a digest collision
      // degrades to a miss, never to a wrong result — and counts a hit
      // only once the payload decodes; an undecodable one (foreign
      // writer?) is a miss, recomputed and replaced below.
      std::string cache_key;
      Digest128 cache_digest;
      if (config.cache != nullptr) {
        cache_key = exact_key_encoding(g, synthesis);
        cache_digest = digest_of(cache_key);
        std::string csv;
        BatchItem cached;
        const auto decodes = [&](std::string_view payload) {
          return decode_cached_item(payload, &cached, &csv);
        };
        if (config.cache->lookup(cache_digest, cache_key, nullptr, decodes)) {
          cached.index = item.index;
          cached.seed = item.seed;
          cached.attempts = item.attempts;
          cached.retries = item.retries;
          cached.backoff_ms = item.backoff_ms;
          if (table_csv != nullptr) *table_csv = std::move(csv);
          cached.total_ms = ms_between(t_begin, clock_type::now());
          return cached;
        }
      }

      const CoSynthesisResult result = schedule_cpg(g, synthesis);

      item.ok = true;
      item.code = result.status;  // kOk, or kPathBudgetExceeded (bounded)
      item.error.clear();
      item.coverage = result.coverage;
      item.total_leaves = result.total_leaves;
      item.processes = g.process_count();
      item.tasks = result.flat->task_count();
      item.conditions = g.conditions().size();
      item.paths = result.path_count;
      item.table_entries = result.table.entry_count();
      item.delta_m = result.delays.delta_m;
      item.delta_max = result.delays.delta_max;
      item.increase_percent = result.delays.increase_percent;
      item.merge = result.merge_stats;
      item.cover_cache = result.cover_cache;
      item.workspace = result.workspace;
      item.expand_ms = result.timings.expand_ms;
      item.enumerate_ms = result.timings.enumerate_ms;
      item.schedule_ms = result.timings.schedule_ms;
      item.merge_ms = result.timings.merge_ms;
      item.validate_ms = result.timings.validate_ms;
      // Render the CSV while the table is alive. Cached payloads always
      // carry it (a later request for the same graph may ask for CSV even
      // though this one did not); ~tens of bytes per table entry.
      std::string csv;
      if (config.cache != nullptr || table_csv != nullptr) {
        csv = table_csv_string(result.table);
      }
      if (config.cache != nullptr) {
        config.cache->insert(cache_digest, cache_key,
                             encode_cached_item(item, csv));
      }
      if (table_csv != nullptr) *table_csv = std::move(csv);
      // While `g`/`arch` are alive: the result's FlatGraph points at them.
      if (observe) observe(result);
      break;
    } catch (const InjectedFault& e) {
      item.ok = false;
      item.code = ErrorCode::kInjectedFault;
      item.error = e.what();
      if (e.transient() && attempt + 1 < max_attempts) {
        const std::uint64_t backoff = retry_backoff_ms(item.seed, attempt);
        item.backoff_ms += backoff;
        ++item.retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        continue;
      }
      break;
    } catch (const Error& e) {
      item.ok = false;
      item.code = e.code();
      item.error = e.what();
      break;
    } catch (const std::exception& e) {
      item.ok = false;
      item.code = ErrorCode::kInternal;
      item.error = e.what();
      break;
    }
  }
  item.total_ms = ms_between(t_begin, clock_type::now());
  return item;
}

BatchResult run_batch(const BatchConfig& config) {
  BatchResult result;
  result.config = config;
  result.items.resize(config.count);

  std::size_t threads = ThreadPool::resolve_threads(config.threads);
  threads = std::min(threads, std::max<std::size_t>(config.count, 1));

  const auto t_begin = clock_type::now();
  if (config.count > 0) {
    if (threads <= 1) {
      // Serial reference: no pool at all.
      for (std::size_t i = 0; i < config.count; ++i) {
        result.items[i] = run_batch_item(config, i);
      }
    } else {
      // Whole items are the unit of parallelism. The calling thread
      // participates in parallel_for, so the pool only needs threads - 1
      // workers to reach the requested parallelism.
      ThreadPool pool(threads - 1);
      pool.parallel_for(config.count, [&](std::size_t i) {
        result.items[i] = run_batch_item(config, i);
      });
    }
  }
  result.summary.wall_ms = ms_between(t_begin, clock_type::now());
  if (config.cache != nullptr) {
    result.summary.cache_enabled = true;
    result.summary.cache = config.cache->stats();
  }

  for (const BatchItem& item : result.items) {
    add_item_stats(result.summary, item);
  }
  if (result.summary.wall_ms > 0.0) {
    result.summary.graphs_per_second =
        1000.0 * static_cast<double>(result.summary.ok_count) /
        result.summary.wall_ms;
  }
  return result;
}

std::string batch_result_to_json(const BatchResult& result,
                                 const BatchJsonOptions& options) {
  const BatchSummary& s = result.summary;
  JsonWriter w(options.indent);
  w.begin_object();

  w.key("config").begin_object();
  w.field("count", result.config.count);
  w.field("base_seed", result.config.base_seed);
  w.field("processes", result.config.cpg.process_count);
  w.field("paths", result.config.cpg.path_count);
  w.field("distribution", to_string(result.config.cpg.distribution));
  w.field("path_selection",
          to_string(result.config.synthesis.merge.selection));
  w.field("validate", result.config.synthesis.validate);
  w.end_object();

  w.key("summary").begin_object();
  w.field("count", s.count);
  w.field("ok", s.ok_count);
  w.field("timeouts", s.timeouts);
  w.field("cancelled", s.cancelled);
  w.field("retries", s.retries);
  write_stat(w, "delta_m", s.delta_m);
  write_stat(w, "delta_max", s.delta_max);
  write_stat(w, "increase_percent", s.increase_percent);
  write_stat(w, "tasks", s.tasks);
  write_stat(w, "paths", s.paths);
  write_stat(w, "table_entries", s.table_entries);
  if (options.include_timing) {
    w.field("wall_ms", s.wall_ms);
    w.field("graphs_per_second", s.graphs_per_second);
    w.key("stage_ms").begin_object();
    write_stat(w, "expand", s.expand_ms);
    write_stat(w, "enumerate", s.enumerate_ms);
    write_stat(w, "schedule", s.schedule_ms);
    write_stat(w, "merge", s.merge_ms);
    write_stat(w, "validate", s.validate_ms);
    write_stat(w, "total", s.total_ms);
    w.end_object();
    // Schedule-cache counters ride the include_timing gate: deterministic
    // for an isolated batch, but a shared (daemon) cache carries earlier
    // traffic.
    if (s.cache_enabled) {
      w.key("cache").begin_object();
      write_cache_stats_json(w, s.cache);
      w.end_object();
    }
  }
  w.end_object();

  if (options.include_items) {
    w.key("items").begin_array();
    for (const BatchItem& item : result.items) {
      write_batch_item_json(w, item, options);
    }
    w.end_array();
  }

  w.end_object();
  return w.str() + "\n";
}

}  // namespace cps
