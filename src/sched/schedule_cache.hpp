// ScheduleCache: a content-addressed cross-request memo.
//
// Real request streams repeat graphs; this cache turns repeat traffic into
// O(lookup) (ROADMAP: "content-addressed schedule cache with a persistent
// tier"). It maps a Digest128 over a caller-supplied *key encoding* (the
// canonical graph encoding plus whatever result-affecting context the
// caller appends — see batch_driver's exact-key builder) to the recorded
// result bytes (the batch driver's serialized item + CSV). A hit replays
// the stored bytes without touching the engine. Backed, when `store_dir`
// is set, by a persistent io/store KeyStore so entries survive restarts
// and are shared across processes; corrupt/mismatched store entries are
// counted and degrade to misses.
//
// Collision safety: the digest is only an index. Every entry stores its
// full key encoding and every hit compares it byte-for-byte against the
// caller's; a digest collision therefore degrades to a miss — it is
// impossible to act on.
//
// Eviction mirrors CoverCache: when the in-memory tier crosses its bound
// it is dropped whole (one "reset", no LRU luck); the persistent tier
// keeps the lexicographically smallest keys (KeyStore's bound).
// Thread safety: one mutex serializes all operations (the WorkspacePool
// idiom) — a daemon shares one instance across every worker.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "cpg/canonical.hpp"

namespace cps {

class JsonWriter;
class KeyStore;

struct ScheduleCacheOptions {
  /// In-memory entry bound; crossing it drops the in-memory tier.
  std::size_t max_entries = 4096;
  /// In-memory byte bound (keys + payloads); same policy.
  std::size_t max_bytes = std::size_t{64} << 20;
  /// Directory of the persistent exact tier; empty = in-memory only.
  std::string store_dir;
  /// Entry bound of the persistent tier (KeyStoreOptions::max_entries).
  std::size_t store_max_entries = 4096;
};

struct ScheduleCacheStats {
  std::size_t hits = 0;          ///< exact hits (memory or store)
  std::size_t misses = 0;        ///< exact lookups that found nothing
  std::size_t store_hits = 0;    ///< subset of `hits` served from disk
  std::size_t store_errors = 0;  ///< corrupt store entries (degraded to miss)
  std::size_t insertions = 0;  ///< inserts (incl. write-through)
  std::size_t evictions = 0;   ///< tier resets + persistent-tier evictions
  std::size_t entries = 0;     ///< snapshot: entries in memory
  std::size_t bytes = 0;  ///< snapshot: in-memory bytes (keys+payloads)
};

/// Serialize cache stats as a JSON object body ({hits, misses, ...}) —
/// shared by the batch summary block and the serve stats op so both emit
/// identical schemas.
void write_cache_stats_json(JsonWriter& w, const ScheduleCacheStats& s);

class ScheduleCache {
 public:
  explicit ScheduleCache(ScheduleCacheOptions options = {});
  ~ScheduleCache();

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// `digest` must be digest_of(key_encoding); the split spares hot paths
  /// recomputing it. On hit, copies the recorded payload into *payload
  /// (unless null) and returns true. `accept`, when set, vets the recorded
  /// payload first (the batch driver decodes it): a rejected payload is a
  /// miss, is not promoted from the store into memory, and from the store
  /// counts as a store error. `accept` runs under the cache's lock, so
  /// the hit is counted and promoted only with the bytes it accepted; it
  /// must not call back into the cache.
  bool lookup(const Digest128& digest, std::string_view key_encoding,
              std::string* payload,
              const std::function<bool(std::string_view)>& accept = {});

  /// Record (or overwrite) the payload for a key; writes through to the
  /// persistent tier when one is configured.
  void insert(const Digest128& digest, std::string_view key_encoding,
              std::string_view payload);

  /// Monotonic counters + current-size snapshot.
  ScheduleCacheStats stats() const;

  bool has_store() const { return store_ != nullptr; }
  const ScheduleCacheOptions& options() const { return options_; }

 private:
  struct ExactEntry {
    std::string key;  ///< full key encoding, verified on every hit
    std::string payload;
  };

  /// Unlocked helpers (callers hold mu_).
  void insert_memory(const Digest128& digest, std::string_view key_encoding,
                     std::string_view payload);

  ScheduleCacheOptions options_;
  mutable std::mutex mu_;
  std::unique_ptr<KeyStore> store_;
  std::map<Digest128, ExactEntry> exact_;
  std::size_t exact_bytes_ = 0;
  ScheduleCacheStats counters_;  ///< monotonic part only
};

}  // namespace cps
