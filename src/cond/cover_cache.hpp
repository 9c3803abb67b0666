// CoverCache: memoization of DNF/cube intersection queries.
//
// The list scheduler asks `guard.covered_by_context(known)` for every
// ready-task candidate at every scheduling step, and the table merge
// re-asks the same questions for every adjusted path. The set of distinct
// (guard, context) pairs per co-synthesis is tiny compared to the number
// of queries, so a hash map keyed by the guard's identity and the context
// cube turns the repeated Shannon expansions into O(1) lookups. Contexts
// are packed cubes, so keys are allocation-free and hash in O(1) for
// models within the 64-condition fast path.
//
// The memo map is bounded: when the entry count reaches `max_entries` the
// map is cleared (a deterministic, query-sequence-driven reset counted in
// `resets`), so long batch runs cannot grow it without limit.
//
// Keys use the *address* of the Dnf: guards live inside FlatGraph's task
// vector and are stable for the graph's lifetime. The cache must not
// outlive the FlatGraph it memoizes and is not thread-safe; use one cache
// per engine/merge invocation (the batch driver gives each worker its own
// graphs, so a cache is never shared across threads).
#pragma once

#include <cstddef>
#include <unordered_map>

#include "cond/dnf.hpp"

namespace cps {

/// Counter snapshot surfaced through scheduler stats (driver, batch JSON).
struct CoverCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;  ///< live memo entries at snapshot time
  std::size_t resets = 0;   ///< size-cap evictions of the whole map
};

class CoverCache {
 public:
  /// Default entry cap: ~32 bytes/entry keeps the memo under ~8 MiB.
  static constexpr std::size_t kDefaultMaxEntries = std::size_t{1} << 18;

  explicit CoverCache(std::size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  /// Memoized `dnf.covered_by_context(context)`.
  bool covered(const Dnf& dnf, const Cube& context);

  /// Memoized `dnf.and_cube(context).is_false()` (disjointness test).
  bool disjoint(const Dnf& dnf, const Cube& context);

  std::size_t size() const { return covered_.size() + disjoint_.size(); }
  std::size_t max_entries() const { return max_entries_; }
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  std::size_t resets() const { return resets_; }
  CoverCacheStats stats() const {
    return CoverCacheStats{hits_, misses_, size(), resets_};
  }
  void clear();

 private:
  struct Key {
    const Dnf* dnf = nullptr;
    Cube context;

    bool operator==(const Key& other) const {
      return dnf == other.dnf && context == other.context;
    }
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  /// Deterministic size-cap enforcement, called before every insert.
  void evict_if_full();

  std::unordered_map<Key, bool, KeyHash> covered_;
  std::unordered_map<Key, bool, KeyHash> disjoint_;
  std::size_t max_entries_ = kDefaultMaxEntries;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t resets_ = 0;
};

}  // namespace cps
