#include "sched/schedule_cache.hpp"

#include "io/store.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace cps {
namespace {

// Persistent entries prepend the full key encoding so a reader can verify
// content identity (not just the digest-derived filename):
//   key_len(u64 LE) | key_encoding | payload.
std::string frame_store_payload(std::string_view key,
                                std::string_view payload) {
  std::string out;
  out.reserve(8 + key.size() + payload.size());
  const std::uint64_t len = key.size();
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  out.append(key);
  out.append(payload);
  return out;
}

/// Split a framed store payload; false when structurally malformed.
bool parse_store_payload(std::string_view blob, std::string_view* key,
                         std::string_view* payload) {
  if (blob.size() < 8) return false;
  std::uint64_t len = 0;
  for (int i = 0; i < 8; ++i) {
    len |= static_cast<std::uint64_t>(static_cast<unsigned char>(blob[i]))
           << (8 * i);
  }
  if (blob.size() - 8 < len) return false;
  *key = blob.substr(8, len);
  *payload = blob.substr(8 + len);
  return true;
}

}  // namespace

void write_cache_stats_json(JsonWriter& w, const ScheduleCacheStats& s) {
  w.field("hits", s.hits);
  w.field("misses", s.misses);
  w.field("store_hits", s.store_hits);
  w.field("store_errors", s.store_errors);
  // Always 0: there is no prefix tier. Still written because
  // perfbench/src/serve.cpp reads both from the serve stats op.
  w.field("prefix_hits", std::size_t{0});
  w.field("prefix_misses", std::size_t{0});
  w.field("insertions", s.insertions);
  w.field("evictions", s.evictions);
  w.field("entries", s.entries);
  w.field("bytes", s.bytes);
}

ScheduleCache::ScheduleCache(ScheduleCacheOptions options)
    : options_(std::move(options)) {
  if (!options_.store_dir.empty()) {
    KeyStoreOptions store_options;
    store_options.root = options_.store_dir;
    store_options.max_entries = options_.store_max_entries;
    store_ = std::make_unique<KeyStore>(std::move(store_options));
  }
}

ScheduleCache::~ScheduleCache() = default;

bool ScheduleCache::lookup(
    const Digest128& digest, std::string_view key_encoding,
    std::string* payload,
    const std::function<bool(std::string_view)>& accept) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = exact_.find(digest);
  if (it != exact_.end() && it->second.key == key_encoding) {
    if (accept && !accept(it->second.payload)) {
      ++counters_.misses;
      return false;
    }
    ++counters_.hits;
    if (payload != nullptr) *payload = it->second.payload;
    return true;
  }
  if (store_ != nullptr) {
    try {
      if (auto blob = store_->get(digest.hex())) {
        std::string_view stored_key, stored_payload;
        if (!parse_store_payload(*blob, &stored_key, &stored_payload)) {
          throw StoreCorruptError("schedule-cache entry frame malformed: " +
                                  digest.hex());
        }
        if (stored_key == key_encoding) {
          if (accept && !accept(stored_payload)) {
            throw StoreCorruptError("schedule-cache entry payload rejected: " +
                                    digest.hex());
          }
          ++counters_.hits;
          ++counters_.store_hits;
          if (payload != nullptr) payload->assign(stored_payload);
          // Promote so the next repeat skips the disk round-trip.
          insert_memory(digest, stored_key, stored_payload);
          return true;
        }
        // Digest collision against a valid entry: impossible to act on —
        // fall through to a miss (and do not overwrite the entry here;
        // insert() after recompute makes the last writer win).
      }
    } catch (const Error& e) {
      if (e.code() != ErrorCode::kStoreCorrupt) throw;
      ++counters_.store_errors;  // degrade to a miss, recompute
    }
  }
  ++counters_.misses;
  return false;
}

void ScheduleCache::insert_memory(const Digest128& digest,
                                  std::string_view key_encoding,
                                  std::string_view payload) {
  auto [it, inserted] = exact_.try_emplace(digest);
  if (!inserted)
    exact_bytes_ -= it->second.key.size() + it->second.payload.size();
  it->second.key.assign(key_encoding);
  it->second.payload.assign(payload);
  exact_bytes_ += key_encoding.size() + payload.size();
  if ((options_.max_entries != 0 && exact_.size() > options_.max_entries) ||
      (options_.max_bytes != 0 && exact_bytes_ > options_.max_bytes)) {
    // CoverCache's policy: drop the whole tier, deterministically.
    exact_.clear();
    exact_bytes_ = 0;
    ++counters_.evictions;
  }
}

void ScheduleCache::insert(const Digest128& digest,
                           std::string_view key_encoding,
                           std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.insertions;
  insert_memory(digest, key_encoding, payload);
  if (store_ != nullptr) {
    counters_.evictions +=
        store_->put(digest.hex(), frame_store_payload(key_encoding, payload));
  }
}

ScheduleCacheStats ScheduleCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ScheduleCacheStats s = counters_;
  s.entries = exact_.size();
  s.bytes = exact_bytes_;
  return s;
}

}  // namespace cps
