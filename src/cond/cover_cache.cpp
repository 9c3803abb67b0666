#include "cond/cover_cache.hpp"

namespace cps {

std::size_t CoverCache::KeyHash::operator()(const Key& k) const {
  // Mix the guard's address into the context cube's packed hash.
  std::size_t h = k.context.hash();
  h ^= reinterpret_cast<std::size_t>(k.dnf);
  h *= 1099511628211ull;
  return h;
}

void CoverCache::evict_if_full() {
  if (size() < max_entries_) return;
  covered_.clear();
  ++resets_;
}

bool CoverCache::covered(const Dnf& dnf, const Cube& context) {
  Key key{&dnf, context};
  if (const auto it = covered_.find(key); it != covered_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  const bool result = dnf.covered_by_context(context);
  evict_if_full();
  covered_.emplace(std::move(key), result);
  return result;
}

void CoverCache::clear() {
  covered_.clear();
  hits_ = 0;
  misses_ = 0;
  resets_ = 0;
}

}  // namespace cps
