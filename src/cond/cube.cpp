#include "cond/cube.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace cps {

void Cube::set_unchecked(Literal l) {
  if (l.cond < kPackedBits) {
    (l.value ? pos_ : neg_) |= std::uint64_t{1} << l.cond;
  } else {
    wide_.insert(std::upper_bound(wide_.begin(), wide_.end(), l), l);
  }
}

Cube::Cube(const std::vector<Literal>& lits) {
  for (const Literal& l : lits) set_unchecked(l);
  CPS_REQUIRE((pos_ & neg_) == 0,
              "contradictory literals in cube constructor");
  if (!wide_.empty()) {
    wide_.erase(std::unique(wide_.begin(), wide_.end()), wide_.end());
    for (std::size_t i = 1; i < wide_.size(); ++i) {
      CPS_REQUIRE(wide_[i - 1].cond != wide_[i].cond,
                  "contradictory literals in cube constructor");
    }
  }
}

Cube Cube::from_masks(std::uint64_t pos, std::uint64_t neg) {
  CPS_ASSERT((pos & neg) == 0, "contradictory masks in Cube::from_masks");
  Cube out;
  out.pos_ = pos;
  out.neg_ = neg;
  return out;
}

std::vector<Literal> Cube::literals() const {
  std::vector<Literal> out;
  out.reserve(size());
  for_each([&out](Literal l) { out.push_back(l); });
  return out;
}

std::optional<bool> Cube::value_of(CondId cond) const {
  if (cond < kPackedBits) {
    const std::uint64_t bit = std::uint64_t{1} << cond;
    if (pos_ & bit) return true;
    if (neg_ & bit) return false;
    return std::nullopt;
  }
  const auto it = std::lower_bound(wide_.begin(), wide_.end(),
                                   Literal{cond, false});
  if (it != wide_.end() && it->cond == cond) return it->value;
  return std::nullopt;
}

std::optional<Cube> Cube::conjoin(Literal l) const {
  if (l.cond < kPackedBits) {
    const std::uint64_t bit = std::uint64_t{1} << l.cond;
    if ((l.value ? neg_ : pos_) & bit) return std::nullopt;
    Cube out = *this;
    (l.value ? out.pos_ : out.neg_) |= bit;
    return out;
  }
  if (auto v = value_of(l.cond)) {
    if (*v != l.value) return std::nullopt;
    return *this;
  }
  Cube out = *this;
  out.wide_.insert(
      std::upper_bound(out.wide_.begin(), out.wide_.end(), l), l);
  return out;
}

std::optional<Cube> Cube::conjoin(const Cube& other) const {
  if ((pos_ & other.neg_) != 0 || (neg_ & other.pos_) != 0) {
    return std::nullopt;
  }
  Cube out;
  out.pos_ = pos_ | other.pos_;
  out.neg_ = neg_ | other.neg_;
  if (wide_.empty()) {
    out.wide_ = other.wide_;
    return out;
  }
  if (other.wide_.empty()) {
    out.wide_ = wide_;
    return out;
  }
  // Sorted merge of the wide tails, rejecting opposite polarities.
  out.wide_.reserve(wide_.size() + other.wide_.size());
  auto a = wide_.begin();
  auto b = other.wide_.begin();
  while (a != wide_.end() && b != other.wide_.end()) {
    if (a->cond == b->cond) {
      if (a->value != b->value) return std::nullopt;
      out.wide_.push_back(*a);
      ++a;
      ++b;
    } else if (a->cond < b->cond) {
      out.wide_.push_back(*a++);
    } else {
      out.wide_.push_back(*b++);
    }
  }
  out.wide_.insert(out.wide_.end(), a, wide_.end());
  out.wide_.insert(out.wide_.end(), b, other.wide_.end());
  return out;
}

bool Cube::wide_compatible(const Cube& other) const {
  auto a = wide_.begin();
  auto b = other.wide_.begin();
  while (a != wide_.end() && b != other.wide_.end()) {
    if (a->cond == b->cond) {
      if (a->value != b->value) return false;
      ++a;
      ++b;
    } else if (a->cond < b->cond) {
      ++a;
    } else {
      ++b;
    }
  }
  return true;
}

bool Cube::wide_implies(const Cube& other) const {
  return std::includes(wide_.begin(), wide_.end(), other.wide_.begin(),
                       other.wide_.end());
}

Cube Cube::without(CondId cond) const {
  Cube out = *this;
  if (cond < kPackedBits) {
    const std::uint64_t bit = std::uint64_t{1} << cond;
    out.pos_ &= ~bit;
    out.neg_ &= ~bit;
    return out;
  }
  const auto it = std::lower_bound(out.wide_.begin(), out.wide_.end(),
                                   Literal{cond, false});
  if (it != out.wide_.end() && it->cond == cond) out.wide_.erase(it);
  return out;
}

bool Cube::conditions_subset_of(const Cube& other) const {
  if ((mention_bits() & ~other.mention_bits()) != 0) return false;
  for (const Literal& l : wide_) {
    if (!other.mentions(l.cond)) return false;
  }
  return true;
}

std::size_t Cube::hash() const {
  // FNV-1a over the packed words and the wide literals.
  std::size_t h = 1469598103934665603ull;
  const auto mix = [&h](std::size_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::size_t>(pos_));
  mix(static_cast<std::size_t>(neg_));
  for (const Literal& l : wide_) {
    mix((static_cast<std::size_t>(l.cond) << 1) | (l.value ? 1u : 0u));
  }
  return h;
}

bool operator<(const Cube& a, const Cube& b) {
  const std::uint64_t ma = a.pos_ | a.neg_;
  const std::uint64_t mb = b.pos_ | b.neg_;
  // Lowest condition where the packed literal streams diverge: mentioned
  // by only one cube, or mentioned by both with opposite polarity.
  const std::uint64_t diff = (ma ^ mb) | ((a.pos_ ^ b.pos_) & ma & mb);
  if (diff != 0) {
    const int c = __builtin_ctzll(diff);
    const bool a_has = ((ma >> c) & 1) != 0;
    const bool b_has = ((mb >> c) & 1) != 0;
    if (a_has && b_has) {
      // Same position, opposite polarity: false orders before true.
      return ((a.neg_ >> c) & 1) != 0;
    }
    // The prefixes below c are identical. The cube mentioning c continues
    // with (c, v); the other continues with a larger condition — or ends,
    // making it a proper prefix (and therefore the smaller cube).
    const std::uint64_t above = c == 63 ? 0 : (~std::uint64_t{0} << (c + 1));
    if (a_has) return ((mb & above) != 0) || !b.wide_.empty();
    return ((ma & above) == 0) && a.wide_.empty();
  }
  return a.wide_ < b.wide_;
}

std::string Cube::to_string(
    const std::function<std::string(CondId)>& name) const {
  std::string out;
  append_to(out, name);
  return out;
}

std::string Cube::to_string() const {
  return to_string(
      [](CondId c) { return "c" + std::to_string(c); });
}

}  // namespace cps
