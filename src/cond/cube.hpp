// Cube: a conjunction of condition literals.
//
// Cubes are the workhorse of the scheduler: path labels, decided-condition
// prefixes of the decision tree and schedule-table column headers are all
// cubes. The empty cube is the constant `true`.
//
// Representation: conditions with id < kPackedBits (64 — the same limit the
// engine's mention masks assume) live in an inline pos/neg bitmask pair, so
// conjoin / compatible / implies / hashing are a couple of word operations
// and carry no heap allocation. Larger condition ids overflow into a sorted
// literal vector (`wide` literals); every operation handles the mixed case,
// so models beyond 64 conditions keep working through the slow path and the
// two representations are equivalence-tested against each other.
//
// Invariant: a condition appears at most once (never in both pos and neg
// masks, never twice in the wide vector); a cube is therefore always
// satisfiable. Comparison and rendering order literals by condition id,
// exactly as the historical sorted-vector representation did.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cond/condition.hpp"

namespace cps {

class Cube {
 public:
  /// Largest condition id (exclusive) held in the packed masks; ids at or
  /// beyond it take the sorted-vector slow path.
  static constexpr CondId kPackedBits = 64;

  /// The empty conjunction, i.e. constant true.
  Cube() = default;

  /// Single-literal cube.
  explicit Cube(Literal l) { set_unchecked(l); }

  /// Build from arbitrary literals. Throws InvalidArgument if two literals
  /// contradict each other (use conjoin for a non-throwing combination).
  explicit Cube(const std::vector<Literal>& lits);

  static Cube top() { return Cube{}; }

  /// Cube from packed masks. `pos` and `neg` must be disjoint (the caller
  /// guarantees satisfiability; e.g. the engine's knowledge words).
  static Cube from_masks(std::uint64_t pos, std::uint64_t neg);

  bool is_true() const { return (pos_ | neg_) == 0 && wide_.empty(); }
  std::size_t size() const {
    return static_cast<std::size_t>(__builtin_popcountll(pos_ | neg_)) +
           wide_.size();
  }

  /// True when every mentioned condition fits the packed masks (no wide
  /// literals); the O(1) fast paths below are exact exactly then.
  bool narrow() const { return wide_.empty(); }

  /// Packed masks (conditions < kPackedBits only; wide literals excluded).
  std::uint64_t pos_bits() const { return pos_; }
  std::uint64_t neg_bits() const { return neg_; }
  std::uint64_t mention_bits() const { return pos_ | neg_; }

  /// Literals in condition order, materialized on demand. Hot paths should
  /// use the masks or for_each() instead.
  std::vector<Literal> literals() const;

  /// Visit every literal in condition order without materializing a vector.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::uint64_t rest = pos_ | neg_;
    while (rest != 0) {
      const int c = __builtin_ctzll(rest);
      rest &= rest - 1;
      fn(Literal{static_cast<CondId>(c), ((pos_ >> c) & 1) != 0});
    }
    for (const Literal& l : wide_) fn(l);
  }

  /// Polarity of `cond` in this cube, or nullopt if unconstrained.
  std::optional<bool> value_of(CondId cond) const;
  bool mentions(CondId cond) const {
    if (cond < kPackedBits) return ((pos_ | neg_) >> cond) & 1;
    return value_of(cond).has_value();
  }

  /// Conjunction with a literal; nullopt if the result is contradictory.
  std::optional<Cube> conjoin(Literal l) const;

  /// Conjunction with another cube; nullopt if contradictory.
  std::optional<Cube> conjoin(const Cube& other) const;

  /// True when the two cubes agree on every shared condition, i.e. their
  /// conjunction is satisfiable. The paper's column-conflict test (§5.2)
  /// is `compatible && different start times`.
  bool compatible(const Cube& other) const {
    if ((pos_ & other.neg_) != 0 || (neg_ & other.pos_) != 0) return false;
    if (wide_.empty() || other.wide_.empty()) return true;
    return wide_compatible(other);
  }

  /// True when this cube implies `other` (every literal of `other` appears
  /// here). top() is implied by everything.
  bool implies(const Cube& other) const {
    if ((other.pos_ & ~pos_) != 0 || (other.neg_ & ~neg_) != 0) return false;
    if (other.wide_.empty()) return true;
    return wide_implies(other);
  }

  /// Remove the literal for `cond` if present.
  Cube without(CondId cond) const;

  /// True when every condition mentioned by this cube is also mentioned by
  /// `other` (regardless of polarity).
  bool conditions_subset_of(const Cube& other) const;

  /// Deterministic hash of the literal set (no allocation on narrow cubes).
  std::size_t hash() const;

  /// Render as e.g. "D & C & !K" using names from the callback; "true" for
  /// the empty cube.
  std::string to_string(
      const std::function<std::string(CondId)>& name) const;
  /// Append to_string(name)'s rendering to `out`. `name(c)` may return
  /// anything a std::string can append, e.g. a reference to a
  /// pre-rendered name.
  template <typename NameFn>
  void append_to(std::string& out, NameFn&& name) const {
    if (is_true()) {
      out += "true";
      return;
    }
    const char* sep = "";
    for_each([&](Literal l) {
      out += sep;
      sep = " & ";
      if (!l.value) out += '!';
      out += name(l.cond);
    });
  }
  /// Render with bare numeric ids ("c0 & !c3").
  std::string to_string() const;

  friend bool operator==(const Cube& a, const Cube& b) {
    return a.pos_ == b.pos_ && a.neg_ == b.neg_ && a.wide_ == b.wide_;
  }
  friend bool operator!=(const Cube& a, const Cube& b) { return !(a == b); }
  /// Strict weak order identical to lexicographic comparison of the sorted
  /// literal vectors (the pre-packed representation), so every consumer
  /// that sorts cubes — DNF normalization, table column listings — keeps
  /// its historical deterministic order.
  friend bool operator<(const Cube& a, const Cube& b);

 private:
  void set_unchecked(Literal l);
  bool wide_compatible(const Cube& other) const;
  bool wide_implies(const Cube& other) const;

  std::uint64_t pos_ = 0;  ///< conditions < kPackedBits required true
  std::uint64_t neg_ = 0;  ///< conditions < kPackedBits required false
  std::vector<Literal> wide_;  ///< sorted literals with cond >= kPackedBits
};

}  // namespace cps

template <>
struct std::hash<cps::Cube> {
  std::size_t operator()(const cps::Cube& c) const noexcept {
    return c.hash();
  }
};
