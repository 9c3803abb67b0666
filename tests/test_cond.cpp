#include <gtest/gtest.h>

#include "cond/assignment.hpp"
#include "cond/condition_set.hpp"
#include "cond/cover_cache.hpp"
#include "cond/cube.hpp"
#include "cond/dnf.hpp"
#include "support/error.hpp"
#include "support/random.hpp"
#include "test_util.hpp"

namespace cps {
namespace {

using testing::random_cube;

Literal pos(CondId c) { return Literal{c, true}; }
Literal neg(CondId c) { return Literal{c, false}; }

Dnf random_dnf(Rng& rng, std::size_t universe) {
  Dnf d;
  const std::size_t cubes = rng.index(4);
  for (std::size_t i = 0; i < cubes; ++i) {
    d = d.or_cube(random_cube(rng, universe));
  }
  return d;
}

// ----------------------------------------------------------- Cube -----

TEST(Cube, TopIsTrue) {
  EXPECT_TRUE(Cube::top().is_true());
  EXPECT_EQ(Cube::top().size(), 0u);
}

TEST(Cube, ConstructorSortsAndDeduplicates) {
  Cube c({pos(3), pos(1), pos(3)});
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.literals()[0].cond, 1);
  EXPECT_EQ(c.literals()[1].cond, 3);
}

TEST(Cube, ConstructorRejectsContradiction) {
  EXPECT_THROW(Cube({pos(1), neg(1)}), InvalidArgument);
}

TEST(Cube, ConjoinLiteral) {
  Cube c(pos(1));
  auto d = c.conjoin(pos(2));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->size(), 2u);
  EXPECT_FALSE(c.conjoin(neg(1)).has_value());
  EXPECT_EQ(*c.conjoin(pos(1)), c);
}

TEST(Cube, ConjoinCube) {
  Cube a({pos(1), neg(2)});
  Cube b({neg(2), pos(3)});
  auto ab = a.conjoin(b);
  ASSERT_TRUE(ab.has_value());
  EXPECT_EQ(ab->size(), 3u);
  Cube contra({pos(2)});
  EXPECT_FALSE(a.conjoin(contra).has_value());
}

TEST(Cube, CompatibleIffNoOppositeLiteral) {
  Cube a({pos(1), pos(2)});
  Cube b({pos(2), pos(3)});
  Cube c({neg(2)});
  EXPECT_TRUE(a.compatible(b));
  EXPECT_FALSE(a.compatible(c));
  EXPECT_TRUE(Cube::top().compatible(a));
}

TEST(Cube, ImpliesIsSubsetOrder) {
  Cube a({pos(1), pos(2)});
  Cube b(pos(1));
  EXPECT_TRUE(a.implies(b));
  EXPECT_FALSE(b.implies(a));
  EXPECT_TRUE(a.implies(Cube::top()));
  EXPECT_TRUE(a.implies(a));
}

TEST(Cube, ValueOfAndMentions) {
  Cube a({pos(1), neg(4)});
  EXPECT_EQ(a.value_of(1), true);
  EXPECT_EQ(a.value_of(4), false);
  EXPECT_FALSE(a.value_of(2).has_value());
  EXPECT_TRUE(a.mentions(4));
  EXPECT_FALSE(a.mentions(0));
}

TEST(Cube, WithoutRemovesOneCondition) {
  Cube a({pos(1), neg(4)});
  EXPECT_EQ(a.without(1), Cube(neg(4)));
  EXPECT_EQ(a.without(9), a);
}

TEST(Cube, ConditionsSubsetOf) {
  Cube a(pos(1));
  Cube b({neg(1), pos(2)});
  EXPECT_TRUE(a.conditions_subset_of(b));
  EXPECT_FALSE(b.conditions_subset_of(a));
}

TEST(Cube, ToString) {
  EXPECT_EQ(Cube::top().to_string(), "true");
  EXPECT_EQ(Cube({pos(0), neg(2)}).to_string(), "c0 & !c2");
}

TEST(Cube, FromMasksRoundTrips) {
  const Cube c = Cube::from_masks(0b101, 0b010);
  EXPECT_EQ(c, Cube({pos(0), neg(1), pos(2)}));
  EXPECT_EQ(c.pos_bits(), 0b101u);
  EXPECT_EQ(c.neg_bits(), 0b010u);
  EXPECT_TRUE(c.narrow());
  EXPECT_TRUE(Cube::from_masks(0, 0).is_true());
}

TEST(Cube, WideLiteralsTakeTheSlowPath) {
  const CondId w = Cube::kPackedBits;
  const Cube c({pos(3), neg(static_cast<CondId>(w + 5))});
  EXPECT_FALSE(c.narrow());
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.mention_bits(), std::uint64_t{1} << 3);  // packed part only
  EXPECT_EQ(c.value_of(static_cast<CondId>(w + 5)), false);
  EXPECT_EQ(c.to_string(), "c3 & !c" + std::to_string(w + 5));
}

TEST(Cube, HashAgreesWithEquality) {
  const Cube a({pos(1), neg(4)});
  const Cube b({neg(4), pos(1)});
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(Cube(pos(1)).hash(), Cube(neg(1)).hash());
}

// ---- packed vs. slow-path equivalence --------------------------------
//
// Shifting every condition id past kPackedBits forces the sorted-vector
// slow path; every operation must agree with the packed fast path modulo
// the shift.

Literal shifted(Literal l) {
  return Literal{static_cast<CondId>(l.cond + Cube::kPackedBits), l.value};
}

Cube shifted(const Cube& c) {
  std::vector<Literal> lits;
  c.for_each([&lits](Literal l) { lits.push_back(shifted(l)); });
  return Cube(lits);
}

class CubeRepresentationTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CubeRepresentationTest, PackedAndWideAgree) {
  Rng rng(GetParam());
  constexpr std::size_t kUniverse = 6;
  for (int round = 0; round < 50; ++round) {
    const Cube a = random_cube(rng, kUniverse);
    const Cube b = random_cube(rng, kUniverse);
    const Cube wa = shifted(a);
    const Cube wb = shifted(b);

    EXPECT_EQ(a == b, wa == wb);
    EXPECT_EQ(a < b, wa < wb) << a.to_string() << " vs " << b.to_string();
    EXPECT_EQ(a.compatible(b), wa.compatible(wb));
    EXPECT_EQ(a.implies(b), wa.implies(wb));
    EXPECT_EQ(a.conditions_subset_of(b), wa.conditions_subset_of(wb));

    const auto ab = a.conjoin(b);
    const auto wab = wa.conjoin(wb);
    ASSERT_EQ(ab.has_value(), wab.has_value());
    if (ab) {
      EXPECT_EQ(shifted(*ab), *wab);
    }

    const CondId probe = static_cast<CondId>(rng.index(kUniverse));
    EXPECT_EQ(a.value_of(probe), wa.value_of(shifted(pos(probe)).cond));
    EXPECT_EQ(shifted(a.without(probe)),
              wa.without(shifted(pos(probe)).cond));

    // Mixed narrow+wide cubes behave like their all-wide counterparts.
    if (const auto mixed = a.conjoin(wb)) {
      EXPECT_EQ(mixed->size(), a.size() + wb.size());
      EXPECT_TRUE(mixed->implies(a));
      EXPECT_TRUE(mixed->implies(wb));
      EXPECT_FALSE(mixed->narrow());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubeRepresentationTest,
                         ::testing::Values(11, 12, 13, 14));

// The packed operator< must reproduce the historical order exactly:
// lexicographic comparison of the literal vectors sorted by (cond, value).
TEST(Cube, OrderingMatchesLexicographicLiteralOrder) {
  Rng rng(99);
  for (int round = 0; round < 300; ++round) {
    const Cube a = random_cube(rng, 8);
    const Cube b = random_cube(rng, 8);
    const auto la = a.literals();
    const auto lb = b.literals();
    EXPECT_EQ(a < b, la < lb) << a.to_string() << " vs " << b.to_string();
  }
  // Boundary: condition 63 is the top packed bit.
  const Cube hi(pos(63));
  const Cube lo(neg(63));
  EXPECT_TRUE(lo < hi);
  EXPECT_FALSE(hi < lo);
  EXPECT_TRUE(Cube::top() < hi);
}

// ----------------------------------------------------------- Dnf ------

TEST(Dnf, Constants) {
  EXPECT_TRUE(Dnf::false_().is_false());
  EXPECT_TRUE(Dnf::true_().is_true());
  EXPECT_FALSE(Dnf::true_().is_false());
}

TEST(Dnf, AbsorptionDropsSubsumedCubes) {
  Dnf d = Dnf(Cube(pos(1))).or_cube(Cube({pos(1), pos(2)}));
  ASSERT_EQ(d.cubes().size(), 1u);
  EXPECT_EQ(d.cubes()[0], Cube(pos(1)));
}

TEST(Dnf, ComplementaryMergeSimplifies) {
  // (X & C) | (X & !C) == X.
  Dnf d = Dnf(Cube({pos(0), pos(1)})).or_cube(Cube({pos(0), neg(1)}));
  ASSERT_EQ(d.cubes().size(), 1u);
  EXPECT_EQ(d.cubes()[0], Cube(pos(0)));
}

TEST(Dnf, FullCoverCollapsesToTrue) {
  // (D&K) | (D&!K) | !D == true — the X_P17 example of the paper.
  Dnf d = Dnf(Cube({pos(0), pos(1)}))
              .or_cube(Cube({pos(0), neg(1)}))
              .or_cube(Cube(neg(0)));
  EXPECT_TRUE(d.is_true());
}

TEST(Dnf, AndDistributesAndDropsContradictions) {
  Dnf d = Dnf(Cube(pos(0))).or_cube(Cube(neg(1)));
  Dnf e = d.and_cube(Cube(pos(1)));
  // (c0 | !c1) & c1 == c0 & c1.
  ASSERT_EQ(e.cubes().size(), 1u);
  EXPECT_EQ(e.cubes()[0], Cube({pos(0), pos(1)}));
}

TEST(Dnf, EvaluateMatchesSemantics) {
  Dnf d = Dnf(Cube({pos(0), neg(1)})).or_cube(Cube(pos(2)));
  auto val = [](bool a, bool b, bool c) {
    return [=](CondId id) { return id == 0 ? a : id == 1 ? b : c; };
  };
  EXPECT_TRUE(d.evaluate(val(true, false, false)));
  EXPECT_TRUE(d.evaluate(val(false, true, true)));
  EXPECT_FALSE(d.evaluate(val(false, false, false)));
  EXPECT_FALSE(d.evaluate(val(true, true, false)));
}

TEST(Dnf, CoveredByContext) {
  // D covers (D&K)|(D&!K).
  Dnf d = Dnf(Cube({pos(0), pos(1)})).or_cube(Cube({pos(0), neg(1)}));
  EXPECT_TRUE(d.covered_by_context(Cube(pos(0))));
  EXPECT_FALSE(d.covered_by_context(Cube(neg(0))));
  EXPECT_FALSE(d.covered_by_context(Cube::top()));
  EXPECT_TRUE(Dnf::true_().covered_by_context(Cube::top()));
  EXPECT_FALSE(Dnf::false_().covered_by_context(Cube::top()));
}

TEST(Dnf, ImpliesAndEquivalent) {
  Dnf a(Cube({pos(0), pos(1)}));
  Dnf b(Cube(pos(0)));
  EXPECT_TRUE(a.implies(b));
  EXPECT_FALSE(b.implies(a));
  Dnf c = Dnf(Cube({pos(0), pos(1)})).or_cube(Cube({pos(0), neg(1)}));
  EXPECT_TRUE(c.equivalent(b));
}

TEST(Dnf, MentionedConditions) {
  Dnf d = Dnf(Cube({pos(0), neg(3)})).or_cube(Cube(pos(5)));
  EXPECT_EQ(d.mentioned_conditions(), (std::vector<CondId>{0, 3, 5}));
}

TEST(Dnf, ToString) {
  EXPECT_EQ(Dnf::false_().to_string(), "false");
  EXPECT_EQ(Dnf::true_().to_string(), "true");
  Dnf d = Dnf(Cube(pos(0))).or_cube(Cube(neg(1)));
  EXPECT_EQ(d.to_string(), "c0 | !c1");
}

// ---- normalization edge cases ----------------------------------------

TEST(Dnf, ComplementaryMergeCascades) {
  // (A&B&C) | (A&B&!C) -> A&B, which must then absorb/merge further:
  // adding (A&!B) turns the whole thing into A.
  Dnf d = Dnf(Cube({pos(0), pos(1), pos(2)}))
              .or_cube(Cube({pos(0), pos(1), neg(2)}));
  ASSERT_EQ(d.cubes().size(), 1u);
  EXPECT_EQ(d.cubes()[0], Cube({pos(0), pos(1)}));
  d = d.or_cube(Cube({pos(0), neg(1)}));
  ASSERT_EQ(d.cubes().size(), 1u);
  EXPECT_EQ(d.cubes()[0], Cube(pos(0)));
}

TEST(Dnf, CascadeCollapsesFullCoverOfThreeConditions) {
  // All eight minterms over three conditions, added one at a time, must
  // cascade (merge -> merge -> merge) down to `true`.
  Dnf d;
  for (int bits = 0; bits < 8; ++bits) {
    d = d.or_cube(Cube({Literal{0, (bits & 1) != 0},
                        Literal{1, (bits & 2) != 0},
                        Literal{2, (bits & 4) != 0}}));
  }
  EXPECT_TRUE(d.is_true());
  ASSERT_EQ(d.cubes().size(), 1u);
}

TEST(Dnf, TopCubeSubsumesEverything) {
  // Adding top() absorbs every other cube, in either order.
  Dnf d = Dnf(Cube({pos(0), pos(1)})).or_cube(Cube(neg(2)));
  EXPECT_TRUE(d.or_cube(Cube::top()).is_true());
  EXPECT_TRUE(Dnf::true_().or_dnf(d).is_true());
  EXPECT_TRUE(d.or_dnf(Dnf::true_()).is_true());
}

TEST(Dnf, OrAndAreIdempotentOnNormalizedInputs) {
  Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    const Dnf d = random_dnf(rng, 4);
    // x | x == x, exactly (the normal form is canonical under or).
    EXPECT_EQ(d.or_dnf(d), d) << d.to_string();
    // x & x is semantically x (the normal form may differ, e.g. cube
    // products can keep a redundant non-prime cube).
    EXPECT_TRUE(d.and_dnf(d).equivalent(d)) << d.to_string();
    // Re-normalizing a normal form must not change it.
    Dnf rebuilt;
    for (const Cube& c : d.cubes()) rebuilt = rebuilt.or_cube(c);
    EXPECT_EQ(rebuilt, d) << d.to_string();
  }
}

// Property test: DNF algebra agrees with brute-force truth-table
// evaluation on random formulas.
class DnfPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DnfPropertyTest, OperationsMatchTruthTables) {
  Rng rng(GetParam());
  constexpr std::size_t kUniverse = 4;
  const auto assignments = Assignment::enumerate(kUniverse);

  for (int round = 0; round < 20; ++round) {
    const Dnf a = random_dnf(rng, kUniverse);
    const Dnf b = random_dnf(rng, kUniverse);
    const Cube ctx = random_cube(rng, kUniverse);

    auto eval = [](const Dnf& d, const Assignment& asg) {
      return d.evaluate([&asg](CondId c) { return asg.value(c); });
    };

    // OR / AND agree point-wise.
    const Dnf a_or_b = a.or_dnf(b);
    const Dnf a_and_b = a.and_dnf(b);
    for (const Assignment& asg : assignments) {
      EXPECT_EQ(eval(a_or_b, asg), eval(a, asg) || eval(b, asg));
      EXPECT_EQ(eval(a_and_b, asg), eval(a, asg) && eval(b, asg));
    }

    // covered_by_context == "true under every completion of ctx".
    bool expected_cover = true;
    for (const Assignment& asg : assignments) {
      if (asg.satisfies(ctx) && !eval(a, asg)) expected_cover = false;
    }
    EXPECT_EQ(a.covered_by_context(ctx), expected_cover)
        << a.to_string() << " under " << ctx.to_string();

    // implies == point-wise order.
    bool expected_implies = true;
    for (const Assignment& asg : assignments) {
      if (eval(a, asg) && !eval(b, asg)) expected_implies = false;
    }
    EXPECT_EQ(a.implies(b), expected_implies)
        << a.to_string() << " => " << b.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnfPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------- CoverCache ---

TEST(CoverCache, CountsHitsAndMisses) {
  CoverCache cache;
  const Dnf guard = Dnf(Cube({pos(0), pos(1)})).or_cube(Cube(neg(0)));
  const Cube ctx(pos(1));
  EXPECT_EQ(cache.covered(guard, ctx), guard.covered_by_context(ctx));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.covered(guard, ctx), guard.covered_by_context(ctx));
  EXPECT_EQ(cache.hits(), 1u);
  const Cube other(neg(0));
  EXPECT_EQ(cache.covered(guard, other), guard.covered_by_context(other));
  EXPECT_EQ(cache.misses(), 2u);
  const CoverCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.resets, 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(CoverCache, SizeCapResetsDeterministically) {
  CoverCache cache(/*max_entries=*/4);
  const Dnf guard = Dnf(Cube({pos(0), pos(1)})).or_cube(Cube({pos(2)}));
  const auto fill = [&cache, &guard] {
    for (CondId c = 0; c < 6; ++c) {
      cache.covered(guard, Cube(Literal{c, true}));
    }
  };
  fill();
  // 6 distinct contexts against a cap of 4: the map was wiped on the way.
  EXPECT_GE(cache.resets(), 1u);
  EXPECT_LE(cache.size(), 4u);
  EXPECT_EQ(cache.hits() + cache.misses(), 6u);
  // Identical query sequence on a fresh cache: identical counters (the
  // reset policy depends only on the sequence, never on timing).
  CoverCache again(/*max_entries=*/4);
  const Dnf guard2 = Dnf(Cube({pos(0), pos(1)})).or_cube(Cube({pos(2)}));
  for (CondId c = 0; c < 6; ++c) {
    again.covered(guard2, Cube(Literal{c, true}));
  }
  EXPECT_EQ(again.resets(), cache.resets());
  EXPECT_EQ(again.hits(), cache.hits());
  EXPECT_EQ(again.misses(), cache.misses());
  EXPECT_EQ(again.size(), cache.size());
  // Correctness is unaffected by evictions.
  for (CondId c = 0; c < 6; ++c) {
    const Cube ctx(Literal{c, true});
    EXPECT_EQ(cache.covered(guard, ctx), guard.covered_by_context(ctx));
  }
}

// ------------------------------------------------------- Assignment ---

TEST(Assignment, FromCubeSetsMentionedConditions) {
  const Assignment a = Assignment::from_cube(Cube({pos(1), neg(2)}), 4);
  EXPECT_FALSE(a.value(0));
  EXPECT_TRUE(a.value(1));
  EXPECT_FALSE(a.value(2));
  EXPECT_TRUE(a.satisfies(Cube({pos(1)})));
  EXPECT_FALSE(a.satisfies(Cube({pos(2)})));
}

TEST(Assignment, EnumerateProducesAllDistinct) {
  const auto all = Assignment::enumerate(3);
  ASSERT_EQ(all.size(), 8u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i], all[j]);
    }
  }
}

TEST(Assignment, ToCubeRoundTrips) {
  Assignment a(3);
  a.set(1, true);
  const Cube c = a.to_cube();
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.value_of(1), true);
  EXPECT_EQ(c.value_of(2), false);
}

TEST(Assignment, OutOfUniverseThrows) {
  Assignment a(2);
  EXPECT_THROW(a.value(2), InvalidArgument);
  EXPECT_THROW(Assignment::from_cube(Cube(pos(5)), 2), InvalidArgument);
}

// ------------------------------------------------------ ConditionSet --

TEST(ConditionSet, RegistersAndRenders) {
  ConditionSet cs;
  const CondId c = cs.add("C");
  const CondId d = cs.add("D");
  EXPECT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs.id_of("D"), d);
  EXPECT_EQ(cs.render(Cube({Literal{c, true}, Literal{d, false}})),
            "C & !D");
  EXPECT_EQ(cs.render(Literal{d, false}), "!D");
}

TEST(ConditionSet, RejectsDuplicatesAndUnknown) {
  ConditionSet cs;
  cs.add("C");
  EXPECT_THROW(cs.add("C"), InvalidArgument);
  EXPECT_THROW(cs.id_of("Z"), InvalidArgument);
  EXPECT_THROW(cs.add(""), InvalidArgument);
}

}  // namespace
}  // namespace cps
