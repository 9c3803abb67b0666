// Canonical CPG hashing (cpg/canonical): the digest is a stable content
// identity — fixed generator seeds map to fixed hex digests (golden
// values pin the encoding format), equal content hashes equal regardless
// of construction path, and any content difference separates digests.
// Collision safety rides on the *encoding*, not the digest: consumers
// compare full key encodings byte-for-byte on every digest match.
#include <gtest/gtest.h>

#include <string>

#include "cpg/canonical.hpp"
#include "cpg/flat_graph.hpp"
#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "support/random.hpp"

namespace {

using namespace cps;

// A Cpg owns its Architecture, so returning it by value is safe.
Cpg make(std::uint64_t seed, std::size_t processes = 20,
         std::size_t paths = 4) {
  Rng rng(seed);
  RandomArchParams arch_params;
  RandomCpgParams cpg_params;
  cpg_params.process_count = processes;
  cpg_params.path_count = paths;
  const Architecture arch = generate_random_architecture(rng, arch_params);
  return generate_random_cpg(arch, cpg_params, rng);
}

TEST(CanonicalHash, GoldenDigestsForFixedSeeds) {
  // Golden values: any change to the canonical encoding (new fields,
  // reordered sections, width changes) must bump the format version AND
  // these constants — silently shifting them would split every persistent
  // store from its producers.
  const Cpg a = make(42);
  EXPECT_EQ(digest_of(canonical_encoding(a)).hex(),
            "1bfdc2688d9b0eda64a9078bb55dd2ea");
  const Cpg b = make(7, 30, 6);
  EXPECT_EQ(digest_of(canonical_encoding(b)).hex(),
            "88131e68b6a5f94741a31a7374bf2e17");
}

TEST(CanonicalHash, DigestIsAPureFunctionOfContent) {
  const Cpg a1 = make(42);
  const Cpg a2 = make(42);
  EXPECT_EQ(canonical_encoding(a1), canonical_encoding(a2));
  EXPECT_EQ(digest_of(canonical_encoding(a1)),
            digest_of(canonical_encoding(a2)));
}

TEST(CanonicalHash, DifferentContentSeparatesEncodingsAndDigests) {
  const Cpg a = make(42);
  const Cpg b = make(43);
  EXPECT_NE(canonical_encoding(a), canonical_encoding(b));
  EXPECT_NE(digest_of(canonical_encoding(a)),
            digest_of(canonical_encoding(b)));
}

TEST(CanonicalHash, EqualModelsDoNotShareAnExpansionUid) {
  // uid() names an expansion, not content: the uid-keyed state (the
  // workspace's private CoverCache) must never confuse two expansions,
  // even of one model or of two equal ones.
  const Cpg a = make(42);
  const Cpg b = make(42);
  const FlatGraph f1 = FlatGraph::expand(a);
  const FlatGraph f2 = FlatGraph::expand(a);
  const FlatGraph f3 = FlatGraph::expand(b);
  EXPECT_NE(f1.uid(), f2.uid());
  EXPECT_NE(f1.uid(), f3.uid());
}

TEST(CanonicalHash, HexIs32LowercaseChars) {
  const Cpg a = make(42);
  const std::string hex = digest_of(canonical_encoding(a)).hex();
  ASSERT_EQ(hex.size(), 32u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
}

TEST(CanonicalHash, EncodingStartsWithVersionedMagic) {
  const Cpg a = make(42);
  const std::string enc = canonical_encoding(a);
  ASSERT_GE(enc.size(), 12u);
  EXPECT_EQ(enc.substr(0, 8), "CPSCANON");
}

}  // namespace
