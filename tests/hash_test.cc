#include "common/hash.h"

#include <string>

#include <gtest/gtest.h>

namespace nimbus {
namespace {

TEST(HashTest, Fnv1a64MatchesPublishedVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(HashTest, FoldingChunksEqualsHashingTheConcatenation) {
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
  EXPECT_EQ(Fnv1a64("", Fnv1a64("foobar")), Fnv1a64("foobar"));
}

// Lane seeds, catalog routing, auditor sample streams and fault streams
// fold from kSeedMixBasis; pinning one value keeps them from moving.
TEST(HashTest, SeedMixBasisIsPinned) {
  EXPECT_EQ(Fnv1a64("", kSeedMixBasis), 1469598103934665603ull);
  EXPECT_EQ(Fnv1a64("solo", kSeedMixBasis), 0xbcebbc2ce90df3f4ull);
}

}  // namespace
}  // namespace nimbus
