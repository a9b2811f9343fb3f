#include "common/hashing.h"

#include <gtest/gtest.h>

#include <set>

namespace blend {
namespace {

TEST(HashingTest, Fnv1aDeterministic) {
  EXPECT_EQ(Fnv1a64("hello"), Fnv1a64("hello"));
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("hellp"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
}

TEST(HashingTest, Fnv1aGoldenVectors) {
  // The dictionary's hash table (persisted in snapshots) and Find depend on
  // these exact values.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashingTest, Mix64ChangesValue) {
  EXPECT_NE(Mix64(0), 0u);
  EXPECT_NE(Mix64(1), Mix64(2));
}

TEST(HashingTest, Mix64AvalanchesNearbyInputs) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(HashingTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(HashingTest, SaltedHashFamiliesIndependent) {
  EXPECT_NE(SaltedHash("key", 1), SaltedHash("key", 2));
  EXPECT_EQ(SaltedHash("key", 1), SaltedHash("key", 1));
}

TEST(HashingTest, FewCollisionsOnTokenLikeInputs) {
  std::set<uint64_t> hashes;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hashes.insert(Fnv1a64("d3_v" + std::to_string(i)));
  }
  EXPECT_EQ(hashes.size(), static_cast<size_t>(n));
}

TEST(HashingTest, ProbeTableSizeKeepsAFreeSlot) {
  EXPECT_EQ(ProbeTableSize(0), 1u);
  EXPECT_EQ(ProbeTableSize(1), 4u);
  EXPECT_EQ(ProbeTableSize(100), 256u);
  EXPECT_EQ(ProbeTableSize(128), 512u);
}

TEST(HashingTest, ProbeSlotWrapsAndStopsAtMatchOrEmpty) {
  constexpr int kEmpty = -1;
  // Keys 7, 3 and 5 all hash to the last slot and wrap around.
  std::vector<int> table(8, kEmpty);
  auto never = [](int) { return false; };
  for (int key : {7, 3, 5}) table[ProbeSlot(table, 7, kEmpty, never)] = key;
  EXPECT_EQ(table, (std::vector<int>{3, 5, kEmpty, kEmpty, kEmpty, kEmpty, kEmpty, 7}));
  auto is = [](int want) { return [want](int key) { return key == want; }; };
  EXPECT_EQ(ProbeSlot(table, 7, kEmpty, is(7)), 7u);
  EXPECT_EQ(ProbeSlot(table, 7, kEmpty, is(5)), 1u);
  EXPECT_EQ(ProbeSlot(table, 7, kEmpty, is(9)), 2u);  // absent: first free slot
}

}  // namespace
}  // namespace blend
