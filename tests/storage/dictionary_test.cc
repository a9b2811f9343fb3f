#include "storage/dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hashing.h"

namespace blend {
namespace {

/// A dictionary over distinct `values`, laid out the way the index builder
/// emits it.
Dictionary MakeDictionary(const std::vector<std::string>& values) {
  PodVector<uint64_t> offsets{0};
  PodVector<char> blob;
  std::vector<uint64_t> hashes;
  for (const std::string& v : values) {
    blob.insert(blob.end(), v.begin(), v.end());
    offsets.push_back(blob.size());
    hashes.push_back(Fnv1a64(v));
  }
  return Dictionary::FromCsr(std::move(offsets), std::move(blob), hashes);
}

std::vector<std::string> Tokens(const std::string& prefix, int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

TEST(DictionaryTest, DefaultConstructedIsEmpty) {
  Dictionary d;
  EXPECT_EQ(d.Size(), 0u);
  EXPECT_EQ(d.Find(""), kInvalidCellId);
  EXPECT_EQ(d.Find("x"), kInvalidCellId);
  EXPECT_EQ(d.ApproxBytes(), 0u);
}

TEST(DictionaryTest, EmptyValueListKeepsOneFreeSlot) {
  Dictionary d = MakeDictionary({});
  EXPECT_EQ(d.Size(), 0u);
  EXPECT_EQ(d.Find("x"), kInvalidCellId);
  EXPECT_EQ(d.ApproxBytes(), sizeof(uint64_t) + sizeof(CellId));
}

TEST(DictionaryTest, FromCsrAssignsDenseIds) {
  Dictionary d = MakeDictionary({"a", "b", ""});
  EXPECT_EQ(d.Size(), 3u);
  EXPECT_EQ(d.Find("a"), 0u);
  EXPECT_EQ(d.Find("b"), 1u);
  EXPECT_EQ(d.Find(""), 2u);
}

TEST(DictionaryTest, FindWithoutIntern) {
  Dictionary d = MakeDictionary({"x"});
  EXPECT_EQ(d.Find("x"), 0u);
  EXPECT_EQ(d.Find("y"), kInvalidCellId);
  EXPECT_EQ(d.Size(), 1u);  // Find must not add values
}

TEST(DictionaryTest, ValueRoundTrip) {
  Dictionary d = MakeDictionary({"first", "token"});
  EXPECT_EQ(d.Value(1), "token");
  EXPECT_EQ(d.Value(0), "first");
}

TEST(DictionaryTest, FindsEveryValueOfALargeDictionary) {
  const std::vector<std::string> values = Tokens("tok", 5000);
  Dictionary d = MakeDictionary(values);
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(d.Value(static_cast<CellId>(i)), values[i]);
    ASSERT_EQ(d.Find(values[i]), static_cast<CellId>(i)) << values[i];
  }
}

TEST(DictionaryTest, FindRejectsAbsentValuesThatProbeOccupiedSlots) {
  // 100 values hash into a 256-slot table (the smallest power of two above
  // 2n). An absent value whose home slot is some present value's home slot
  // must probe through occupied slots and still come back absent.
  const std::vector<std::string> values = Tokens("v", 100);
  Dictionary d = MakeDictionary(values);
  constexpr uint64_t kMask = 255;
  std::vector<bool> home_taken(kMask + 1, false);
  for (const std::string& v : values) home_taken[Fnv1a64(v) & kMask] = true;
  int colliding = 0;
  for (const std::string& absent : Tokens("absent", 2000)) {
    if (!home_taken[Fnv1a64(absent) & kMask]) continue;
    ++colliding;
    EXPECT_EQ(d.Find(absent), kInvalidCellId) << absent;
  }
  EXPECT_GT(colliding, 100);
}

TEST(DictionaryTest, ApproxBytesMatchesArrays) {
  const std::vector<std::string> values = Tokens("value", 100);
  size_t blob = 0;
  for (const std::string& v : values) blob += v.size();
  Dictionary d = MakeDictionary(values);
  EXPECT_EQ(d.ApproxBytes(),
            (values.size() + 1) * sizeof(uint64_t) + blob + 256 * sizeof(CellId));
}

TEST(DictionaryTest, ApproxBytesGrows) {
  EXPECT_GT(MakeDictionary(Tokens("value", 100)).ApproxBytes(),
            MakeDictionary(Tokens("value", 10)).ApproxBytes());
}

}  // namespace
}  // namespace blend
