#include "storage/dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hashing.h"
#include "common/rng.h"
#include "common/scheduler.h"

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

/// The table of inserting ids 0..n-1 in order by linear probing, written out
/// independently of FromCsr.
std::vector<CellId> SerialInsertion(const std::vector<uint64_t>& hashes) {
  std::vector<CellId> table(ProbeTableSize(hashes.size()), kInvalidCellId);
  const size_t mask = table.size() - 1;
  for (size_t id = 0; id < hashes.size(); ++id) {
    size_t slot = hashes[id] & mask;
    while (table[slot] != kInvalidCellId) slot = (slot + 1) & mask;
    table[slot] = static_cast<CellId>(id);
  }
  return table;
}

/// FromCsr's table over synthetic hashes (the values are placeholders: the
/// table depends on the hashes alone).
std::vector<CellId> FromCsrTable(const std::vector<uint64_t>& hashes,
                                 Scheduler* sched) {
  PodVector<uint64_t> offsets(hashes.size() + 1, 0);
  const Dictionary d = Dictionary::FromCsr(std::move(offsets), {}, hashes, sched);
  return {d.hash_slots().begin(), d.hash_slots().end()};
}

TEST(DictionaryTest, FromCsrMatchesSerialInsertion) {
  Scheduler pool(4);
  const size_t n = Dictionary::kParallelFillMinValues;
  const uint64_t slots = ProbeTableSize(n);
  Rng rng(20);
  std::vector<std::pair<std::string, std::vector<uint64_t>>> cases;
  cases.emplace_back("one home", std::vector<uint64_t>(n, slots / 3));
  {
    // Clusters just before every multiple of slots/64, so runs cross the
    // boundaries of any power-of-two task split up to 64 ways and beyond,
    // plus one run long enough to span several such ranges.
    std::vector<uint64_t> hashes;
    for (uint64_t b = 1; b <= 64; ++b) {
      for (int i = 0; i < 40; ++i) hashes.push_back(b * slots / 64 - 8 + (i % 3));
    }
    for (size_t i = 0; i < slots / 16; ++i) hashes.push_back(slots / 2 + i % 5);
    while (hashes.size() < n) hashes.push_back(rng.Next());
    rng.Shuffle(&hashes);
    cases.emplace_back("crossing runs", std::move(hashes));
  }
  {
    // A run from near the last slot wraps to slot 0 and past part of the
    // table's start, interleaved with random keys in any id order.
    std::vector<uint64_t> hashes;
    for (size_t i = 0; hashes.size() < n; ++i) {
      hashes.push_back(i % 4 == 0 ? slots - 3 - i % 7 : rng.Next());
    }
    cases.emplace_back("wrapping run", std::move(hashes));
  }
  for (size_t extra : {size_t{0}, size_t{1}, 3 * n}) {
    std::vector<uint64_t> hashes(n + extra);
    for (uint64_t& h : hashes) h = rng.Next();
    cases.emplace_back("random " + std::to_string(n + extra), std::move(hashes));
  }
  for (const auto& [name, hashes] : cases) {
    SCOPED_TRACE(name);
    const std::vector<CellId> want = SerialInsertion(hashes);
    ASSERT_TRUE(FromCsrTable(hashes, &pool) == want);
    ASSERT_TRUE(FromCsrTable(hashes, nullptr) == want);
  }
  // The wrapping case does wrap: slot 0 holds a key homed near the end.
  const std::vector<CellId> wrapped = SerialInsertion(cases[2].second);
  ASSERT_NE(wrapped[0], kInvalidCellId);
  EXPECT_GT(cases[2].second[wrapped[0]] & (slots - 1), slots / 2);
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
