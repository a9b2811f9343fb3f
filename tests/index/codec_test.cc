#include "index/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/scheduler.h"

namespace blend {
namespace {

// ---------------------------------------------------------------------------
// Adversarial posting shapes: every container format, block-boundary count,
// and value-range extreme the encoder can be driven into.
// ---------------------------------------------------------------------------

std::vector<std::vector<PostingValue>> AdversarialLists() {
  constexpr PostingValue kMax = std::numeric_limits<PostingValue>::max();
  std::vector<std::vector<PostingValue>> lists;
  lists.push_back({});                 // empty
  lists.push_back({0});                // singletons, both extremes
  lists.push_back({kMax});
  lists.push_back({7, 8});             // minimal run
  lists.push_back({7, 9});             // minimal gap
  lists.push_back({0, kMax});          // widest possible delta
  auto iota = [](PostingValue from, size_t n) {
    std::vector<PostingValue> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = from + static_cast<PostingValue>(i);
    return v;
  };
  lists.push_back(iota(5, kPostingBlockLen));       // exactly one run block
  lists.push_back(iota(5, kPostingBlockLen + 1));   // run + 1-element block
  lists.push_back(iota(0, 4 * kPostingBlockLen));   // multi-block run
  lists.push_back(iota(kMax - 299, 300));           // run ending at UINT32_MAX
  {
    std::vector<PostingValue> evens(600);            // dense region: bitmap
    for (size_t i = 0; i < evens.size(); ++i) {
      evens[i] = static_cast<PostingValue>(2 * i);
    }
    lists.push_back(std::move(evens));
  }
  {
    std::vector<PostingValue> sparse(257);           // wide deltas: bitpacked
    PostingValue v = 3;
    for (auto& x : sparse) {
      x = v;
      v += 10007;
    }
    lists.push_back(std::move(sparse));
  }
  {
    // Mixed personality: a run, then a dense cluster, then sparse tail —
    // forces different formats on neighboring blocks of one list.
    std::vector<PostingValue> mixed = iota(100, kPostingBlockLen);
    for (size_t i = 0; i < kPostingBlockLen; ++i) {
      mixed.push_back(10000 + static_cast<PostingValue>(3 * i));
    }
    for (size_t i = 0; i < kPostingBlockLen; ++i) {
      mixed.push_back(1000000 + static_cast<PostingValue>(50000 * i));
    }
    lists.push_back(std::move(mixed));
  }
  // Random mixes of several densities, sorted+deduped, including one pushed
  // up against the top of the u32 range.
  Rng rng(77);
  for (uint64_t range : {2000ull, 1ull << 20, 0xFFFFFFFFull}) {
    std::vector<PostingValue> v;
    for (int i = 0; i < 900; ++i) {
      v.push_back(static_cast<PostingValue>(rng.Uniform(range)));
    }
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    lists.push_back(std::move(v));
  }
  {
    std::vector<PostingValue> top;
    for (PostingValue v = kMax - 4096; v != 0; v += 3) {
      top.push_back(v);
      if (v > kMax - 3) break;
    }
    lists.push_back(std::move(top));
  }
  return lists;
}

uint64_t LimitFor(const std::vector<PostingValue>& list) {
  return list.empty() ? 1 : static_cast<uint64_t>(list.back()) + 1;
}

/// One list as a single-list partition (CSR offsets {0, n}).
std::vector<uint8_t> EncodeOne(const std::vector<PostingValue>& list) {
  const std::vector<uint64_t> offsets = {0, list.size()};
  std::vector<uint8_t> out;
  EncodePostingPartition(offsets, list, &out);
  return out;
}

/// The checked decode of the first `size` bytes of `bytes` into `out`, sized
/// to the offsets' value count.
Status Decode(const std::vector<uint8_t>& bytes, size_t size,
              const std::vector<uint64_t>& offsets, uint64_t limit,
              std::vector<PostingValue>* out) {
  out->assign(static_cast<size_t>(offsets.back() - offsets.front()), 0);
  return DecodePostingPartition(bytes.data(), size, offsets, limit, out->data());
}

Status Decode(const std::vector<uint8_t>& bytes,
              const std::vector<uint64_t>& offsets, uint64_t limit) {
  std::vector<PostingValue> out;
  return Decode(bytes, bytes.size(), offsets, limit, &out);
}

TEST(PostingCodecTest, RoundTripIsByteIdenticalForEveryShape) {
  for (const auto& list : AdversarialLists()) {
    SCOPED_TRACE("list size " + std::to_string(list.size()));
    const std::vector<uint64_t> offsets = {0, list.size()};
    const std::vector<uint8_t> blob = EncodeOne(list);
    EXPECT_EQ(blob.size(), EncodedPostingPartitionBytes(offsets, list));
    std::vector<PostingValue> decoded;
    ASSERT_TRUE(Decode(blob, blob.size(), offsets, LimitFor(list), &decoded).ok());
    EXPECT_EQ(decoded, list);
  }
}

TEST(PostingCodecTest, GroupedPartitionRoundTripsAndResolvesEveryList) {
  // All adversarial lists in partition-sized groups: exercises the
  // cross-list first-value delta chain (including negative deltas — the
  // lists are not mutually ascending) past empties, singletons and
  // multi-block lists alike.
  const auto lists = AdversarialLists();
  for (size_t group = kPostingPartitionCells; group >= 4; group /= 4) {
    for (size_t begin = 0; begin < lists.size(); begin += group) {
      const size_t end = std::min(lists.size(), begin + group);
      std::vector<uint64_t> offsets = {0};
      std::vector<PostingValue> positions;
      for (size_t i = begin; i < end; ++i) {
        positions.insert(positions.end(), lists[i].begin(), lists[i].end());
        offsets.push_back(positions.size());
      }
      SCOPED_TRACE("group=" + std::to_string(group) + " begin=" +
                   std::to_string(begin));
      std::vector<uint8_t> blob;
      EncodePostingPartition(offsets, positions, &blob);
      EXPECT_EQ(blob.size(), EncodedPostingPartitionBytes(offsets, positions));
      std::vector<PostingValue> decoded;
      ASSERT_TRUE(Decode(blob, blob.size(), offsets, 1ull << 32, &decoded).ok());
      EXPECT_EQ(decoded, positions);
    }
  }
}

TEST(PostingCodecTest, CompressionWinsOnTypicalDensities) {
  // Runs, dense regions and clustered postings — the shapes real lakes
  // produce — must all shrink well below half the raw footprint.
  std::vector<PostingValue> run(5000);
  std::vector<PostingValue> dense, clustered;
  for (size_t i = 0; i < run.size(); ++i) run[i] = static_cast<PostingValue>(i);
  for (size_t i = 0; i < 5000; ++i) dense.push_back(static_cast<PostingValue>(3 * i));
  for (size_t i = 0; i < 5000; ++i) {
    clustered.push_back(static_cast<PostingValue>(i * 37 + (i % 11)));
  }
  for (const auto& list : {run, dense, clustered}) {
    const std::vector<uint64_t> offsets = {0, list.size()};
    EXPECT_LT(EncodedPostingPartitionBytes(offsets, list),
              list.size() * sizeof(PostingValue) / 2)
        << "list[1]=" << list[1];
  }
  // The dominant tail shape: singleton lists whose firsts ascend (dictionary
  // ids are assigned in first-occurrence order) cost ~1 byte, not 4.
  std::vector<uint64_t> offsets;
  std::vector<PostingValue> singles;
  for (size_t i = 0; i < kPostingPartitionCells; ++i) {
    offsets.push_back(i);
    singles.push_back(static_cast<PostingValue>(40 * i + i % 7));
  }
  offsets.push_back(singles.size());
  EXPECT_LE(EncodedPostingPartitionBytes(offsets, singles),
            kPostingPartitionCells + 2);
}

// ---------------------------------------------------------------------------
// Malformed encodings: descriptive rejection, never UB.
// ---------------------------------------------------------------------------

TEST(PostingCodecTest, EveryTruncationIsRejected) {
  for (const auto& list : AdversarialLists()) {
    if (list.empty()) continue;
    const std::vector<uint64_t> offsets = {0, list.size()};
    const std::vector<uint8_t> blob = EncodeOne(list);
    // Every strict prefix — including cuts exactly at block boundaries —
    // must fail: the count promises more blocks than the bytes hold.
    for (size_t cut = 0; cut < blob.size(); ++cut) {
      std::vector<PostingValue> out;
      Status s = Decode(blob, cut, offsets, LimitFor(list), &out);
      ASSERT_FALSE(s.ok()) << "size=" << list.size() << " cut=" << cut;
    }
    // Trailing garbage is equally rejected.
    std::vector<uint8_t> padded = blob;
    padded.push_back(0);
    EXPECT_FALSE(Decode(padded, offsets, LimitFor(list)).ok());
  }
}

TEST(PostingCodecTest, ByteFlipsNeverValidateIntoOutOfRangeValues) {
  // A flipped byte may still decode to some other valid partition (flipping
  // a packed delta does); the safety property is: whatever the checked
  // decode accepts is strictly ascending per list, in range, and of the
  // promised counts.
  for (const auto& list : AdversarialLists()) {
    if (list.empty()) continue;
    const std::vector<uint64_t> offsets = {0, list.size()};
    const std::vector<uint8_t> blob = EncodeOne(list);
    const uint64_t limit = LimitFor(list);
    for (size_t at = 0; at < blob.size(); ++at) {
      for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
        std::vector<uint8_t> tampered = blob;
        tampered[at] ^= flip;
        std::vector<PostingValue> decoded;
        if (!Decode(tampered, tampered.size(), offsets, limit, &decoded).ok()) {
          continue;
        }
        for (size_t i = 0; i < decoded.size(); ++i) {
          ASSERT_LT(decoded[i], limit) << "at=" << at;
          if (i > 0) {
            ASSERT_GT(decoded[i], decoded[i - 1]) << "at=" << at;
          }
        }
      }
    }
  }
}

TEST(PostingCodecTest, ForgedTagsAndWidthsAreRejected) {
  const std::vector<PostingValue> list = {10, 20, 30, 40, 50};
  const std::vector<uint64_t> offsets = {0, list.size()};
  std::vector<uint8_t> blob = EncodeOne(list);
  // Layout: 1 varint byte (zigzag(10) = 20 < 128), then the tag byte.
  const size_t tag_at = 1;

  auto reject = [&](std::vector<uint8_t> bytes, const std::string& why) {
    Status s = Decode(bytes, offsets, 100);
    EXPECT_FALSE(s.ok()) << why;
    EXPECT_NE(s.message().find(why), std::string::npos) << s.message();
  };
  {
    std::vector<uint8_t> bad = blob;
    bad[tag_at] = static_cast<uint8_t>(3);  // reserved format
    reject(bad, "unknown block format");
  }
  {
    std::vector<uint8_t> bad = blob;
    bad[tag_at] = static_cast<uint8_t>(1 | (33 << 2));  // packed, width 33
    reject(bad, "bit width exceeds 32");
  }
  {
    std::vector<uint8_t> bad = blob;
    bad[tag_at] = static_cast<uint8_t>(0 | (5 << 2));  // run with a width
    reject(bad, "run block carries a bit width");
  }
  // Out-of-range positions: validate against a limit below the last value.
  Status s = Decode(blob, offsets, 50);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("position out of range"), std::string::npos);
  // Count mismatch: promising fewer or more values than encoded. (With a
  // bit width whose payload size changes per element; a 4-bit-packed list
  // can absorb a one-element lie inside the same byte and still decode
  // safely, which the byte-flip property covers.)
  const std::vector<PostingValue> wide = {0, 256, 512, 768, 1024};
  std::vector<uint8_t> wide_blob = EncodeOne(wide);
  const std::vector<uint64_t> fewer = {0, wide.size() - 1};
  const std::vector<uint64_t> more = {0, wide.size() + 1};
  EXPECT_FALSE(Decode(wide_blob, fewer, 2048).ok());
  EXPECT_FALSE(Decode(wide_blob, more, 2048).ok());
}

TEST(PostingCodecTest, ForgedSkipTablesAreRejected) {
  std::vector<PostingValue> list(3 * kPostingBlockLen);
  for (size_t i = 0; i < list.size(); ++i) {
    list[i] = static_cast<PostingValue>(17 * i);
  }
  const std::vector<uint64_t> offsets = {0, list.size()};
  std::vector<uint8_t> blob = EncodeOne(list);
  // Layout: 1 varint byte (first value 0), then 3 skip entries of 8 bytes.
  const size_t skip_at = 1;
  {
    std::vector<uint8_t> bad = blob;  // skew the second entry's offset
    bad[skip_at + 8 + 4] ^= 0x01;
    Status s = Decode(bad, offsets, LimitFor(list));
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("skip-table"), std::string::npos) << s.message();
  }
  {
    std::vector<uint8_t> bad = blob;  // break ascent via entry 2's first
    bad[skip_at + 2 * 8] ^= 0xFF;
    Status s = Decode(bad, offsets, LimitFor(list));
    ASSERT_FALSE(s.ok()) << "tampered skip first value must not validate";
  }
  {
    std::vector<uint8_t> bad = blob;  // entry 0 must repeat the list first
    bad[skip_at] ^= 0x01;
    Status s = Decode(bad, offsets, LimitFor(list));
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("skip-table first value"), std::string::npos)
        << s.message();
  }
}

// ---------------------------------------------------------------------------
// Whole-index conversions: deterministic across pool sizes.
// ---------------------------------------------------------------------------

TEST(PostingCodecTest, CsrEncodeIsIdenticalForEveryPoolSize) {
  // A CSR spanning several partitions (the adversarial lists repeated), so
  // the parallel two-pass encode crosses chunk boundaries.
  std::vector<uint64_t> offsets = {0};
  std::vector<PostingValue> positions;
  for (int rep = 0; rep < 9; ++rep) {
    for (const auto& list : AdversarialLists()) {
      positions.insert(positions.end(), list.begin(), list.end());
      offsets.push_back(positions.size());
    }
  }
  Scheduler pool4(4);
  EncodedPostingsCsr serial =
      EncodePostingsCsr(offsets, positions, Scheduler::Serial());
  EncodedPostingsCsr parallel = EncodePostingsCsr(offsets, positions, &pool4);
  EXPECT_EQ(serial.partition_offsets, parallel.partition_offsets);
  EXPECT_EQ(serial.blob, parallel.blob);

  for (Scheduler* sched : {Scheduler::Serial(), &pool4}) {
    std::vector<PostingValue> decoded(positions.size());
    ASSERT_TRUE(DecodePostingsCsr(offsets, serial.partition_offsets,
                                  serial.blob.data(), 1ull << 32, decoded.data(),
                                  sched)
                    .ok());
    EXPECT_EQ(decoded, positions);
  }
}

TEST(PostingCodecTest, CsrDecodeReportsTheLowestFailingPartition) {
  // 130 partitions of singleton lists, so the decode spans several tasks;
  // partitions 65 and 128 each get one value at or above the limit. Every
  // pool reports partition 65, the first cell it covers, and what broke.
  std::vector<uint64_t> offsets = {0};
  std::vector<PostingValue> positions;
  for (size_t i = 0; i < 130 * kPostingPartitionCells; ++i) {
    positions.push_back(static_cast<PostingValue>(i));
    offsets.push_back(positions.size());
  }
  const uint64_t limit = positions.size();
  positions[65 * kPostingPartitionCells + 5] = static_cast<PostingValue>(limit);
  positions[128 * kPostingPartitionCells] = static_cast<PostingValue>(limit + 9);
  Scheduler pool4(4);
  EncodedPostingsCsr encoded = EncodePostingsCsr(offsets, positions, &pool4);
  for (Scheduler* sched : {Scheduler::Serial(), &pool4}) {
    std::vector<PostingValue> decoded(positions.size());
    Status s = DecodePostingsCsr(offsets, encoded.partition_offsets,
                                 encoded.blob.data(), limit, decoded.data(), sched);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("postings partition 65 (cells 4160..): "),
              std::string::npos)
        << s.message();
    EXPECT_NE(s.message().find("out of range"), std::string::npos) << s.message();
  }
}

TEST(PostingCodecTest, ParseCodecNames) {
  EXPECT_EQ(ParsePostingCodec("raw").ValueOrDie(), PostingCodec::kRaw);
  EXPECT_EQ(ParsePostingCodec("compressed").ValueOrDie(),
            PostingCodec::kCompressed);
  auto bad = ParsePostingCodec("zstd");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("unknown posting codec 'zstd'"),
            std::string::npos);
  EXPECT_EQ(std::string(PostingCodecName(PostingCodec::kCompressed)),
            "compressed");
}

}  // namespace
}  // namespace blend
