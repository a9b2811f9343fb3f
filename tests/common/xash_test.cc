#include "common/xash.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace blend {
namespace {

TEST(XashTest, EmptyValueHashesToZero) { EXPECT_EQ(Xash::HashValue(""), 0u); }

TEST(XashTest, Deterministic) {
  EXPECT_EQ(Xash::HashValue("tom riddle"), Xash::HashValue("tom riddle"));
}

TEST(XashTest, SuperKeyIsOrOfValues) {
  uint64_t a = Xash::HashValue("alpha");
  uint64_t b = Xash::HashValue("beta");
  std::vector<std::string_view> row = {"alpha", "beta"};
  EXPECT_EQ(Xash::SuperKey(row), a | b);
}

TEST(XashTest, MayContainIsReflexive) {
  uint64_t h = Xash::HashValue("value");
  EXPECT_TRUE(Xash::MayContain(h, h));
}

TEST(XashTest, ContainedValueAlwaysPasses) {
  std::vector<std::string_view> row = {"hr", "firenze", "2024"};
  uint64_t super = Xash::SuperKey(row);
  for (auto v : row) {
    EXPECT_TRUE(Xash::MayContain(super, Xash::HashValue(v)));
  }
}

// Property: zero false negatives. For any random row and any query tuple
// drawn from the row, the tuple's super key is contained in the row's.
class XashNoFalseNegativeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XashNoFalseNegativeTest, TupleFromRowPassesFilter) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    size_t row_len = 2 + rng.Uniform(6);
    std::vector<std::string> cells;
    for (size_t i = 0; i < row_len; ++i) {
      std::string s;
      size_t len = 1 + rng.Uniform(14);
      for (size_t j = 0; j < len; ++j) {
        s += static_cast<char>('a' + rng.Uniform(26));
      }
      cells.push_back(s);
    }
    std::vector<std::string_view> row(cells.begin(), cells.end());
    uint64_t super = Xash::SuperKey(row);

    size_t tuple_len = 1 + rng.Uniform(row_len);
    auto idx = rng.SampleIndices(row_len, tuple_len);
    std::vector<std::string_view> tuple;
    for (size_t i : idx) tuple.push_back(cells[i]);
    EXPECT_TRUE(Xash::MayContain(super, Xash::SuperKey(tuple)))
        << "false negative for tuple of size " << tuple_len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XashNoFalseNegativeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(XashTest, FilterHasSelectivity) {
  // The filter must reject a decent share of random non-member tuples;
  // otherwise it is useless as a pruning structure.
  Rng rng(99);
  int rejected = 0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::string> cells;
    for (int i = 0; i < 3; ++i) {
      cells.push_back("row" + std::to_string(rng.Uniform(1000)));
    }
    std::vector<std::string_view> row(cells.begin(), cells.end());
    uint64_t super = Xash::SuperKey(row);
    std::string foreign1 = "zq" + std::to_string(rng.Uniform(100000));
    std::string foreign2 = "xk" + std::to_string(rng.Uniform(100000));
    std::vector<std::string_view> probe = {foreign1, foreign2};
    if (!Xash::MayContain(super, Xash::SuperKey(probe))) ++rejected;
  }
  EXPECT_GT(rejected, trials / 2);
}

TEST(XashTest, LengthBucketSeparatesLengths) {
  // Values sharing rare characters but with very different lengths should
  // differ in the length segment.
  uint64_t short_v = Xash::HashValue("zq");
  uint64_t long_v = Xash::HashValue("zqaaaaaaaaaaaaaaaaaa");
  constexpr uint64_t kLenMask = ~((1ULL << (64 - Xash::kLengthBits)) - 1);
  EXPECT_NE(short_v & kLenMask, long_v & kLenMask);
}

// Golden values captured from the reference implementation. Super keys are
// persisted in snapshot files, so any change here (a different rarity
// order, bit mix or length bucket) would make old snapshots drop MC
// candidates: the containment filter would reject rows it used to pass.

/// HashValue of every single byte 0x00..0xFF.
constexpr uint64_t kSingleByteGolden[256] = {
    0x0400000020000000ULL, 0x0400000000000020ULL, 0x0400020000000000ULL,
    0x0400000100000000ULL, 0x0400008000000000ULL, 0x0400000000000100ULL,
    0x0400010000000000ULL, 0x0500000000000000ULL, 0x0400000000000400ULL,
    0x0400000000200000ULL, 0x0400002000000000ULL, 0x0400000020000000ULL,
    0x0480000000000000ULL, 0x0400001000000000ULL, 0x0400000000000020ULL,
    0x0408000000000000ULL, 0x0400000200000000ULL, 0x0400001000000000ULL,
    0x0400000000000400ULL, 0x0400000000040000ULL, 0x0400400000000000ULL,
    0x0400000004000000ULL, 0x0400000000001000ULL, 0x0400002000000000ULL,
    0x0404000000000000ULL, 0x0480000000000000ULL, 0x0400000040000000ULL,
    0x0400000004000000ULL, 0x0400000000000100ULL, 0x0400000040000000ULL,
    0x0400100000000000ULL, 0x0420000000000000ULL, 0x0420000000000000ULL,
    0x0400000000004000ULL, 0x0400000000080000ULL, 0x0400000004000000ULL,
    0x0600000000000000ULL, 0x0404000000000000ULL, 0x0400000400000000ULL,
    0x0400000000010000ULL, 0x0420000000000000ULL, 0x0400800000000000ULL,
    0x0400000000010000ULL, 0x0440000000000000ULL, 0x0400040000000000ULL,
    0x0400000000040000ULL, 0x0400800000000000ULL, 0x0400000000000400ULL,
    0x0400400000000000ULL, 0x0402000000000000ULL, 0x0400000002000000ULL,
    0x0400000000008000ULL, 0x0400000000008000ULL, 0x0400000001000000ULL,
    0x0400000000000004ULL, 0x0400000080000000ULL, 0x0400020000000000ULL,
    0x0400000000000002ULL, 0x0400000000000400ULL, 0x0400000000020000ULL,
    0x0400000020000000ULL, 0x0400000001000000ULL, 0x0400000000000200ULL,
    0x0400000400000000ULL, 0x0400000000001000ULL, 0x0400100000000000ULL,
    0x0400000000080000ULL, 0x0400002000000000ULL, 0x0400000000040000ULL,
    0x0400000000000400ULL, 0x0400000000200000ULL, 0x0404000000000000ULL,
    0x0400008000000000ULL, 0x0400000000002000ULL, 0x0400000200000000ULL,
    0x0400020000000000ULL, 0x0400020000000000ULL, 0x0400000000010000ULL,
    0x0400000000008000ULL, 0x0408000000000000ULL, 0x0400000040000000ULL,
    0x0400004000000000ULL, 0x0400000000000002ULL, 0x0408000000000000ULL,
    0x0400000008000000ULL, 0x0400000800000000ULL, 0x0404000000000000ULL,
    0x0400010000000000ULL, 0x0400000100000000ULL, 0x0400800000000000ULL,
    0x0400000000010000ULL, 0x0400000020000000ULL, 0x0400008000000000ULL,
    0x0400000000010000ULL, 0x0400000010000000ULL, 0x0400000080000000ULL,
    0x0400200000000000ULL, 0x0400000000000001ULL, 0x0400000800000000ULL,
    0x0400400000000000ULL, 0x0400000000008000ULL, 0x0400000000008000ULL,
    0x0400000000000008ULL, 0x0400000020000000ULL, 0x0400000000000020ULL,
    0x0400000000010000ULL, 0x0410000000000000ULL, 0x0400000002000000ULL,
    0x0410000000000000ULL, 0x0400000000000200ULL, 0x0400000800000000ULL,
    0x0400000000000080ULL, 0x0400000000200000ULL, 0x0400000000040000ULL,
    0x0400000000400000ULL, 0x0400000000080000ULL, 0x0400000200000000ULL,
    0x0400000000000100ULL, 0x0400000000000400ULL, 0x0400000000000020ULL,
    0x0400000002000000ULL, 0x0400000000400000ULL, 0x0400000000000200ULL,
    0x0400000000000001ULL, 0x0400000400000000ULL, 0x0400000004000000ULL,
    0x0400000000000001ULL, 0x0404000000000000ULL, 0x0400040000000000ULL,
    0x0400000000080000ULL, 0x0400000040000000ULL, 0x0410000000000000ULL,
    0x0400000000040000ULL, 0x0400000000000020ULL, 0x0400000000000020ULL,
    0x0420000000000000ULL, 0x0400000000000800ULL, 0x0400000001000000ULL,
    0x0408000000000000ULL, 0x0400020000000000ULL, 0x0400004000000000ULL,
    0x0400020000000000ULL, 0x0600000000000000ULL, 0x0400000000002000ULL,
    0x0400000000010000ULL, 0x0400100000000000ULL, 0x0408000000000000ULL,
    0x0400000000000200ULL, 0x0400000000100000ULL, 0x0400000000000002ULL,
    0x0400000000000001ULL, 0x0400000000040000ULL, 0x0400000000000020ULL,
    0x0400400000000000ULL, 0x0400000004000000ULL, 0x0400000000000200ULL,
    0x0400080000000000ULL, 0x0400000000080000ULL, 0x0400080000000000ULL,
    0x0400000000008000ULL, 0x0400000000008000ULL, 0x0400100000000000ULL,
    0x0400100000000000ULL, 0x0400800000000000ULL, 0x0480000000000000ULL,
    0x0400000000000004ULL, 0x0400000000004000ULL, 0x0400000000008000ULL,
    0x0400000000000002ULL, 0x0400000200000000ULL, 0x0400000000040000ULL,
    0x0400000000000001ULL, 0x0480000000000000ULL, 0x0400000000008000ULL,
    0x0400000000010000ULL, 0x0400200000000000ULL, 0x0400000002000000ULL,
    0x0400000000000001ULL, 0x0480000000000000ULL, 0x0410000000000000ULL,
    0x0400000002000000ULL, 0x0400000000000400ULL, 0x0400000000000004ULL,
    0x0400000000008000ULL, 0x0400000000010000ULL, 0x0400000000000200ULL,
    0x0400020000000000ULL, 0x0404000000000000ULL, 0x0400000002000000ULL,
    0x0400000000000020ULL, 0x0400000000000020ULL, 0x0400000200000000ULL,
    0x0400000008000000ULL, 0x0400000000000001ULL, 0x0600000000000000ULL,
    0x0400000200000000ULL, 0x0400000000001000ULL, 0x0400000000000010ULL,
    0x0400800000000000ULL, 0x0400000000001000ULL, 0x0440000000000000ULL,
    0x0400080000000000ULL, 0x0400000000000400ULL, 0x0400000080000000ULL,
    0x0402000000000000ULL, 0x0400000020000000ULL, 0x0400002000000000ULL,
    0x0400000000008000ULL, 0x0400000200000000ULL, 0x0400000000000010ULL,
    0x0400000010000000ULL, 0x0404000000000000ULL, 0x0400000000400000ULL,
    0x0500000000000000ULL, 0x0400000000000008ULL, 0x0400000000040000ULL,
    0x0600000000000000ULL, 0x0400020000000000ULL, 0x0400000080000000ULL,
    0x0400040000000000ULL, 0x0400000400000000ULL, 0x0400000000000400ULL,
    0x0400010000000000ULL, 0x0400040000000000ULL, 0x0400000000100000ULL,
    0x0408000000000000ULL, 0x0400002000000000ULL, 0x0408000000000000ULL,
    0x0400000000010000ULL, 0x0400000000800000ULL, 0x0400000002000000ULL,
    0x0400000000000040ULL, 0x0400400000000000ULL, 0x0400000002000000ULL,
    0x0400000080000000ULL, 0x0400000400000000ULL, 0x0400800000000000ULL,
    0x0400000000010000ULL, 0x0400000400000000ULL, 0x0400000400000000ULL,
    0x0400000000000200ULL, 0x0400000010000000ULL, 0x0400080000000000ULL,
    0x0402000000000000ULL, 0x0600000000000000ULL, 0x0400200000000000ULL,
    0x0400020000000000ULL, 0x0400000040000000ULL, 0x0408000000000000ULL,
    0x0600000000000000ULL, 0x0400000008000000ULL, 0x0400000000800000ULL,
    0x0400000000080000ULL, 0x0400000000800000ULL, 0x0400000000800000ULL,
    0x0400001000000000ULL,
};

TEST(XashGoldenTest, EverySingleByte) {
  for (int c = 0; c < 256; ++c) {
    const char value[1] = {static_cast<char>(c)};
    EXPECT_EQ(Xash::HashValue(std::string_view(value, 1)), kSingleByteGolden[c])
        << "byte " << c;
  }
}

TEST(XashGoldenTest, LengthBucketBoundaries) {
  // Both sides of every bucket edge: 2/3, 4/5, 6/7, 9/10, 14/15.
  const std::pair<std::string_view, uint64_t> golden[] = {
      {"qu", 0x0402400000000000ULL},
      {"qui", 0x0800804000000000ULL},
      {"quix", 0x0800000800001000ULL},
      {"quixo", 0x1100000000080000ULL},
      {"quixot", 0x1000400020000000ULL},
      {"quixoti", 0x20000000000000a0ULL},
      {"quixotic ", 0x2000c00000000000ULL},
      {"quixotic j", 0x4000000000900000ULL},
      {"quixotic jazz ", 0x4000000000008400ULL},
      {"quixotic jazz b", 0x8000000000100002ULL},
  };
  for (const auto& [value, hash] : golden) {
    EXPECT_EQ(Xash::HashValue(value), hash) << "'" << value << "'";
  }
}

TEST(XashGoldenTest, MixedCaseAndPunctuation) {
  const std::pair<std::string_view, uint64_t> golden[] = {
      {"Tom Riddle", 0x4000000000000200ULL},
      {"tom riddle", 0x4000000000000200ULL},
      {"O'Brien-Smith", 0x4200001000000000ULL},
      {"New_York, NY", 0x4000004000000000ULL},
      {"3.14e+10", 0x2040000000000020ULL},
      {"ZzZz", 0x0800010008000000ULL},
      {"#42!", 0x0800000500000000ULL},
      {"caf\xc3\xa9", 0x1000000000101000ULL},
      {"  padded  ", 0x4100000800000000ULL},
      {"A", 0x0400100000000000ULL},
  };
  for (const auto& [value, hash] : golden) {
    EXPECT_EQ(Xash::HashValue(value), hash) << "'" << value << "'";
  }
}

TEST(XashGoldenTest, RarityOrderOfEveryBytePair) {
  // For a three-byte value {a, b, b}, the two picked characters are {b, b}
  // exactly when b is strictly rarer than a, so hashing all 65536 such
  // values pins the complete rarity order, ties included. Folded into one
  // FNV-style checksum to keep the golden small.
  uint64_t fold = 14695981039346656037ULL;
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      const char value[3] = {static_cast<char>(a), static_cast<char>(b),
                             static_cast<char>(b)};
      fold = (fold ^ Xash::HashValue(std::string_view(value, 3))) * 1099511628211ULL;
    }
  }
  EXPECT_EQ(fold, 0x0602485946a2013aULL);
}

}  // namespace
}  // namespace blend
