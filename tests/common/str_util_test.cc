#include "common/str_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/hashing.h"

namespace blend {
namespace {

TEST(StrUtilTest, ToLower) {
  EXPECT_EQ(ToLower("HeLLo 123"), "hello 123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\n a b \r"), "a b");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StrUtilTest, NormalizeCell) {
  EXPECT_EQ(NormalizeCell("  Tom Riddle "), "tom riddle");
  EXPECT_EQ(NormalizeCell("HR"), "hr");
}

TEST(StrUtilTest, NormalizeCellHashedIsNormalizeCellAndItsHash) {
  std::string out = "stale contents";
  for (std::string_view raw :
       {"  Tom Riddle ", "MiXeD", "\t\v\f\r\n x Y \n", " \xC3\x89T\xE9 ", "\xC0Z@[`{",
        "", "   ", "a"}) {
    SCOPED_TRACE(raw);
    const uint64_t hash = NormalizeCellHashed(raw, &out);
    EXPECT_EQ(out, ToLower(Trim(raw)));
    EXPECT_EQ(out, NormalizeCell(raw));
    EXPECT_EQ(hash, Fnv1a64(NormalizeCell(raw)));
  }
  // Non-ASCII bytes pass through; only A-Z fold (not '@', '[', '`', '{').
  NormalizeCellHashed(" \xC3\x89T\xE9 ", &out);
  EXPECT_EQ(out, "\xC3\x89t\xE9");
  NormalizeCellHashed("\xC0Z@[`{", &out);
  EXPECT_EQ(out, "\xC0z@[`{");
  EXPECT_EQ(NormalizeCellHashed("", &out), Fnv1a64(""));
  EXPECT_TRUE(out.empty());
}

TEST(StrUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StrUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrUtilTest, ParseNumericAcceptsNumbers) {
  EXPECT_DOUBLE_EQ(*ParseNumeric("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseNumeric(" -2 "), -2.0);
  EXPECT_DOUBLE_EQ(*ParseNumeric("1e3"), 1000.0);
}

TEST(StrUtilTest, ParseNumericRejectsNonNumbers) {
  EXPECT_FALSE(ParseNumeric("abc").has_value());
  EXPECT_FALSE(ParseNumeric("12x").has_value());
  EXPECT_FALSE(ParseNumeric("").has_value());
  EXPECT_FALSE(ParseNumeric("  ").has_value());
}

TEST(StrUtilTest, ParseNumericAcceptsDecimalEdgeForms) {
  EXPECT_DOUBLE_EQ(*ParseNumeric(".5"), 0.5);
  EXPECT_DOUBLE_EQ(*ParseNumeric("5."), 5.0);
  EXPECT_DOUBLE_EQ(*ParseNumeric("+.25"), 0.25);
  EXPECT_DOUBLE_EQ(*ParseNumeric("-0.5E-2"), -0.005);
  EXPECT_DOUBLE_EQ(*ParseNumeric("007"), 7.0);
}

// strtod accepts "inf", "nan" and hex floats; cell typing must not. A lake
// column of "NaN"/"Inf" markers is text, and hex-float strings are ids, not
// quantities — treating either as numeric poisons the correlation and
// aggregation seekers.
TEST(StrUtilTest, ParseNumericRejectsStrtodExtensions) {
  EXPECT_FALSE(ParseNumeric("inf").has_value());
  EXPECT_FALSE(ParseNumeric("INF").has_value());
  EXPECT_FALSE(ParseNumeric("-inf").has_value());
  EXPECT_FALSE(ParseNumeric("infinity").has_value());
  EXPECT_FALSE(ParseNumeric("nan").has_value());
  EXPECT_FALSE(ParseNumeric("NaN").has_value());
  EXPECT_FALSE(ParseNumeric("-nan").has_value());
  EXPECT_FALSE(ParseNumeric("nan(0x1)").has_value());
  EXPECT_FALSE(ParseNumeric("0x1p3").has_value());
  EXPECT_FALSE(ParseNumeric("0X1A").has_value());
  EXPECT_FALSE(ParseNumeric("0x.8p1").has_value());
}

TEST(StrUtilTest, ParseNumericRejectsOverflowToInfinity) {
  EXPECT_FALSE(ParseNumeric("1e999").has_value());
  EXPECT_FALSE(ParseNumeric("-1e999").has_value());
  // Underflow to zero is fine — the value is finite.
  EXPECT_DOUBLE_EQ(*ParseNumeric("1e-999"), 0.0);
}

TEST(StrUtilTest, ParseNumericMatchesStrtodBitwise) {
  // strtod in the "C" locale (this binary never calls setlocale) is the
  // reference. memcmp compares bit patterns, so -0.0 against 0.0 and every
  // subnormal's last bit count.
  std::vector<std::string> inputs = {
      "-0", "-0.0e5", "-1e-999", "0e999999", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "4.9406564584124654e-324",
      "2.2250738585072011e-308", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "-1.7976931348623159e308",
      "0.000000000000000000000000000001e-300", "123456789012345678901234567890",
      "9007199254740993", "+.1e+1", "00000000000000000000001e-330"};
  std::mt19937_64 rng(20240607);
  auto digits = [&](int n, bool nonzero_first) {
    std::string out;
    for (int i = 0; i < n; ++i) {
      const uint64_t d = nonzero_first && i == 0 ? 1 + rng() % 9 : rng() % 10;
      out += static_cast<char>('0' + d);
    }
    return out;
  };
  for (int k = 0; k < 12000; ++k) {
    const char* const kSigns[] = {"", "-", "+"};
    std::string s = kSigns[rng() % 3];
    // Mantissas of 1 to 25 digits, often beyond the 17 a double round-trips.
    const int int_digits = static_cast<int>(rng() % 21);
    const int frac_digits = static_cast<int>(rng() % 6);
    s += digits(int_digits, rng() % 4 != 0);
    if (frac_digits > 0 || int_digits == 0) {
      s += '.' + digits(std::max(frac_digits, 1), false);
    }
    if (rng() % 8 != 0) {
      s += rng() % 2 != 0 ? 'e' : 'E';
      // Exponents cluster at the extremes: subnormals, the overflow edge
      // and underflow to zero; the rest spread over the whole range.
      const int kLow[] = {-330, 290, -380, -400};
      const uint64_t kWidth[] = {30, 30, 30, 800};
      const size_t band = rng() % 4;
      int exponent = kLow[band] + static_cast<int>(rng() % kWidth[band]);
      exponent -= int_digits;  // keep the value near the chosen magnitude
      if (exponent >= 0 && rng() % 2 != 0) s += '+';
      s += std::to_string(exponent);
    }
    inputs.push_back(s);
  }
  ASSERT_GE(inputs.size(), 10000u);
  for (const std::string& s : inputs) {
    const double want = std::strtod(s.c_str(), nullptr);
    const std::optional<double> got = ParseNumeric(s);
    if (!std::isfinite(want)) {
      EXPECT_FALSE(got.has_value()) << s;
      continue;
    }
    ASSERT_TRUE(got.has_value()) << s;
    EXPECT_EQ(std::memcmp(&*got, &want, sizeof(double)), 0)
        << s << ": got " << *got << ", strtod " << want;
  }
}

TEST(StrUtilTest, ParseNumericRejectsMalformedDecimals) {
  EXPECT_FALSE(ParseNumeric(".").has_value());
  EXPECT_FALSE(ParseNumeric("+").has_value());
  EXPECT_FALSE(ParseNumeric("-.").has_value());
  EXPECT_FALSE(ParseNumeric("e5").has_value());
  EXPECT_FALSE(ParseNumeric("1e").has_value());
  EXPECT_FALSE(ParseNumeric("1e+").has_value());
  EXPECT_FALSE(ParseNumeric("1.2.3").has_value());
  EXPECT_FALSE(ParseNumeric("1 2").has_value());
}

TEST(StrUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a$X$b$X$", "$X$", "1"), "a1b1");
  EXPECT_EQ(ReplaceAll("none", "$X$", "1"), "none");
  EXPECT_EQ(ReplaceAll("aaa", "a", "aa"), "aaaaaa");
}

TEST(StrUtilTest, SqlQuoteEscapesQuotes) {
  EXPECT_EQ(SqlQuote("it's"), "'it''s'");
  EXPECT_EQ(SqlQuote("plain"), "'plain'");
}

TEST(StrUtilTest, SqlInList) {
  EXPECT_EQ(SqlInList({"a", "b'c"}), "'a','b''c'");
  EXPECT_EQ(SqlInList({}), "");
}

TEST(StrUtilTest, SqlInListInts) {
  EXPECT_EQ(SqlInListInts({1, -2, 3}), "1,-2,3");
  EXPECT_EQ(SqlInListInts({}), "");
}

}  // namespace
}  // namespace blend
