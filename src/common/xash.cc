#include "common/xash.h"

#include <algorithm>
#include <array>

#include "common/hashing.h"

namespace blend {

namespace {

// Approximate corpus frequency order of ASCII letters/digits, most frequent
// first. Characters later in this string are rarer and therefore better
// discriminators; MATE picks the least frequent characters of a value.
constexpr std::string_view kFrequencyOrder =
    "etaoinshrdlcumwfgypbvkjxqz0123456789";

/// Rarity rank per byte: the position in kFrequencyOrder (case-folded for
/// letters); punctuation and non-ASCII bytes rank as rare but stable. The
/// ranks pick the bits of persisted super keys, so they must never change.
constexpr std::array<uint8_t, 256> MakeRarity() {
  std::array<uint8_t, 256> rank{};
  for (size_t c = 0; c < rank.size(); ++c) {
    rank[c] = static_cast<uint8_t>(kFrequencyOrder.size() + c % 7);
  }
  for (size_t i = 0; i < kFrequencyOrder.size(); ++i) {
    const auto c = static_cast<unsigned char>(kFrequencyOrder[i]);
    rank[c] = static_cast<uint8_t>(i);
    if (c >= 'a' && c <= 'z') rank[c - 'a' + 'A'] = static_cast<uint8_t>(i);
  }
  return rank;
}

constexpr std::array<uint8_t, 256> kRarity = MakeRarity();

/// Length segment bucket of values shorter than 15 bytes (longer ones take
/// bucket 5): <=2, <=4, <=6, <=9, <=14.
constexpr std::array<uint8_t, 15> kLengthBucket = {0, 0, 0, 1, 1, 2, 2, 3,
                                                   3, 3, 4, 4, 4, 4, 4};

}  // namespace

uint64_t Xash::HashValue(std::string_view value) {
  if (value.empty()) return 0;

  constexpr int kBodyBits = 64 - kLengthBits;  // bits available for characters

  // Select the kCharsPerValue least frequent characters, the earlier position
  // winning ties (so the same character at different positions lights
  // different bits). A key packs the rarity above the inverted position, which
  // makes that order a plain maximum over distinct keys: the scan keeps the
  // two largest with min/max instead of branches.
  static_assert(kCharsPerValue == 2);
  constexpr uint64_t kPosMask = (uint64_t{1} << 48) - 1;  // values < 256 TB
  uint64_t best = 0;
  uint64_t second = 0;  // stays 0 for one-byte values
  for (size_t i = 0; i < value.size(); ++i) {
    const uint64_t key =
        (uint64_t{kRarity[static_cast<unsigned char>(value[i])]} << 48) |
        (kPosMask - i);
    second = std::max(second, std::min(best, key));
    best = std::max(best, key);
  }

  // Bit position depends on character identity and its position within the
  // value, rotated by the value length so that equal characters in values of
  // different lengths separate (MATE's rotation trick).
  auto char_bit = [&value](uint64_t key) {
    const uint64_t pos = kPosMask - (key & kPosMask);
    const uint64_t c = static_cast<unsigned char>(value[pos]);
    return uint64_t{1} << (Mix64((c << 32) ^ (pos << 8) ^ value.size()) % kBodyBits);
  };
  uint64_t h = char_bit(best);
  if (second != 0) h |= char_bit(second);

  // Length segment: one bit in the top kLengthBits chosen by a log-ish bucket.
  const size_t len = value.size();
  const int bucket = len < kLengthBucket.size() ? kLengthBucket[len] : 5;
  h |= uint64_t{1} << (kBodyBits + bucket);
  return h;
}

uint64_t Xash::SuperKey(const std::vector<std::string_view>& row) {
  uint64_t k = 0;
  for (const auto& v : row) k |= HashValue(v);
  return k;
}

}  // namespace blend
