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

}  // namespace

uint64_t Xash::HashValue(std::string_view value) {
  if (value.empty()) return 0;

  constexpr int kBodyBits = 64 - kLengthBits;  // bits available for characters

  // Select the kCharsPerValue least frequent characters (with their positions,
  // so the same character at different positions lights different bits).
  struct Pick {
    int rarity;
    unsigned char c;
    size_t pos;
  };
  std::array<Pick, kCharsPerValue> picks{};
  int n_picks = 0;
  // Keep `picks[0..n_picks)` sorted rarest-first with a stable insertion step
  // (n_picks <= kCharsPerValue = 2, so a sort call would be overkill anyway).
  auto sift_up = [&picks](int idx) {
    for (int j = idx; j > 0 && picks[j].rarity > picks[j - 1].rarity; --j) {
      std::swap(picks[j], picks[j - 1]);
    }
  };
  for (size_t i = 0; i < value.size(); ++i) {
    const auto c = static_cast<unsigned char>(value[i]);
    Pick p{kRarity[c], c, i};
    if (n_picks < kCharsPerValue) {
      picks[n_picks] = p;
      sift_up(n_picks);
      ++n_picks;
    } else if (p.rarity > picks[n_picks - 1].rarity) {
      picks[n_picks - 1] = p;
      sift_up(n_picks - 1);
    }
  }

  uint64_t h = 0;
  for (int i = 0; i < n_picks; ++i) {
    // Bit position depends on character identity and its position within the
    // value, rotated by the value length so that equal characters in values of
    // different lengths separate (MATE's rotation trick).
    uint64_t mixed = Mix64((static_cast<uint64_t>(picks[i].c) << 32) ^
                           (static_cast<uint64_t>(picks[i].pos) << 8) ^
                           static_cast<uint64_t>(value.size()));
    h |= 1ULL << (mixed % kBodyBits);
  }

  // Length segment: one bit in the top kLengthBits chosen by a log-ish bucket.
  size_t len = value.size();
  int bucket;
  if (len <= 2) {
    bucket = 0;
  } else if (len <= 4) {
    bucket = 1;
  } else if (len <= 6) {
    bucket = 2;
  } else if (len <= 9) {
    bucket = 3;
  } else if (len <= 14) {
    bucket = 4;
  } else {
    bucket = 5;
  }
  h |= 1ULL << (kBodyBits + bucket);
  return h;
}

uint64_t Xash::SuperKey(const std::vector<std::string_view>& row) {
  uint64_t k = 0;
  for (const auto& v : row) k |= HashValue(v);
  return k;
}

}  // namespace blend
