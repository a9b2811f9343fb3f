#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace blend {

/// XASH: the hash-based row signature from MATE (Esmailoghli et al., VLDB'22),
/// used by BLEND as the `SuperKey` column of the unified AllTables index.
///
/// Each cell value is hashed into a 64-bit word that encodes
///   (a) its least-frequent characters at character-and-position dependent bit
///       positions, and
///   (b) a length bucket in a dedicated segment,
/// and a row's super key is the bitwise OR of the hashes of all its cells.
///
/// The signature is a Bloom-filter-style containment witness: for every value
/// v appearing in row r, `(SuperKey(r) & XashValue(v)) == XashValue(v)` holds,
/// so filtering candidate rows with the super key has 100% recall; false
/// positives are removed by exact validation at the application level.
class Xash {
 public:
  /// Number of bits reserved for the value-length segment (top bits).
  static constexpr int kLengthBits = 6;
  /// Number of least-frequent characters that contribute bits per value.
  static constexpr int kCharsPerValue = 2;

  /// Hash of a single cell value.
  static uint64_t HashValue(std::string_view value);

  /// Super key of a row: OR of the value hashes.
  static uint64_t SuperKey(const std::vector<std::string_view>& row);

  /// Containment test used by the MC seeker and by MATE: does the super key
  /// possibly contain every value of the query tuple?
  static bool MayContain(uint64_t super_key, uint64_t query_key) {
    return (super_key & query_key) == query_key;
  }
};

}  // namespace blend
