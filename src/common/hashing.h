#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace blend {

/// Open-addressing capacity for `n` keys: the smallest power of two above
/// 2n, so every linear probe sequence ends at an empty slot.
inline size_t ProbeTableSize(size_t n) {
  size_t slots = 1;
  while (slots < 2 * n + 1) slots <<= 1;
  return slots;
}

/// Linear probing over a power-of-two table: the index of the first slot on
/// `hash`'s probe sequence that is `empty` or whose occupant satisfies
/// `matches` (never called on an empty slot). The table must keep an empty
/// slot. Insert-only fills pass a `matches` that is always false.
template <typename Slot, typename Alloc, typename Matches>
size_t ProbeSlot(const std::vector<Slot, Alloc>& table, uint64_t hash,
                 const std::type_identity_t<Slot>& empty, Matches matches) {
  const size_t mask = table.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    if (table[i] == empty || matches(table[i])) return i;
  }
}

/// FNV-1a 64 parameters, for loops that hash bytes as they produce them.
constexpr uint64_t kFnv1a64Offset = 14695981039346656037ULL;
constexpr uint64_t kFnv1a64Prime = 1099511628211ULL;

/// 64-bit FNV-1a over bytes; stable across platforms and runs.
uint64_t Fnv1a64(std::string_view s);

/// Strong 64-bit mix (splitmix64 finalizer); used to derive independent hash
/// families from a base hash. Inline: XASH calls it per value in the build.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97f4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Combine two hashes (boost-style).
uint64_t HashCombine(uint64_t a, uint64_t b);

/// Hash of a string with a salt, for simulating independent hash functions.
uint64_t SaltedHash(std::string_view s, uint64_t salt);

}  // namespace blend
