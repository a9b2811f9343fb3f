#include "common/hashing.h"

namespace blend {

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = kFnv1a64Offset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnv1a64Prime;
  }
  return h;
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9E3779B97f4A7C15ULL + (a << 6) + (a >> 2));
}

uint64_t SaltedHash(std::string_view s, uint64_t salt) {
  return Mix64(Fnv1a64(s) ^ Mix64(salt));
}

}  // namespace blend
