#pragma once

// Shared helpers for the fuzz harnesses. FUZZ_CHECK is the harness analogue
// of an assertion: a violated property aborts so the driver (libFuzzer or the
// standalone runner) records the input as a crash.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "index/snapshot.h"

#define FUZZ_CHECK(cond, what)                                          \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "FUZZ_CHECK failed at %s:%d: %s\n", __FILE__, \
                   __LINE__, what);                                     \
      std::abort();                                                     \
    }                                                                   \
  } while (0)

/// Snapshot file layout (snapshot.cc's FileHeader and SectionEntry): a
/// 72-byte header with the section count at byte 48, the section table's
/// checksum at 56 and the header's at 64, then 32-byte entries {u32 id, u32
/// reserved, u64 offset, u64 size, u64 checksum}.
inline constexpr size_t kSnapshotHeaderBytes = 72;
inline constexpr size_t kSnapshotEntryBytes = 32;

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

/// Recomputes the checksum of every in-bounds section (when the table is
/// plausible), then the section table's and the header's, so an edit to the
/// first `n` bytes of a snapshot reaches the loader's semantic checks
/// instead of its integrity checks.
inline void ReforgeSnapshotChecksums(uint8_t* data, size_t n) {
  if (n < kSnapshotHeaderBytes) return;
  const uint64_t sections = Load64(data + 48);
  const uint64_t table_bytes = sections * kSnapshotEntryBytes;
  if (sections <= 64 && kSnapshotHeaderBytes + table_bytes <= n) {
    for (uint64_t s = 0; s < sections; ++s) {
      uint8_t* e = data + kSnapshotHeaderBytes + s * kSnapshotEntryBytes;
      const uint64_t off = Load64(e + 8);
      const uint64_t sz = Load64(e + 16);
      if (off <= n && sz <= n - off) {
        Store64(e + 24, blend::internal::SnapshotChecksum(data + off, sz));
      }
    }
    Store64(data + 56, blend::internal::SnapshotChecksum(data + kSnapshotHeaderBytes,
                                                         table_bytes));
  }
  Store64(data + 64, blend::internal::SnapshotChecksum(data, 64));
}
