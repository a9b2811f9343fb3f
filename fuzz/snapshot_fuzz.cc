// Snapshot loader harness. The snapshot header/section machinery is the
// biggest untrusted-input surface in BLEND: a serving process maps whatever
// artifact it is pointed at. Contract under test (snapshot.h): every
// malformed input returns a descriptive Status — no input bytes may cause
// undefined behavior — and any input the loader ACCEPTS must yield a bundle
// whose posting lists are well-formed.
//
// The custom mutator keeps inputs structure-aware: after generic byte
// mutation it usually re-forges the header / section-table / per-section
// checksums so mutations penetrate past the checksum gate into the section
// and codec validators (occasionally it leaves them stale to keep the gate
// itself covered).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "fuzz_util.h"
#include "index/snapshot.h"

extern "C" size_t LLVMFuzzerMutate(uint8_t* data, size_t size,
                                   size_t max_size);

namespace {

constexpr size_t kMaxInput = 1 << 20;

void WalkBundle(const blend::IndexBundle& bundle) {
  const size_t num_cells = bundle.dictionary().Size();
  const size_t probe = std::min<size_t>(num_cells, 64);
  for (size_t i = 0; i < probe; ++i) {
    const auto id = static_cast<blend::CellId>(i);
    const std::span<const blend::RecordPos> list =
        bundle.layout() == blend::StoreLayout::kRow
            ? bundle.row_store().PostingList(id)
            : bundle.column_store().PostingList(id);
    for (size_t k = 0; k < list.size(); ++k) {
      FUZZ_CHECK(list[k] < bundle.NumRecords(), "posting position out of range");
      FUZZ_CHECK(k == 0 || list[k - 1] < list[k],
                 "posting list not strictly ascending");
    }
  }
  // Every accepted record's RowId must index its table's SuperKeys: read
  // them all, so ASan sees any key served from outside the array.
  uint64_t keys = 0;
  for (blend::RecordPos p = 0; p < bundle.NumRecords(); ++p) {
    keys ^= bundle.layout() == blend::StoreLayout::kRow
                ? bundle.row_store().super_key(p)
                : bundle.column_store().super_key(p);
  }
  (void)keys;
  (void)bundle.ApproxBytes();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return 0;
  auto loaded = blend::internal::LoadSnapshotFromBuffer(data, size);
  if (loaded.ok()) WalkBundle(loaded.value());
  return 0;
}

extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size, unsigned seed) {
  size_t n = LLVMFuzzerMutate(data, size, max_size);
  // Keep 1 in 8 mutants with stale checksums so the gate stays exercised.
  if ((seed & 7u) == 0) return n;
  ReforgeSnapshotChecksums(data, n);
  return n;
}
