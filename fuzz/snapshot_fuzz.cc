// Snapshot loader harness. The snapshot header/section machinery is the
// biggest untrusted-input surface in BLEND: a serving process maps whatever
// artifact it is pointed at. Contract under test (snapshot.h): every
// malformed input returns a descriptive Status — no input bytes may cause
// undefined behavior — and any input the loader ACCEPTS must yield a bundle
// whose posting lists are fully decodable and well-formed.
//
// The custom mutator keeps inputs structure-aware: after generic byte
// mutation it usually re-forges the header / section-table / per-section
// checksums so mutations penetrate past the checksum gate into the section
// and codec validators (occasionally it leaves them stale to keep the gate
// itself covered).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "fuzz_util.h"
#include "index/snapshot.h"

extern "C" size_t LLVMFuzzerMutate(uint8_t* data, size_t size,
                                   size_t max_size);

namespace {

constexpr size_t kHeaderBytes = 72;
constexpr size_t kSectionEntryBytes = 32;
constexpr size_t kMaxInput = 1 << 20;

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

void WalkBundle(const blend::IndexBundle& bundle) {
  const size_t num_cells = bundle.dictionary().Size();
  const size_t probe = std::min<size_t>(num_cells, 64);
  for (size_t i = 0; i < probe; ++i) {
    const auto id = static_cast<blend::CellId>(i);
    const blend::PostingListRef list =
        bundle.layout() == blend::StoreLayout::kRow
            ? bundle.row_store().PostingList(id)
            : bundle.column_store().PostingList(id);
    const std::vector<blend::PostingValue> values = list.ToVector();
    FUZZ_CHECK(values.size() == list.size(), "posting list size mismatch");
    for (size_t k = 0; k < values.size(); ++k) {
      FUZZ_CHECK(values[k] < bundle.NumRecords(),
                 "posting position out of range");
      FUZZ_CHECK(k == 0 || values[k - 1] < values[k],
                 "posting list not strictly ascending");
    }
    // The cursor must agree with the bulk decode, batch by batch.
    blend::PostingCursor cur(list);
    size_t at = 0;
    for (auto batch = cur.NextBatch(); !batch.empty();
         batch = cur.NextBatch()) {
      for (blend::PostingValue v : batch) {
        FUZZ_CHECK(at < values.size(), "cursor yields extra values");
        FUZZ_CHECK(values[at] == v, "cursor disagrees with ToVector");
        ++at;
      }
    }
    FUZZ_CHECK(at == values.size(), "cursor yields too few values");
  }
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
  if (n < kHeaderBytes) return n;
  // Keep 1 in 8 mutants with stale checksums so the gate stays exercised.
  if ((seed & 7u) == 0) return n;

  const uint64_t sections = Load64(data + 48);
  const uint64_t table_bytes = sections * kSectionEntryBytes;
  if (sections <= 64 && kHeaderBytes + table_bytes <= n) {
    for (uint64_t s = 0; s < sections; ++s) {
      uint8_t* e = data + kHeaderBytes + s * kSectionEntryBytes;
      const uint64_t off = Load64(e + 8);
      const uint64_t sz = Load64(e + 16);
      if (off <= n && sz <= n - off) {
        Store64(e + 24, blend::internal::SnapshotChecksum(data + off, sz));
      }
    }
    Store64(data + 56, blend::internal::SnapshotChecksum(data + kHeaderBytes,
                                                         table_bytes));
  }
  Store64(data + 64, blend::internal::SnapshotChecksum(data, 64));
  return n;
}
