#include "storage/dictionary.h"

#include "common/hashing.h"

namespace blend {

Dictionary Dictionary::FromCsr(PodVector<uint64_t> offsets,
                               PodVector<char> blob,
                               std::span<const uint64_t> hashes) {
  // At least twice the value count, so lookups always hit an empty slot and
  // stay O(1) expected.
  PodVector<CellId> slots(ProbeTableSize(hashes.size()), kInvalidCellId);
  for (size_t id = 0; id < hashes.size(); ++id) {
    slots[ProbeSlot(slots, hashes[id], kInvalidCellId,
                    [](CellId) { return false; })] = static_cast<CellId>(id);
  }
  Dictionary d;
  d.offsets_.Own(std::move(offsets));
  d.blob_.Own(std::move(blob));
  d.hash_slots_.Own(std::move(slots));
  return d;
}

CellId Dictionary::Find(std::string_view normalized) const {
  if (hash_slots_.empty()) return kInvalidCellId;
  // Linear probing over the precomputed table. Built and loaded tables always
  // keep an empty slot, but the probe count is capped anyway so even an
  // adversarial table terminates.
  const size_t mask = hash_slots_.size() - 1;
  size_t idx = Fnv1a64(normalized) & mask;
  for (size_t probes = 0; probes < hash_slots_.size(); ++probes) {
    const CellId id = hash_slots_[idx];
    if (id == kInvalidCellId) return kInvalidCellId;
    if (Value(id) == normalized) return id;
    idx = (idx + 1) & mask;
  }
  return kInvalidCellId;
}

size_t Dictionary::ApproxBytes() const {
  return offsets_.size() * sizeof(uint64_t) + blob_.size() +
         hash_slots_.size() * sizeof(CellId);
}

}  // namespace blend
