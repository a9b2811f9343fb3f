#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/array_ref.h"

namespace blend {

class Scheduler;
class SnapshotCodec;

/// Identifier of an interned (normalized) cell value.
using CellId = uint32_t;

/// Sentinel for "value not present in the lake".
constexpr CellId kInvalidCellId = 0xFFFFFFFFu;

/// The distinct normalized cell values under dense CellIds. The AllTables
/// index stores CellIds instead of strings: this is both the dictionary
/// encoding a column store would apply to a low-cardinality nvarchar column
/// and the key space of the in-database hash index on CellValue.
///
/// One physical form for built and snapshot-loaded indexes alike: three
/// fixed-width arrays — CSR offsets, the concatenated value blob, and an
/// open-addressing hash table. The builder emits them directly (FromCsr) and
/// a snapshot serves them as they are (zero-copy views for OpenSnapshot,
/// heap copies for ReadSnapshot), so neither writing nor loading a snapshot
/// hashes or interns anything. The dictionary is immutable once built.
class Dictionary {
 public:
  /// Adopts `offsets.size() - 1` distinct values, value `id` being
  /// blob[offsets[id], offsets[id + 1]), and fills the hash table from
  /// `hashes[id] == Fnv1a64(Value(id))` as if inserting in id order. The
  /// table is therefore a pure function of the value sequence, which keeps
  /// snapshot files deterministic. From kParallelFillMinValues values on, a
  /// multi-threaded `sched` fills it in parallel (same table); null or a
  /// serial scheduler fills it inline.
  static Dictionary FromCsr(PodVector<uint64_t> offsets, PodVector<char> blob,
                            std::span<const uint64_t> hashes,
                            Scheduler* sched = nullptr);

  /// Value count from which FromCsr's table fill may run in parallel. Below
  /// it the table (at most 128 KB) fills serially in well under 0.1 ms.
  static constexpr size_t kParallelFillMinValues = size_t{1} << 14;

  /// Looks a normalized value up; kInvalidCellId when absent.
  CellId Find(std::string_view normalized) const;

  /// The interned string for an id.
  std::string_view Value(CellId id) const {
    const uint64_t begin = offsets_[id];
    return {blob_.data() + begin, static_cast<size_t>(offsets_[id + 1] - begin)};
  }

  size_t Size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// Footprint in bytes of the three arrays.
  size_t ApproxBytes() const;

  /// The hash table as FromCsr laid it out (what a snapshot stores).
  std::span<const CellId> hash_slots() const { return hash_slots_.span(); }

 private:
  friend class SnapshotCodec;

  // hash_slots_ is a power-of-two open-addressing table of CellIds (empty
  // slots hold kInvalidCellId) keyed by FNV-1a with linear probing, sized
  // above twice the value count so every probe sequence ends at an empty
  // slot.
  PodArray<uint64_t> offsets_;  // Size() + 1; empty for a default dictionary
  PodArray<char> blob_;
  PodArray<CellId> hash_slots_;
};

}  // namespace blend
