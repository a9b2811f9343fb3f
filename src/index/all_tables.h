#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/array_ref.h"
#include "index/codec.h"
#include "storage/data_lake.h"
#include "storage/dictionary.h"

namespace blend {

class SnapshotCodec;

/// Quadrant value for non-numeric cells (SQL NULL in the paper's Fig. 3).
constexpr int8_t kQuadrantNull = -1;

/// One row of the unified AllTables relation (paper Fig. 3):
///   CellValue (interned), TableId, ColumnId, RowId, SuperKey, Quadrant.
/// CellValue carries the DataXFormer inverted index, SuperKey the XASH/MATE
/// multi-column signature, Quadrant the QCR correlation bit.
struct IndexRecord {
  CellId cell;
  TableId table;
  int32_t column;
  int32_t row;
  uint64_t super_key;
  int8_t quadrant;
};

/// Physical position of a record within a store.
using RecordPos = uint32_t;

/// The AllTables relation as one array per attribute: ColumnStore's physical
/// form, which the builder fills in place. The arrays start uninitialized:
/// the builder's shard tasks write every element.
struct RecordColumns {
  PodVector<CellId> cells;
  PodVector<TableId> tables;
  PodVector<int32_t> columns;
  PodVector<int32_t> rows;
  PodVector<uint64_t> super_keys;
  PodVector<int8_t> quadrants;

  explicit RecordColumns(size_t n = 0)
      : cells(n), tables(n), columns(n), rows(n), super_keys(n), quadrants(n) {}

  void Set(size_t i, const IndexRecord& r) {
    cells[i] = r.cell;
    tables[i] = r.table;
    columns[i] = r.column;
    rows[i] = r.row;
    super_keys[i] = r.super_key;
    quadrants[i] = r.quadrant;
  }
};

/// Secondary structures both physical layouts share: the in-database hash
/// index on CellValue (postings of physical positions, stored as one
/// flattened CSR so a snapshot can serve the whole index from two fixed-width
/// arrays) and the clustered index on TableId (contiguous [begin, end) pairs
/// flattened the same way, since records are emitted table-ordered).
///
/// Postings live behind the codec seam (index/codec.h): `codec` selects raw
/// positions (builder output, v1 snapshots) or block-compressed containers
/// (compressed v2 snapshots, where the blob is served zero-copy out of the
/// mapping). Consumers read lists through `PostingList` + `PostingCursor`
/// and never see the difference.
struct SecondaryIndexes {
  /// CSR offsets: cell id's postings are positions
  /// [posting_offsets[id], posting_offsets[id + 1]). Size num_cells + 1.
  /// Logical element offsets in both codec modes — they carry every list's
  /// length, which the compressed encoding does not repeat.
  PodArray<uint64_t> posting_offsets;
  /// Raw codec: all posting lists back to back, each ascending.
  PodArray<RecordPos> posting_positions;
  /// Compressed codec: byte offsets into `posting_blob` per partition of
  /// kPostingPartitionCells cell ids (ceil(num_cells / K) + 1 entries) and
  /// the concatenated encoded partitions.
  PodArray<uint64_t> posting_partitions;
  PodArray<uint8_t> posting_blob;
  PostingCodec codec = PostingCodec::kRaw;
  /// table_ranges[2 * t] / [2 * t + 1] = the [begin, end) physical range of
  /// table t.
  PodArray<RecordPos> table_ranges;
  /// Positions of records with a non-NULL Quadrant, ascending: the partial
  /// index on the Quadrant column that serves the correlation seeker's
  /// `Quadrant IS NOT NULL` scan.
  PodArray<RecordPos> quadrant_positions;

  /// Builds every structure from a store's records (RowStore or ColumnStore,
  /// read through their per-field accessors) as `num_tasks` tasks on
  /// `sched`. Task t fills the postings of the t-th contiguous cell-id range
  /// (scanning every record, so each list stays ascending) and the quadrant
  /// positions and table ranges of the t-th contiguous record chunk. Every
  /// element has one writer and lands where a serial pass would put it, so
  /// the arrays do not depend on `num_tasks`; each array is first touched
  /// by the tasks that fill it.
  template <typename Store>
  void Build(const Store& store, size_t num_cells, size_t num_tables,
             size_t num_tasks, Scheduler* sched);

  /// List length alone, straight from the CSR offsets — O(1) in both codec
  /// modes (PostingList on a compressed index walks partition headers).
  size_t PostingCount(CellId id) const {
    const size_t i = static_cast<size_t>(id);
    if (i + 1 >= posting_offsets.size()) return 0;
    return static_cast<size_t>(posting_offsets[i + 1] - posting_offsets[i]);
  }

  PostingListRef PostingList(CellId id) const {
    const size_t i = static_cast<size_t>(id);
    if (i + 1 >= posting_offsets.size()) return {};
    if (codec == PostingCodec::kRaw) {
      return PostingListRef::Raw(
          {posting_positions.data() + posting_offsets[i],
           static_cast<size_t>(posting_offsets[i + 1] - posting_offsets[i])});
    }
    const size_t begin = i - i % kPostingPartitionCells;
    const size_t lists = std::min(kPostingPartitionCells,
                                  posting_offsets.size() - 1 - begin);
    return FindPostingList(
        posting_blob.data() + posting_partitions[i / kPostingPartitionCells],
        posting_offsets.span().subspan(begin, lists + 1), i - begin);
  }
  /// Empty range for any id outside the indexed lake: callers combine ids
  /// from user input, and a bad table id must read as "no records", not out
  /// of bounds.
  std::pair<RecordPos, RecordPos> TableRange(TableId id) const {
    const auto i = static_cast<size_t>(id);
    if (id < 0 || 2 * i + 1 >= table_ranges.size()) return {0, 0};
    return {table_ranges[2 * i], table_ranges[2 * i + 1]};
  }
  size_t NumTables() const { return table_ranges.size() / 2; }
  size_t ApproxBytes() const;
};

/// AoS physical layout: PostgreSQL-style row store. Every field access pulls
/// the whole record through the cache.
class RowStore {
 public:
  static constexpr bool kIsColumnStore = false;

  /// Adopts the records and builds the secondary indexes over them (see
  /// SecondaryIndexes::Build).
  void Build(PodVector<IndexRecord> records, size_t num_cells, size_t num_tables,
             size_t num_tasks, Scheduler* sched);

  size_t NumRecords() const { return records_.size(); }
  CellId cell(RecordPos i) const { return records_[i].cell; }
  TableId table(RecordPos i) const { return records_[i].table; }
  int32_t column(RecordPos i) const { return records_[i].column; }
  int32_t row(RecordPos i) const { return records_[i].row; }
  uint64_t super_key(RecordPos i) const { return records_[i].super_key; }
  int8_t quadrant(RecordPos i) const { return records_[i].quadrant; }

  PostingListRef PostingList(CellId id) const {
    return secondary_.PostingList(id);
  }
  size_t PostingCount(CellId id) const { return secondary_.PostingCount(id); }
  std::pair<RecordPos, RecordPos> TableRange(TableId id) const {
    return secondary_.TableRange(id);
  }
  std::span<const RecordPos> QuadrantPositions() const {
    return secondary_.quadrant_positions.span();
  }
  size_t NumTables() const { return secondary_.NumTables(); }
  const SecondaryIndexes& secondary() const { return secondary_; }

  size_t ApproxBytes() const {
    return records_.size() * sizeof(IndexRecord) + secondary_.ApproxBytes();
  }

 private:
  friend class SnapshotCodec;

  PodArray<IndexRecord> records_;
  SecondaryIndexes secondary_;
};

/// SoA physical layout: column store. A scan that needs only TableId and
/// RowId touches two tightly packed arrays.
class ColumnStore {
 public:
  static constexpr bool kIsColumnStore = true;

  /// Adopts the columns and builds the secondary indexes over them (see
  /// SecondaryIndexes::Build).
  void Build(RecordColumns records, size_t num_cells, size_t num_tables,
             size_t num_tasks, Scheduler* sched);

  size_t NumRecords() const { return cells_.size(); }
  CellId cell(RecordPos i) const { return cells_[i]; }
  TableId table(RecordPos i) const { return tables_[i]; }
  int32_t column(RecordPos i) const { return columns_[i]; }
  int32_t row(RecordPos i) const { return rows_[i]; }
  uint64_t super_key(RecordPos i) const { return super_keys_[i]; }
  int8_t quadrant(RecordPos i) const { return quadrants_[i]; }

  PostingListRef PostingList(CellId id) const {
    return secondary_.PostingList(id);
  }
  size_t PostingCount(CellId id) const { return secondary_.PostingCount(id); }
  std::pair<RecordPos, RecordPos> TableRange(TableId id) const {
    return secondary_.TableRange(id);
  }
  std::span<const RecordPos> QuadrantPositions() const {
    return secondary_.quadrant_positions.span();
  }
  size_t NumTables() const { return secondary_.NumTables(); }
  const SecondaryIndexes& secondary() const { return secondary_; }

  size_t ApproxBytes() const {
    return cells_.size() * (sizeof(CellId) + sizeof(TableId) + 2 * sizeof(int32_t) +
                            sizeof(uint64_t) + sizeof(int8_t)) +
           secondary_.ApproxBytes();
  }

 private:
  friend class SnapshotCodec;

  PodArray<CellId> cells_;
  PodArray<TableId> tables_;
  PodArray<int32_t> columns_;
  PodArray<int32_t> rows_;
  PodArray<uint64_t> super_keys_;
  PodArray<int8_t> quadrants_;
  SecondaryIndexes secondary_;
};

/// First position in [lo, hi) where `after` holds, for a predicate that is
/// false and then true along the range. Gallops from `guess` (in [lo, hi])
/// in doubling steps towards the boundary, then binary-searches the bracket
/// it found: O(log d) probes for a boundary d positions from the guess.
template <typename Pred>
RecordPos GallopPartition(RecordPos lo, RecordPos hi, RecordPos guess,
                          const Pred& after) {
  size_t step = 1;
  if (guess < hi && !after(guess)) {
    lo = guess + 1;
    while (step <= hi - lo) {
      const RecordPos probe = lo + static_cast<RecordPos>(step - 1);
      if (after(probe)) {
        hi = probe;
        break;
      }
      lo = probe + 1;
      step *= 2;
    }
  } else {
    hi = guess;
    while (step <= hi - lo) {
      const RecordPos probe = hi - static_cast<RecordPos>(step);
      if (!after(probe)) {
        lo = probe + 1;
        break;
      }
      hi = probe;
      step *= 2;
    }
  }
  while (lo < hi) {
    const RecordPos mid = lo + (hi - lo) / 2;
    if (after(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// The record group [first, end) of row `r` of table `t`: one record per
/// non-blank cell of the row, in column order. The SQL lookup join reads a
/// prefix row's partners through it, and MC validation a candidate row's
/// cells. Records are emitted table-major, row-major, so rows ascend within
/// the table's range and a row past the table's last one (or a negative
/// one) resolves to the empty group at the next table's first position. The
/// rows of a table run from 0 to its last
/// record's row, so the group's start is first guessed by interpolating `r`
/// over the range and then galloped to; its end is galloped to from the
/// start, so a wide row costs O(log width) probes.
template <typename Store>
std::pair<RecordPos, RecordPos> JoinKeyGroup(const Store& store, TableId t, int32_t r) {
  const auto [lo, hi] = store.TableRange(t);
  if (lo == hi) return {lo, hi};
  const auto last = static_cast<uint64_t>(store.row(hi - 1));
  const auto row = static_cast<uint64_t>(r);
  if (row > last) return {hi, hi};
  const RecordPos guess = lo + static_cast<RecordPos>((hi - lo) * row / (last + 1));
  const RecordPos first =
      GallopPartition(lo, hi, guess, [&](RecordPos p) { return store.row(p) >= r; });
  const RecordPos end =
      GallopPartition(first, hi, first, [&](RecordPos p) { return store.row(p) > r; });
  return {first, end};
}

}  // namespace blend
