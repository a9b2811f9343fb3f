#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/array_ref.h"
#include "storage/data_lake.h"
#include "storage/dictionary.h"

namespace blend {

class SnapshotCodec;

/// Quadrant value for non-numeric cells (SQL NULL in the paper's Fig. 3).
constexpr int8_t kQuadrantNull = -1;

/// One record of the unified AllTables relation (paper Fig. 3): one per
/// non-blank cell, with CellValue (interned), TableId, ColumnId, RowId and
/// Quadrant. CellValue carries the DataXFormer inverted index, Quadrant the
/// QCR correlation bit. The sixth attribute, the XASH/MATE SuperKey, is a
/// per-row value: each store keeps it once per row (RowKeys) and serves it
/// per record through `super_key(pos)`.
struct IndexRecord {
  CellId cell;
  TableId table;
  int32_t column;
  int32_t row;
  int8_t quadrant;
};

/// Physical position of a record within a store.
using RecordPos = uint32_t;

/// Most records one store holds: positions, and the postings CSR offsets
/// that index them, are 32-bit.
inline constexpr uint64_t kMaxRecords = std::numeric_limits<RecordPos>::max();

/// The AllTables relation as one array per attribute: ColumnStore's physical
/// form, which the builder fills in place. The arrays start uninitialized:
/// the builder's shard tasks write every element.
struct RecordColumns {
  PodVector<CellId> cells;
  PodVector<TableId> tables;
  PodVector<int32_t> columns;
  PodVector<int32_t> rows;
  PodVector<int8_t> quadrants;

  explicit RecordColumns(size_t n = 0)
      : cells(n), tables(n), columns(n), rows(n), quadrants(n) {}

  void Set(size_t i, const IndexRecord& r) {
    cells[i] = r.cell;
    tables[i] = r.table;
    columns[i] = r.column;
    rows[i] = r.row;
    quadrants[i] = r.quadrant;
  }
};

/// Rows of table `t`: its last record's RowId + 1, or 0 for a table without
/// records. Records are in (TableId, RowId) order, so this reads one record;
/// rows without records past the last one are not counted.
template <typename Store>
uint64_t TableRows(const Store& store, TableId t) {
  const auto [lo, hi] = store.TableRange(t);
  return lo == hi ? 0 : static_cast<uint64_t>(store.row(hi - 1)) + 1;
}

/// The SuperKey column at its own grain: one XASH key per row instead of one
/// per cell. Row r of table t is `keys[base[t] + r]`; `base` (NumTables() + 1
/// prefix sums of TableRows) is derived from the store in O(tables) and never
/// persisted, so a snapshot stores only `keys`.
struct RowKeys {
  PodArray<uint64_t> keys;
  PodArray<uint64_t> base;

  uint64_t At(TableId t, int32_t r) const {
    return keys[base[static_cast<size_t>(t)] + static_cast<uint64_t>(r)];
  }
  /// The prefix sums of TableRows over the store's tables.
  template <typename Store>
  static PodVector<uint64_t> Bases(const Store& store) {
    PodVector<uint64_t> base(store.NumTables() + 1);
    base[0] = 0;
    for (size_t t = 0; t < store.NumTables(); ++t) {
      base[t + 1] = base[t] + TableRows(store, static_cast<TableId>(t));
    }
    return base;
  }
  size_t ApproxBytes() const { return (keys.size() + base.size()) * sizeof(uint64_t); }
};

/// Secondary structures both physical layouts share: the in-database hash
/// index on CellValue (postings of physical positions, stored as one
/// flattened CSR so a snapshot can serve the whole index from two fixed-width
/// arrays) and the clustered index on TableId (contiguous [begin, end) pairs
/// flattened the same way, since records are emitted table-ordered).
///
/// Postings are always raw positions in memory. A snapshot's postings codec
/// (index/codec.h) is a file encoding only: a compressed snapshot is decoded
/// once at open into `posting_positions`, and a raw one is served from the
/// file as it is.
struct SecondaryIndexes {
  /// CSR offsets: cell id's postings are positions
  /// [posting_offsets[id], posting_offsets[id + 1]). Size num_cells + 1.
  PodArray<RecordPos> posting_offsets;
  /// All posting lists back to back, each ascending.
  PodArray<RecordPos> posting_positions;
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

  /// The positions of `id`'s records, ascending; empty for an id outside
  /// the index.
  std::span<const RecordPos> PostingList(CellId id) const {
    const size_t i = static_cast<size_t>(id);
    if (i + 1 >= posting_offsets.size()) return {};
    return posting_positions.span().subspan(
        static_cast<size_t>(posting_offsets[i]),
        static_cast<size_t>(posting_offsets[i + 1] - posting_offsets[i]));
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

  /// Adopts the records and the per-row SuperKeys (RowKeys order: table by
  /// table, TableRows keys each), and builds the secondary indexes over the
  /// records (see SecondaryIndexes::Build).
  void Build(PodVector<IndexRecord> records, PodVector<uint64_t> super_keys,
             size_t num_cells, size_t num_tables, size_t num_tasks, Scheduler* sched);

  size_t NumRecords() const { return records_.size(); }
  CellId cell(RecordPos i) const { return records_[i].cell; }
  TableId table(RecordPos i) const { return records_[i].table; }
  int32_t column(RecordPos i) const { return records_[i].column; }
  int32_t row(RecordPos i) const { return records_[i].row; }
  uint64_t super_key(RecordPos i) const {
    return row_keys_.At(records_[i].table, records_[i].row);
  }
  int8_t quadrant(RecordPos i) const { return records_[i].quadrant; }

  std::span<const RecordPos> PostingList(CellId id) const {
    return secondary_.PostingList(id);
  }
  std::pair<RecordPos, RecordPos> TableRange(TableId id) const {
    return secondary_.TableRange(id);
  }
  std::span<const RecordPos> QuadrantPositions() const {
    return secondary_.quadrant_positions.span();
  }
  size_t NumTables() const { return secondary_.NumTables(); }
  const SecondaryIndexes& secondary() const { return secondary_; }

  size_t ApproxBytes() const {
    return records_.size() * sizeof(IndexRecord) + row_keys_.ApproxBytes() +
           secondary_.ApproxBytes();
  }

 private:
  friend class SnapshotCodec;

  PodArray<IndexRecord> records_;
  RowKeys row_keys_;
  SecondaryIndexes secondary_;
};

/// SoA physical layout: column store. A scan that needs only TableId and
/// RowId touches two tightly packed arrays.
class ColumnStore {
 public:
  static constexpr bool kIsColumnStore = true;

  /// Adopts the columns and the per-row SuperKeys (as RowStore::Build), and
  /// builds the secondary indexes over the columns.
  void Build(RecordColumns records, PodVector<uint64_t> super_keys,
             size_t num_cells, size_t num_tables, size_t num_tasks, Scheduler* sched);

  size_t NumRecords() const { return cells_.size(); }
  CellId cell(RecordPos i) const { return cells_[i]; }
  TableId table(RecordPos i) const { return tables_[i]; }
  int32_t column(RecordPos i) const { return columns_[i]; }
  int32_t row(RecordPos i) const { return rows_[i]; }
  uint64_t super_key(RecordPos i) const { return row_keys_.At(tables_[i], rows_[i]); }
  int8_t quadrant(RecordPos i) const { return quadrants_[i]; }

  std::span<const RecordPos> PostingList(CellId id) const {
    return secondary_.PostingList(id);
  }
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
                            sizeof(int8_t)) +
           row_keys_.ApproxBytes() + secondary_.ApproxBytes();
  }

 private:
  friend class SnapshotCodec;

  PodArray<CellId> cells_;
  PodArray<TableId> tables_;
  PodArray<int32_t> columns_;
  PodArray<int32_t> rows_;
  PodArray<int8_t> quadrants_;
  RowKeys row_keys_;
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

/// The record group that holds record `p`: JoinKeyGroup(store, store.table(p),
/// store.row(p)), found by stepping out from `p` along the (TableId, RowId)
/// store order instead of searching the table's range. A group is one row's
/// cells, so this costs one step per cell of the row.
template <typename Store>
std::pair<RecordPos, RecordPos> RecordGroupAt(const Store& store, RecordPos p) {
  const TableId t = store.table(p);
  const int32_t r = store.row(p);
  auto same = [&](RecordPos q) { return store.row(q) == r && store.table(q) == t; };
  RecordPos first = p;
  RecordPos end = p + 1;
  while (first > 0 && same(first - 1)) --first;
  while (end < store.NumRecords() && same(end)) ++end;
  return {first, end};
}

}  // namespace blend
