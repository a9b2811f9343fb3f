#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "index/all_tables.h"
#include "storage/data_lake.h"
#include "storage/dictionary.h"

namespace blend {

class SnapshotStorage;

/// Physical layout of the AllTables relation.
enum class StoreLayout { kRow, kColumn };

/// Offline indexing options (paper Fig. 2e).
struct IndexBuildOptions {
  StoreLayout layout = StoreLayout::kColumn;
  /// When true, each table's rows are permuted before RowId assignment. The
  /// paper's BLEND(rand) correlation variant indexes "apriori shuffled" rows
  /// so that the correlation seeker's `RowId < h` convenience sample becomes a
  /// random sample (§VIII-G).
  bool shuffle_rows = false;
  uint64_t shuffle_seed = 17;
  /// Worker threads for the offline build. 0 means "one per hardware thread";
  /// 1 (and any negative value) runs every phase inline on
  /// Scheduler::Serial(). The count sets the task geometry of every phase:
  /// the lake is cut into 8 shards per thread (at most one per table), each
  /// a contiguous table range indexed by one task; a hash-partitioned merge
  /// reproduces the serial first-appearance CellId assignment; and the
  /// secondary indexes split into as many cell-id ranges and record chunks
  /// as there are threads. The built index, and its snapshot bytes, are
  /// identical for every thread count.
  int num_threads = 0;
};

/// The order in which a shuffle_rows build indexes the `rows` rows of table
/// `t`: RowId r holds lake row order[r]. A pure function of its arguments, so
/// a shard permutes its tables without knowing the others.
std::vector<int32_t> ShuffledRowOrder(uint64_t seed, TableId t, size_t rows);

/// The built unified index: dictionary + one physical store. Every seeker
/// answers from it alone; a record's RowId is its row's only id, in
/// shuffled builds too.
class IndexBundle {
 public:
  const Dictionary& dictionary() const { return dict_; }

  StoreLayout layout() const { return layout_; }
  const RowStore& row_store() const { return row_store_; }
  const ColumnStore& column_store() const { return column_store_; }

  size_t NumRecords() const {
    return layout_ == StoreLayout::kRow ? row_store_.NumRecords()
                                        : column_store_.NumRecords();
  }
  size_t NumTables() const {
    return layout_ == StoreLayout::kRow ? row_store_.NumTables()
                                        : column_store_.NumTables();
  }

  /// Index storage footprint (records + secondary indexes + dictionary).
  size_t ApproxBytes() const;

  /// True when the store arrays are zero-copy views into a snapshot mapping
  /// (a bundle loaded with OpenSnapshot) instead of heap allocations.
  bool IsSnapshotBacked() const { return storage_ != nullptr; }

  friend class IndexBuilder;
  friend class SnapshotCodec;

 private:
  Dictionary dict_;
  StoreLayout layout_ = StoreLayout::kColumn;
  RowStore row_store_;
  ColumnStore column_store_;
  /// Keeps the mapped snapshot file alive for view-mode bundles; null for
  /// built or heap-loaded bundles.
  std::shared_ptr<const SnapshotStorage> storage_;
};

/// Builds the AllTables index from a data lake: inverted-index rows, XASH
/// super keys per row and QCR quadrant bits per numeric cell, in one pass.
/// The pass is shard-parallel over tables (see IndexBuildOptions::num_threads)
/// and its output does not depend on the thread count.
class IndexBuilder {
 public:
  explicit IndexBuilder(IndexBuildOptions options = {}) : options_(options) {}

  /// Indexes every table of the lake. Empty cells are not indexed.
  IndexBundle Build(const DataLake& lake) const;

 private:
  IndexBuildOptions options_;
};

}  // namespace blend
