#include "index/builder.h"

#include <algorithm>
#include <utility>

#include "common/hashing.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/xash.h"

namespace blend {

size_t IndexBundle::ApproxBytes() const {
  size_t store = layout_ == StoreLayout::kRow ? row_store_.ApproxBytes()
                                              : column_store_.ApproxBytes();
  return store + dict_.ApproxBytes();
}

std::vector<int32_t> ShuffledRowOrder(uint64_t seed, TableId t, size_t rows) {
  std::vector<int32_t> order(rows);
  for (size_t r = 0; r < rows; ++r) order[r] = static_cast<int32_t>(r);
  // Seeding per table — instead of threading one generator through the
  // whole lake — is what makes the shuffled build shard-independent.
  Rng rng(Mix64(seed + 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(t) + 1)));
  rng.Shuffle(&order);
  return order;
}

namespace {

/// One shard's distinct normalized values in first-appearance order, stored
/// flat (CSR offsets into one blob) with each value's FNV-1a hash and XASH
/// computed once, behind an open-addressing table of local ids. The XASHes
/// and the table serve interning only; the merge reads values and hashes.
class ShardDict {
 public:
  size_t Size() const { return hashes_.size(); }
  std::string_view Value(CellId id) const {
    return {blob_.data() + offsets_[id],
            static_cast<size_t>(offsets_[id + 1] - offsets_[id])};
  }
  uint64_t Hash(CellId id) const { return hashes_[id]; }
  uint64_t XashOf(CellId id) const { return xash_[id]; }
  const std::vector<uint64_t>& hashes() const { return hashes_; }

  /// Local id of `value`, whose Fnv1a64 is `hash`; appended when new.
  CellId Intern(std::string_view value, uint64_t hash) {
    if (2 * (Size() + 1) > slots_.size()) Grow();
    CellId& slot = slots_[ProbeSlot(slots_, hash, kInvalidCellId, [&](CellId id) {
      return hashes_[id] == hash && Value(id) == value;
    })];
    if (slot == kInvalidCellId) {
      slot = static_cast<CellId>(Size());
      offsets_.push_back(offsets_.back() + value.size());
      blob_.insert(blob_.end(), value.begin(), value.end());
      hashes_.push_back(hash);
      xash_.push_back(Xash::HashValue(value));
    }
    return slot;
  }

  /// Frees the interning state once the shard is indexed: while the other
  /// shards still intern, the merge's inputs are all this shard keeps.
  void ReleaseInternState() {
    std::vector<uint64_t>().swap(xash_);
    std::vector<CellId>().swap(slots_);
  }

 private:
  /// Doubles the table and reinserts every value from its kept hash.
  void Grow() {
    slots_.assign(std::max<size_t>(1024, 2 * slots_.size()), kInvalidCellId);
    for (CellId id = 0; id < Size(); ++id) {
      slots_[ProbeSlot(slots_, hashes_[id], kInvalidCellId,
                       [](CellId) { return false; })] = id;
    }
  }

  std::vector<uint64_t> offsets_{0};
  std::vector<char> blob_;
  std::vector<uint64_t> hashes_;
  std::vector<uint64_t> xash_;
  std::vector<CellId> slots_;
};

/// A contiguous [begin, end) table range indexed by one task: its records
/// occupy [first_record, first_record + num_records) of the store, and carry
/// shard-local cell ids until the merge rewrites them. Local id `id` is
/// flat id `first_value + id` in the concatenation of all shards' local ids.
/// `super_keys` holds its tables' rows' keys in RowKeys order, so the shards'
/// lists back to back are the store's.
struct Shard {
  TableId begin = 0;
  TableId end = 0;
  size_t first_record = 0;
  size_t num_records = 0;
  size_t first_value = 0;
  ShardDict dict;
  std::vector<uint64_t> super_keys;
};

/// The store's arrays under construction, in the requested layout, written
/// at final positions. They start uninitialized, so each shard task is the
/// first to touch the pages it fills.
struct RecordSink {
  StoreLayout layout;
  PodVector<IndexRecord> rows;  // kRow
  RecordColumns columns;        // kColumn

  RecordSink(StoreLayout l, size_t n)
      : layout(l),
        rows(l == StoreLayout::kRow ? n : 0),
        columns(l == StoreLayout::kColumn ? n : 0) {}

  void Put(size_t pos, const IndexRecord& r) {
    if (layout == StoreLayout::kRow) {
      rows[pos] = r;
    } else {
      columns.Set(pos, r);
    }
  }
  CellId& cell(size_t pos) {
    return layout == StoreLayout::kRow ? rows[pos].cell : columns.cells[pos];
  }
};

/// Shards cut per build thread. A shard's dictionary is interned through
/// per-value random accesses, so smaller shards keep more of it in cache; the
/// surplus shards also let the pool even out their unequal value counts.
constexpr size_t kShardsPerThread = 8;

/// Contiguous table ranges, one per shard, balanced by cell count (tables
/// vary widely in size; splitting by table count alone leaves the shard with
/// the big tables as the critical path).
std::vector<Shard> ShardRanges(const DataLake& lake, size_t num_shards) {
  const auto num_tables = static_cast<TableId>(lake.NumTables());
  const double total = static_cast<double>(lake.TotalCells());
  std::vector<Shard> shards(num_shards);
  size_t closed = 0;
  size_t cells_before = 0;
  for (TableId tid = 0; tid < num_tables; ++tid) {
    cells_before += lake.table(tid).NumCells();
    const TableId tables_left = num_tables - (tid + 1);
    const auto shards_left = static_cast<TableId>(num_shards - closed - 1);
    const double target = total * static_cast<double>(closed + 1) /
                          static_cast<double>(num_shards);
    if (shards_left > 0 && tables_left >= shards_left &&
        static_cast<double>(cells_before) >= target) {
      shards[closed].end = tid + 1;
      shards[++closed].begin = tid + 1;
    }
  }
  shards[closed].end = num_tables;
  return shards;
}

/// Counts the shard's records before indexing it: one per non-blank cell.
void SizeShard(const DataLake& lake, Shard* shard) {
  for (TableId tid = shard->begin; tid < shard->end; ++tid) {
    for (const Column& col : lake.table(tid).columns()) {
      for (const std::string& cell : col.cells) {
        shard->num_records += Trim(cell).empty() ? 0 : 1;
      }
    }
  }
}

/// Parses every cell of `col` once. The column is numeric when every
/// non-blank cell parses and at least one does (Column::IsNumeric); its mean
/// sums the values in cell order like Column::NumericMean, so the quadrant
/// bits match both exactly. On success `values[r]` holds row r's number.
bool ParseNumericColumn(const Column& col, double* values, double* mean) {
  double sum = 0;
  size_t n = 0;
  for (size_t r = 0; r < col.cells.size(); ++r) {
    const std::string_view t = Trim(col.cells[r]);
    if (t.empty()) continue;
    const auto v = ParseNumeric(t);
    if (!v.has_value()) return false;
    values[r] = *v;
    sum += *v;
    ++n;
  }
  if (n == 0) return false;
  *mean = sum / static_cast<double>(n);
  return true;
}

/// Indexes the shard's tables: interns normalized cells into the shard's
/// dictionary, writes one record per non-blank cell (table-major, row-major:
/// the serial emission order) from the shard's first record on, and appends
/// one SuperKey per row up to each table's last row with records (TableRows).
/// Frees the shard dictionary's interning state when done.
void IndexShard(const DataLake& lake, const IndexBuildOptions& options,
                Shard* shard, RecordSink* sink) {
  // Buffers reused across cells and tables: the pass allocates per table at
  // most, never per cell.
  std::string normalized;
  std::vector<double> numbers;
  std::vector<double> means;
  std::vector<uint8_t> numeric;
  std::vector<int32_t> order;
  std::vector<CellId> row_ids;
  size_t pos = shard->first_record;

  for (TableId tid = shard->begin; tid < shard->end; ++tid) {
    const Table& t = lake.table(tid);
    const size_t rows = t.NumRows();
    const size_t cols = t.NumColumns();

    // Per-column numeric typing and mean for the quadrant bit.
    numbers.resize(rows * cols);
    means.assign(cols, 0);
    numeric.assign(cols, 0);
    for (size_t c = 0; c < cols; ++c) {
      numeric[c] = ParseNumericColumn(t.column(c), numbers.data() + c * rows,
                                      &means[c]);
    }

    // RowId assignment order: identity or shuffled (BLEND(rand)).
    if (options.shuffle_rows) {
      order = ShuffledRowOrder(options.shuffle_seed, tid, rows);
    } else {
      order.resize(rows);
      for (size_t r = 0; r < rows; ++r) order[r] = static_cast<int32_t>(r);
    }

    row_ids.resize(cols);
    const size_t first_key = shard->super_keys.size();
    size_t rows_with_records = 0;
    for (size_t out_row = 0; out_row < rows; ++out_row) {
      const size_t src_row = static_cast<size_t>(order[out_row]);
      uint64_t super_key = 0;
      for (size_t c = 0; c < cols; ++c) {
        const uint64_t hash = NormalizeCellHashed(t.At(src_row, c), &normalized);
        row_ids[c] = kInvalidCellId;
        if (normalized.empty()) continue;
        row_ids[c] = shard->dict.Intern(normalized, hash);
        super_key |= shard->dict.XashOf(row_ids[c]);
      }
      shard->super_keys.push_back(super_key);
      for (size_t c = 0; c < cols; ++c) {
        if (row_ids[c] == kInvalidCellId) continue;
        IndexRecord rec{};
        rec.cell = row_ids[c];
        rec.table = tid;
        rec.column = static_cast<int32_t>(c);
        rec.row = static_cast<int32_t>(out_row);
        rec.quadrant = kQuadrantNull;
        if (numeric[c] != 0) {
          rec.quadrant = numbers[c * rows + src_row] >= means[c] ? 1 : 0;
        }
        sink->Put(pos++, rec);
        rows_with_records = out_row + 1;
      }
    }
    shard->super_keys.resize(first_key + rows_with_records);
  }
  shard->dict.ReleaseInternState();
}

/// Top hash bits that pick a value's merge partition. The partition count
/// only shapes the work split; the ids it yields do not depend on it.
constexpr int kPartitionBits = 8;
constexpr size_t kPartitions = size_t{1} << kPartitionBits;

/// A merge-table entry: the first shard to present a value, and the value's
/// local id there.
struct OwnerSlot {
  uint32_t shard;
  CellId id;
  bool operator==(const OwnerSlot&) const = default;
};
constexpr OwnerSlot kFreeSlot{0xFFFFFFFFu, 0};

/// The deterministic merge. Global CellIds follow first appearance in the
/// serial scan order: shards cover ascending table ranges and each shard
/// lists its values in local first-appearance order, so a value belongs to
/// the first shard holding it, and owned values are numbered shard by shard
/// in local order. Returns the global CellId of every flat id and emits the
/// dictionary. Every output array starts uninitialized and is first written
/// by the shard task that owns its slots.
PodVector<CellId> MergeShards(const std::vector<Shard>& shards, size_t num_flat,
                              Scheduler* sched, Dictionary* dict) {
  const size_t num_shards = shards.size();
  // owner[f]: flat id of the first appearance of flat value f's string (f
  // itself when f's shard owns it). A single shard owns everything.
  PodVector<uint32_t> owner(num_flat);
  sched->ParallelFor(num_shards, [&](size_t s) {
    const size_t end = shards[s].first_value + shards[s].dict.Size();
    for (size_t f = shards[s].first_value; f < end; ++f) {
      owner[f] = static_cast<uint32_t>(f);
    }
  });

  if (num_shards > 1) {
    // Bucket every shard's local ids by partition, keeping local order.
    std::vector<std::vector<uint32_t>> bucket_begin(num_shards);
    std::vector<std::vector<CellId>> bucket_ids(num_shards);
    sched->ParallelFor(num_shards, [&](size_t s) {
      const std::vector<uint64_t>& hashes = shards[s].dict.hashes();
      std::vector<uint32_t>& begin = bucket_begin[s];
      begin.assign(kPartitions + 1, 0);
      for (uint64_t h : hashes) ++begin[(h >> (64 - kPartitionBits)) + 1];
      for (size_t p = 0; p < kPartitions; ++p) begin[p + 1] += begin[p];
      std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
      bucket_ids[s].resize(hashes.size());
      for (CellId id = 0; id < hashes.size(); ++id) {
        bucket_ids[s][cursor[hashes[id] >> (64 - kPartitionBits)]++] = id;
      }
    });
    // Per partition, walk the shards in order: the first shard to present a
    // value owns it. Each task takes a contiguous run of partitions and
    // reuses one table, reserved for the largest, for them all instead of
    // allocating one per partition.
    auto candidates = [&](size_t p) {
      size_t n = 0;
      for (size_t s = 0; s < num_shards; ++s) {
        n += bucket_begin[s][p + 1] - bucket_begin[s][p];
      }
      return n;
    };
    sched->ParallelFor(num_shards, [&](size_t task) {
      const size_t first = task * kPartitions / num_shards;
      const size_t last = (task + 1) * kPartitions / num_shards;
      std::vector<OwnerSlot> table;
      size_t most = 0;
      for (size_t p = first; p < last; ++p) most = std::max(most, candidates(p));
      table.reserve(ProbeTableSize(most));
      for (size_t p = first; p < last; ++p) {
        table.assign(ProbeTableSize(candidates(p)), kFreeSlot);
        for (size_t s = 0; s < num_shards; ++s) {
          const ShardDict& d = shards[s].dict;
          for (uint32_t b = bucket_begin[s][p]; b < bucket_begin[s][p + 1]; ++b) {
            const CellId id = bucket_ids[s][b];
            const uint64_t h = d.Hash(id);
            const std::string_view v = d.Value(id);
            OwnerSlot& slot = table[ProbeSlot(table, h, kFreeSlot, [&](OwnerSlot o) {
              const ShardDict& od = shards[o.shard].dict;
              return od.Hash(o.id) == h && od.Value(o.id) == v;
            })];
            if (slot == kFreeSlot) {
              slot = OwnerSlot{static_cast<uint32_t>(s), id};
            } else {
              owner[shards[s].first_value + id] =
                  static_cast<uint32_t>(shards[slot.shard].first_value + slot.id);
            }
          }
        }
      }
    });
  }

  // Owned values and bytes per shard; their prefix sums place every shard's
  // owned values in the global id space and in the value blob. The counters
  // are task-local and stored once: incrementing the shared slots in the
  // loop would bounce one cache line between all tasks.
  std::vector<size_t> id_base(num_shards + 1, 0);
  std::vector<size_t> byte_base(num_shards + 1, 0);
  sched->ParallelFor(num_shards, [&](size_t s) {
    const ShardDict& d = shards[s].dict;
    size_t values = 0;
    size_t bytes = 0;
    for (CellId id = 0; id < d.Size(); ++id) {
      const size_t f = shards[s].first_value + id;
      if (owner[f] != f) continue;
      ++values;
      bytes += d.Value(id).size();
    }
    id_base[s + 1] = values;
    byte_base[s + 1] = bytes;
  });
  for (size_t s = 0; s < num_shards; ++s) {
    id_base[s + 1] += id_base[s];
    byte_base[s + 1] += byte_base[s];
  }

  const size_t num_values = id_base[num_shards];
  PodVector<uint64_t> offsets(num_values + 1);
  PodVector<char> blob(byte_base[num_shards]);
  PodVector<uint64_t> hashes(num_values);
  PodVector<CellId> cell_of(num_flat);
  sched->ParallelFor(num_shards, [&](size_t s) {
    const ShardDict& d = shards[s].dict;
    size_t next = id_base[s];
    size_t byte = byte_base[s];
    for (CellId id = 0; id < d.Size(); ++id) {
      const size_t f = shards[s].first_value + id;
      if (owner[f] != f) continue;
      const std::string_view v = d.Value(id);
      offsets[next] = byte;
      std::copy(v.begin(), v.end(), blob.begin() + static_cast<ptrdiff_t>(byte));
      hashes[next] = d.Hash(id);
      cell_of[f] = static_cast<CellId>(next++);
      byte += v.size();
    }
  });
  offsets[num_values] = blob.size();
  // Every owner is numbered now; shared values take their owner's id.
  sched->ParallelFor(num_shards, [&](size_t s) {
    const size_t end = shards[s].first_value + shards[s].dict.Size();
    // Owned entries are only read in this pass (other shards' tasks read
    // them), so no element is both written and read concurrently.
    for (size_t f = shards[s].first_value; f < end; ++f) {
      if (owner[f] != f) cell_of[f] = cell_of[owner[f]];
    }
  });
  *dict = Dictionary::FromCsr(std::move(offsets), std::move(blob), hashes, sched);
  return cell_of;
}

}  // namespace

IndexBundle IndexBuilder::Build(const DataLake& lake) const {
  IndexBundle bundle;
  bundle.layout_ = options_.layout;

  // 0 = one per hardware thread; negative values clamp to serial rather than
  // silently selecting maximum parallelism. The shard geometry is fixed by
  // this knob alone, never by pool occupancy, and the merge makes the output
  // independent of the geometry too.
  const size_t want = ResolveThreads(options_.num_threads);
  // Shards and merge partitions run as task groups on the process-wide pool
  // (the offline counterpart of the query engine's morsel tasks).
  Scheduler* sched = want > 1 ? Scheduler::Default() : Scheduler::Serial();
  std::vector<Shard> shards = ShardRanges(
      lake, std::max<size_t>(1, std::min(kShardsPerThread * want, lake.NumTables())));

  // Record counts first, so every shard writes its records straight to
  // their final positions.
  sched->ParallelFor(shards.size(), [&](size_t s) { SizeShard(lake, &shards[s]); });
  size_t num_records = 0;
  for (Shard& shard : shards) {
    shard.first_record = num_records;
    num_records += shard.num_records;
  }
  BLEND_CHECK(num_records <= kMaxRecords, "a store holds at most 2^32 - 1 records");
  RecordSink sink(options_.layout, num_records);
  sched->ParallelFor(shards.size(), [&](size_t s) {
    IndexShard(lake, options_, &shards[s], &sink);
  });

  size_t num_flat = 0;
  for (Shard& shard : shards) {
    shard.first_value = num_flat;
    num_flat += shard.dict.Size();
  }
  const PodVector<CellId> cell_of =
      MergeShards(shards, num_flat, sched, &bundle.dict_);
  std::vector<size_t> first_key(shards.size() + 1, 0);
  for (size_t s = 0; s < shards.size(); ++s) {
    first_key[s + 1] = first_key[s] + shards[s].super_keys.size();
  }
  PodVector<uint64_t> super_keys(first_key.back());
  sched->ParallelFor(shards.size(), [&](size_t s) {
    const size_t end = shards[s].first_record + shards[s].num_records;
    for (size_t pos = shards[s].first_record; pos < end; ++pos) {
      CellId& cell = sink.cell(pos);
      cell = cell_of[shards[s].first_value + cell];
    }
    std::copy(shards[s].super_keys.begin(), shards[s].super_keys.end(),
              super_keys.begin() + static_cast<ptrdiff_t>(first_key[s]));
  });
  shards.clear();

  // The secondary indexes split into as many tasks as there are shards
  // wanted, independent of the lake's table count.
  const size_t num_cells = bundle.dict_.Size();
  if (options_.layout == StoreLayout::kRow) {
    bundle.row_store_.Build(std::move(sink.rows), std::move(super_keys), num_cells,
                            lake.NumTables(), want, sched);
  } else {
    bundle.column_store_.Build(std::move(sink.columns), std::move(super_keys),
                               num_cells, lake.NumTables(), want, sched);
  }
  return bundle;
}

}  // namespace blend
