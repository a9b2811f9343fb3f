#include "index/builder.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hashing.h"
#include "common/str_util.h"
#include "common/xash.h"
#include "index/snapshot.h"
#include "lakegen/join_lake.h"
#include "lakegen/workloads.h"

namespace blend {
namespace {

template <typename Store>
void ExpectStoresEqual(const Store& a, const Store& b, size_t num_cells) {
  ASSERT_EQ(a.NumRecords(), b.NumRecords());
  ASSERT_EQ(a.NumTables(), b.NumTables());
  for (RecordPos i = 0; i < a.NumRecords(); ++i) {
    ASSERT_EQ(a.cell(i), b.cell(i)) << "record " << i;
    ASSERT_EQ(a.table(i), b.table(i)) << "record " << i;
    ASSERT_EQ(a.column(i), b.column(i)) << "record " << i;
    ASSERT_EQ(a.row(i), b.row(i)) << "record " << i;
    ASSERT_EQ(a.super_key(i), b.super_key(i)) << "record " << i;
    ASSERT_EQ(a.quadrant(i), b.quadrant(i)) << "record " << i;
  }
  auto spans_equal = [](std::span<const RecordPos> x, std::span<const RecordPos> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  for (CellId id = 0; id < static_cast<CellId>(num_cells); ++id) {
    ASSERT_TRUE(spans_equal(a.PostingList(id), b.PostingList(id))) << "cell " << id;
  }
  for (TableId t = 0; t < static_cast<TableId>(a.NumTables()); ++t) {
    ASSERT_EQ(a.TableRange(t), b.TableRange(t)) << "table " << t;
  }
  ASSERT_TRUE(spans_equal(a.QuadrantPositions(), b.QuadrantPositions()));
  ASSERT_EQ(a.ApproxBytes(), b.ApproxBytes());
}

/// Full bit-identity: same dictionary ids, records, secondary indexes and
/// footprint.
void ExpectBundlesIdentical(const IndexBundle& a, const IndexBundle& b) {
  ASSERT_EQ(a.layout(), b.layout());
  ASSERT_EQ(a.dictionary().Size(), b.dictionary().Size());
  for (CellId id = 0; id < static_cast<CellId>(a.dictionary().Size()); ++id) {
    ASSERT_EQ(a.dictionary().Value(id), b.dictionary().Value(id)) << "id " << id;
  }
  if (a.layout() == StoreLayout::kRow) {
    ExpectStoresEqual(a.row_store(), b.row_store(), a.dictionary().Size());
  } else {
    ExpectStoresEqual(a.column_store(), b.column_store(), a.dictionary().Size());
  }
  ASSERT_EQ(a.ApproxBytes(), b.ApproxBytes());
}

DataLake SmallLake() {
  DataLake lake("small");
  Table t("t0");
  t.AddColumn("name");
  t.AddColumn("score");
  (void)t.AppendRow({"Alpha", "1"});
  (void)t.AppendRow({"Beta", "3"});
  (void)t.AppendRow({"alpha ", "5"});  // normalizes to same token as row 0
  (void)t.AppendRow({"", "7"});        // empty cell not indexed
  lake.AddTable(std::move(t));
  return lake;
}

TEST(IndexBuilderTest, IndexesNormalizedCellsOnly) {
  DataLake lake = SmallLake();
  IndexBundle bundle = IndexBuilder().Build(lake);
  // 7 non-empty cells (4 score values + 3 names).
  EXPECT_EQ(bundle.NumRecords(), 7u);
  // alpha appears twice but is one dictionary entry.
  EXPECT_NE(bundle.dictionary().Find("alpha"), kInvalidCellId);
  EXPECT_EQ(bundle.dictionary().Find("Alpha"), kInvalidCellId);  // not normalized
}

TEST(IndexBuilderTest, QuadrantBitsMatchColumnMean) {
  DataLake lake = SmallLake();
  IndexBundle bundle = IndexBuilder().Build(lake);
  const auto& store = bundle.column_store();
  // Mean of {1,3,5,7} = 4; quadrant = value >= 4.
  for (size_t i = 0; i < store.NumRecords(); ++i) {
    if (store.column(i) != 1) {
      EXPECT_EQ(store.quadrant(i), kQuadrantNull);
      continue;
    }
    std::string_view v = bundle.dictionary().Value(store.cell(i));
    double num = *ParseNumeric(v);
    EXPECT_EQ(store.quadrant(i), num >= 4.0 ? 1 : 0) << "value " << v;
  }
}

TEST(IndexBuilderTest, PostingsAreComplete) {
  DataLake lake = SmallLake();
  IndexBundle bundle = IndexBuilder().Build(lake);
  const auto& store = bundle.column_store();
  CellId alpha = bundle.dictionary().Find("alpha");
  ASSERT_NE(alpha, kInvalidCellId);
  EXPECT_EQ(store.PostingList(alpha).size(), 2u);
  for (RecordPos p : store.PostingList(alpha)) {
    EXPECT_EQ(store.cell(p), alpha);
  }
}

TEST(IndexBuilderTest, TableRangesCoverAllRecords) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 20;
  DataLake lake = lakegen::MakeJoinLake(spec);
  IndexBundle bundle = IndexBuilder().Build(lake);
  const auto& store = bundle.column_store();
  size_t covered = 0;
  for (TableId t = 0; t < static_cast<TableId>(store.NumTables()); ++t) {
    auto [b, e] = store.TableRange(t);
    for (RecordPos p = b; p < e; ++p) {
      EXPECT_EQ(store.table(p), t);
      ++covered;
    }
  }
  EXPECT_EQ(covered, store.NumRecords());
}

TEST(IndexBuilderTest, TableRangeRejectsOutOfRangeIds) {
  // Mirrors the Postings guard: ids outside the indexed lake (negative or too
  // large — both arise when callers feed user input straight into the
  // clustered index) must read as an empty range, never out of bounds.
  DataLake lake = SmallLake();
  IndexBuildOptions row_opts;
  row_opts.layout = StoreLayout::kRow;
  IndexBundle row = IndexBuilder(row_opts).Build(lake);
  IndexBundle col = IndexBuilder().Build(lake);
  const auto num_tables = static_cast<TableId>(col.NumTables());
  const std::pair<RecordPos, RecordPos> empty{0, 0};
  for (TableId bad : {TableId{-1}, TableId{-1000}, num_tables,
                      static_cast<TableId>(num_tables + 7)}) {
    EXPECT_EQ(row.row_store().TableRange(bad), empty) << "table " << bad;
    EXPECT_EQ(col.column_store().TableRange(bad), empty) << "table " << bad;
  }
  // In-range ids are unaffected by the guard.
  EXPECT_EQ(col.column_store().TableRange(0).second, col.NumRecords());
}

TEST(IndexBuilderTest, RowAndColumnStoresHoldIdenticalRecords) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 15;
  DataLake lake = lakegen::MakeJoinLake(spec);

  IndexBuildOptions row_opts;
  row_opts.layout = StoreLayout::kRow;
  IndexBundle row = IndexBuilder(row_opts).Build(lake);
  IndexBundle col = IndexBuilder().Build(lake);

  ASSERT_EQ(row.row_store().NumRecords(), col.column_store().NumRecords());
  for (size_t i = 0; i < row.row_store().NumRecords(); ++i) {
    EXPECT_EQ(row.row_store().cell(i), col.column_store().cell(i));
    EXPECT_EQ(row.row_store().table(i), col.column_store().table(i));
    EXPECT_EQ(row.row_store().column(i), col.column_store().column(i));
    EXPECT_EQ(row.row_store().row(i), col.column_store().row(i));
    EXPECT_EQ(row.row_store().super_key(i), col.column_store().super_key(i));
    EXPECT_EQ(row.row_store().quadrant(i), col.column_store().quadrant(i));
  }
}

TEST(IndexBuilderTest, SuperKeyConsistentWithinRow) {
  DataLake lake = SmallLake();
  IndexBundle bundle = IndexBuilder().Build(lake);
  const auto& store = bundle.column_store();
  // All records of the same (table, row) share one super key.
  std::unordered_map<int64_t, uint64_t> seen;
  for (size_t i = 0; i < store.NumRecords(); ++i) {
    int64_t key = (static_cast<int64_t>(store.table(i)) << 32) | store.row(i);
    auto it = seen.find(key);
    if (it == seen.end()) {
      seen.emplace(key, store.super_key(i));
    } else {
      EXPECT_EQ(it->second, store.super_key(i));
    }
  }
}

TEST(IndexBuilderTest, ShuffledRowsMapBackToOriginals) {
  // RowId r of a shuffled table holds lake row ShuffledRowOrder(...)[r].
  auto fig1 = lakegen::MakeFig1Lake();
  IndexBuildOptions opts;
  opts.shuffle_rows = true;
  opts.shuffle_seed = 5;
  IndexBundle bundle = IndexBuilder(opts).Build(fig1.lake);
  const auto& store = bundle.column_store();
  bool moved = false;
  for (size_t i = 0; i < store.NumRecords(); ++i) {
    TableId t = store.table(i);
    const Table& table = fig1.lake.table(t);
    const std::vector<int32_t> order = ShuffledRowOrder(opts.shuffle_seed, t,
                                                        table.NumRows());
    int32_t orig = order[static_cast<size_t>(store.row(i))];
    moved = moved || orig != store.row(i);
    std::string_view indexed = bundle.dictionary().Value(store.cell(i));
    // The indexed cell must equal the normalized original cell.
    EXPECT_EQ(indexed, NormalizeCell(table.At(static_cast<size_t>(orig),
                                              static_cast<size_t>(store.column(i)))));
  }
  EXPECT_TRUE(moved);  // the shuffle permuted some row
}

TEST(IndexBuilderTest, IdentityRowMapWithoutShuffle) {
  // Without shuffle_rows, RowId r holds lake row r.
  auto fig1 = lakegen::MakeFig1Lake();
  IndexBundle bundle = IndexBuilder().Build(fig1.lake);
  const auto& store = bundle.column_store();
  ASSERT_GT(store.NumRecords(), 0u);
  for (size_t i = 0; i < store.NumRecords(); ++i) {
    const Table& table = fig1.lake.table(store.table(i));
    EXPECT_EQ(bundle.dictionary().Value(store.cell(i)),
              NormalizeCell(table.At(static_cast<size_t>(store.row(i)),
                                     static_cast<size_t>(store.column(i)))));
  }
}

TEST(IndexBuilderTest, QuadrantPositionsIndexIsComplete) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 25;
  spec.numeric_col_prob = 0.5;
  DataLake lake = lakegen::MakeJoinLake(spec);
  IndexBundle bundle = IndexBuilder().Build(lake);
  const auto& store = bundle.column_store();

  std::unordered_set<RecordPos> indexed(store.QuadrantPositions().begin(),
                                        store.QuadrantPositions().end());
  size_t expected = 0;
  for (RecordPos p = 0; p < store.NumRecords(); ++p) {
    if (store.quadrant(p) != kQuadrantNull) {
      ++expected;
      EXPECT_TRUE(indexed.count(p) > 0) << "missing position " << p;
    } else {
      EXPECT_FALSE(indexed.count(p) > 0) << "spurious position " << p;
    }
  }
  EXPECT_EQ(indexed.size(), expected);
  // Ascending order (the builder emits in physical order).
  for (size_t i = 1; i < store.QuadrantPositions().size(); ++i) {
    EXPECT_LT(store.QuadrantPositions()[i - 1], store.QuadrantPositions()[i]);
  }
}

TEST(IndexBuilderTest, ParallelBuildIsBitIdentical) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 40;
  spec.numeric_col_prob = 0.5;
  DataLake lake = lakegen::MakeJoinLake(spec);

  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    for (bool shuffle : {false, true}) {
      IndexBuildOptions opts;
      opts.layout = layout;
      opts.shuffle_rows = shuffle;
      opts.num_threads = 1;
      IndexBundle serial = IndexBuilder(opts).Build(lake);
      // 16 threads cut 8 x 16 shards, more than the lake's 40 tables.
      for (int threads : {2, 3, 4, 16}) {
        opts.num_threads = threads;
        IndexBundle parallel = IndexBuilder(opts).Build(lake);
        SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                     " shuffle=" + std::to_string(shuffle) +
                     " threads=" + std::to_string(threads));
        ExpectBundlesIdentical(serial, parallel);
      }
    }
  }
}

TEST(IndexBuilderTest, ParallelBuildWithMoreThreadsThanTables) {
  DataLake lake = SmallLake();  // one table
  IndexBuildOptions opts;
  opts.num_threads = 8;
  IndexBundle parallel = IndexBuilder(opts).Build(lake);
  opts.num_threads = 1;
  IndexBundle serial = IndexBuilder(opts).Build(lake);
  ExpectBundlesIdentical(serial, parallel);
}

/// A lake whose duplicates cross every shard boundary: a hand-made first
/// and last table around lakegen tables. "Alpha"/" alpha " normalize equal,
/// "omega" first appears in the last table, and the numeric column mixes
/// "+1" and "1e3" with empty and whitespace-only cells.
DataLake OracleLake() {
  DataLake lake("oracle");
  Table first("first");
  first.AddColumn("name");
  first.AddColumn("score");
  first.AddColumn("mixed");
  (void)first.AppendRow({"Alpha", "+1", "1e3"});
  (void)first.AppendRow({"beta", "", "abc"});
  (void)first.AppendRow({"   ", "1e3", ""});
  (void)first.AppendRow({"gamma", "  ", "+1"});
  (void)first.AppendRow({"BETA ", "7", "Alpha"});
  lake.AddTable(std::move(first));

  lakegen::JoinLakeSpec spec;
  spec.num_tables = 30;
  spec.numeric_col_prob = 0.5;
  spec.domain_vocab = 300;
  DataLake middle = lakegen::MakeJoinLake(spec);
  for (size_t t = 0; t < middle.NumTables(); ++t) {
    lake.AddTable(std::move(middle.table(static_cast<TableId>(t))));
  }

  Table last("last");
  last.AddColumn("name");
  last.AddColumn("score");
  (void)last.AppendRow({" alpha ", "2"});  // 2 is the column mean: quadrant 1
  (void)last.AppendRow({"omega", "+1"});
  (void)last.AppendRow({"Omega", ""});
  (void)last.AppendRow({"", "  "});  // a row without records
  (void)last.AppendRow({"gamma", "3"});
  lake.AddTable(std::move(last));
  return lake;
}

struct OracleRecord {
  CellId cell;
  TableId table;
  int32_t column;
  int32_t row;
  uint64_t super_key;
  int8_t quadrant;
};

template <typename Store>
void ExpectRecordsMatch(const Store& store, const std::vector<OracleRecord>& want) {
  ASSERT_EQ(store.NumRecords(), want.size());
  for (RecordPos i = 0; i < want.size(); ++i) {
    const OracleRecord& w = want[i];
    ASSERT_EQ(store.cell(i), w.cell) << "record " << i;
    ASSERT_EQ(store.table(i), w.table) << "record " << i;
    ASSERT_EQ(store.column(i), w.column) << "record " << i;
    ASSERT_EQ(store.row(i), w.row) << "record " << i;
    ASSERT_EQ(store.super_key(i), w.super_key) << "record " << i;
    ASSERT_EQ(store.quadrant(i), w.quadrant) << "record " << i;
  }
}

TEST(IndexBuilderTest, MatchesFirstAppearanceOracle) {
  // The oracle shares no code with the builder's interning, typing or merge:
  // a std::map interner over NormalizeCell in serial scan order, and
  // quadrants from Column::IsNumeric / Column::NumericMean.
  const DataLake lake = OracleLake();
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    for (bool shuffle : {false, true}) {
      for (int threads : {1, 2, 3, 4, 8}) {
        SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                     " shuffle=" + std::to_string(shuffle) +
                     " threads=" + std::to_string(threads));
        IndexBuildOptions opts;
        opts.layout = layout;
        opts.shuffle_rows = shuffle;
        opts.num_threads = threads;
        const IndexBundle bundle = IndexBuilder(opts).Build(lake);

        std::map<std::string, CellId> ids;
        std::vector<std::string> values;
        std::vector<OracleRecord> want;
        for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
          const Table& table = lake.table(t);
          std::vector<std::optional<double>> means(table.NumColumns());
          for (size_t c = 0; c < table.NumColumns(); ++c) {
            if (table.column(c).IsNumeric()) means[c] = table.column(c).NumericMean();
          }
          const std::vector<int32_t> order = ShuffledRowOrder(opts.shuffle_seed, t,
                                                              table.NumRows());
          std::vector<bool> seen_row(table.NumRows(), false);
          for (size_t row = 0; row < table.NumRows(); ++row) {
            const int32_t src = shuffle ? order[row] : static_cast<int32_t>(row);
            ASSERT_GE(src, 0);
            ASSERT_LT(static_cast<size_t>(src), table.NumRows());
            ASSERT_FALSE(seen_row[static_cast<size_t>(src)]) << "row map repeats";
            seen_row[static_cast<size_t>(src)] = true;
            const size_t first = want.size();
            uint64_t super_key = 0;
            for (size_t c = 0; c < table.NumColumns(); ++c) {
              const std::string& raw = table.At(static_cast<size_t>(src), c);
              const std::string norm = NormalizeCell(raw);
              if (norm.empty()) continue;
              auto [it, added] = ids.emplace(norm, static_cast<CellId>(ids.size()));
              if (added) values.push_back(norm);
              super_key |= Xash::HashValue(norm);
              int8_t quadrant = kQuadrantNull;
              if (means[c].has_value()) {
                quadrant = *ParseNumeric(raw) >= *means[c] ? 1 : 0;
              }
              want.push_back({it->second, t, static_cast<int32_t>(c),
                              static_cast<int32_t>(row), 0, quadrant});
            }
            for (size_t i = first; i < want.size(); ++i) want[i].super_key = super_key;
          }
        }

        const Dictionary& dict = bundle.dictionary();
        ASSERT_EQ(dict.Size(), values.size());
        for (CellId id = 0; id < values.size(); ++id) {
          ASSERT_EQ(dict.Value(id), values[id]) << "id " << id;
          ASSERT_EQ(dict.Find(values[id]), id) << values[id];
        }
        EXPECT_EQ(dict.Find("Alpha"), kInvalidCellId);  // not normalized
        EXPECT_EQ(dict.Find(" alpha "), kInvalidCellId);
        EXPECT_EQ(dict.Find(""), kInvalidCellId);
        EXPECT_EQ(dict.Find("absent value"), kInvalidCellId);
        EXPECT_EQ(dict.Find("omega"), ids.at("omega"));
        if (layout == StoreLayout::kRow) {
          ExpectRecordsMatch(bundle.row_store(), want);
        } else {
          ExpectRecordsMatch(bundle.column_store(), want);
        }
      }
    }
  }
}

/// The whole snapshot file `bundle` serializes to under `codec`.
std::string SnapshotFileBytes(const IndexBundle& bundle, PostingCodec codec) {
  const std::string path = ::testing::TempDir() + "blend_builder_snapshot_" +
                           std::to_string(getpid());
  SnapshotOptions options;
  options.codec = codec;
  EXPECT_TRUE(WriteSnapshot(bundle, path, options).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

TEST(IndexBuilderTest, SnapshotBytesIdenticalForEveryThreadCount) {
  // Serialized bytes cover what the logical comparisons above do not: the
  // dictionary's hash table, every array's exact length and padding, and
  // the encoded postings. The lakes span shards that share values (the
  // 40-table lake, OracleLake), fewer cells than build tasks (SmallLake has
  // 6 cells) and no records at all.
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 40;
  spec.numeric_col_prob = 0.5;
  const std::vector<std::pair<std::string, DataLake>> lakes = [&] {
    std::vector<std::pair<std::string, DataLake>> out;
    out.emplace_back("join40", lakegen::MakeJoinLake(spec));
    out.emplace_back("oracle", OracleLake());
    out.emplace_back("one_table", SmallLake());
    out.emplace_back("empty", DataLake("empty"));
    return out;
  }();
  // Fnv1a64 digests of two configurations' files, recorded before the
  // secondary indexes were built in parallel: the bytes stay pinned across
  // commits, not just across thread counts. A deliberate format change
  // re-records them. The shuffled one was re-recorded when the writer
  // stopped emitting row maps; every remaining section's checksum was
  // unchanged. Both were re-recorded for format v3 (per-row SuperKeys,
  // 32-bit PostingOffsets), whose other sections kept their checksums.
  // (The format is native-endian; recorded on x86-64.)
  const uint64_t kJoin40ColumnCompressed = 0xA039560EDD3E4B27ULL;
  const uint64_t kOracleRowShuffledRaw = 0x6675B7FB3633AAEBULL;

  const std::vector<PostingCodec> codecs = {PostingCodec::kRaw,
                                            PostingCodec::kCompressed};
  for (const auto& [name, lake] : lakes) {
    for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
      for (bool shuffle : {false, true}) {
        SCOPED_TRACE(name + " layout=" + std::to_string(static_cast<int>(layout)) +
                     " shuffle=" + std::to_string(shuffle));
        IndexBuildOptions opts;
        opts.layout = layout;
        opts.shuffle_rows = shuffle;
        opts.num_threads = 1;
        const IndexBundle serial = IndexBuilder(opts).Build(lake);
        std::vector<std::string> want;
        for (PostingCodec codec : codecs) {
          want.push_back(SnapshotFileBytes(serial, codec));
          ASSERT_FALSE(want.back().empty());
        }
        if (name == "join40" && layout == StoreLayout::kColumn && !shuffle) {
          EXPECT_EQ(Fnv1a64(want[1]), kJoin40ColumnCompressed);
        }
        if (name == "oracle" && layout == StoreLayout::kRow && shuffle) {
          EXPECT_EQ(Fnv1a64(want[0]), kOracleRowShuffledRaw);
        }
        for (int threads : {2, 3, 4, 8, 16}) {
          opts.num_threads = threads;
          const IndexBundle parallel = IndexBuilder(opts).Build(lake);
          for (size_t c = 0; c < codecs.size(); ++c) {
            // Not EXPECT_EQ: a failure would print two whole files.
            ASSERT_TRUE(SnapshotFileBytes(parallel, codecs[c]) == want[c])
                << "threads=" << threads << " codec=" << c;
          }
        }
      }
    }
  }
}

TEST(IndexBuilderTest, JoinKeyGroupOfOutOfRangeIdsIsEmpty) {
  // Callers combine ids from user input and postings: a bad table or row id
  // must read as a row with no records, not out of bounds.
  auto fig1 = lakegen::MakeFig1Lake();
  for (bool shuffle : {false, true}) {
    SCOPED_TRACE("shuffle=" + std::to_string(shuffle));
    IndexBuildOptions opts;
    opts.shuffle_rows = shuffle;
    IndexBundle bundle = IndexBuilder(opts).Build(fig1.lake);
    const auto& store = bundle.column_store();
    const auto num_tables = static_cast<TableId>(bundle.NumTables());
    const auto rows0 = static_cast<int32_t>(fig1.lake.table(0).NumRows());
    auto width = [&](TableId t, int32_t r) {
      const auto [lo, hi] = JoinKeyGroup(store, t, r);
      EXPECT_LE(lo, hi);
      EXPECT_LE(hi, store.NumRecords());
      return hi - lo;
    };
    EXPECT_EQ(width(-1, 0), 0u);
    EXPECT_EQ(width(num_tables, 0), 0u);
    EXPECT_EQ(width(0, -1), 0u);
    EXPECT_EQ(width(0, rows0), 0u);
    // Every in-range row resolves to its own records, one per column.
    for (int32_t r = 0; r < rows0; ++r) {
      const auto [lo, hi] = JoinKeyGroup(store, 0, r);
      EXPECT_EQ(hi - lo, fig1.lake.table(0).NumColumns()) << "row " << r;
      for (RecordPos p = lo; p < hi; ++p) {
        EXPECT_EQ(store.table(p), 0);
        EXPECT_EQ(store.row(p), r);
      }
    }
  }
}

template <typename Store>
size_t QuadrantCount(const Store& store) {
  size_t n = 0;
  for (RecordPos i = 0; i < store.NumRecords(); ++i) {
    n += store.quadrant(i) != kQuadrantNull ? 1 : 0;
  }
  return n;
}

TEST(IndexBuilderTest, ApproxBytesMatchesArrays) {
  // index_bytes_per_cell reads ApproxBytes, so it must count exactly the
  // resident arrays: the records, one SuperKey per row up to each table's
  // last row with records, the row bases, the secondary indexes and the
  // dictionary. Rows are counted from the lake, not from the store.
  DataLake lake = OracleLake();
  Table trailing("trailing");
  trailing.AddColumn("a");
  trailing.AddColumn("b");
  (void)trailing.AppendRow({"x", "1"});
  (void)trailing.AppendRow({"", " "});
  (void)trailing.AppendRow({"", ""});
  lake.AddTable(std::move(trailing));
  size_t rows = 0;
  for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
    const Table& table = lake.table(t);
    size_t last = 0;
    for (size_t r = 0; r < table.NumRows(); ++r) {
      for (size_t c = 0; c < table.NumColumns(); ++c) {
        if (!NormalizeCell(table.At(r, c)).empty()) last = r + 1;
      }
    }
    rows += last;
  }
  const size_t tables = lake.NumTables();
  const std::string path = ::testing::TempDir() + "blend_builder_approx_" +
                           std::to_string(getpid());
  for (StoreLayout layout : {StoreLayout::kRow, StoreLayout::kColumn}) {
    SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)));
    IndexBuildOptions opts;
    opts.layout = layout;
    const IndexBundle built = IndexBuilder(opts).Build(lake);
    ASSERT_TRUE(WriteSnapshot(built, path).ok());
    auto opened = OpenSnapshot(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const IndexBundle& loaded = opened.value();
    for (const IndexBundle* bundle : {&built, &loaded}) {
      const size_t n = bundle->NumRecords();
      const size_t cells = bundle->dictionary().Size();
      const size_t quads = layout == StoreLayout::kRow
                               ? QuadrantCount(bundle->row_store())
                               : QuadrantCount(bundle->column_store());
      const size_t record_bytes =
          layout == StoreLayout::kRow ? sizeof(IndexRecord) : 4 * 4 + 1;
      const size_t store = n * record_bytes + (rows + tables + 1) * sizeof(uint64_t) +
                           (cells + 1 + n + 2 * tables + quads) * sizeof(RecordPos);
      EXPECT_EQ(layout == StoreLayout::kRow ? bundle->row_store().ApproxBytes()
                                            : bundle->column_store().ApproxBytes(),
                store);
      EXPECT_EQ(bundle->ApproxBytes(), store + bundle->dictionary().ApproxBytes());
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(sizeof(IndexRecord), 20u);
}

TEST(IndexBuilderTest, ApproxBytesPositiveAndLayoutDependent) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 10;
  DataLake lake = lakegen::MakeJoinLake(spec);
  IndexBuildOptions row_opts;
  row_opts.layout = StoreLayout::kRow;
  IndexBundle row = IndexBuilder(row_opts).Build(lake);
  IndexBundle col = IndexBuilder().Build(lake);
  EXPECT_GT(row.ApproxBytes(), 0u);
  EXPECT_GT(col.ApproxBytes(), 0u);
}

}  // namespace
}  // namespace blend
