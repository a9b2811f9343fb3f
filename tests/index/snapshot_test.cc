#include "index/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "common/telemetry.h"
#include "common/xash.h"
#include "core/blend.h"
#include "lakegen/correlation_lake.h"
#include "lakegen/join_lake.h"
#include "lakegen/mc_lake.h"
#include "lakegen/union_lake.h"
#include "lakegen/workloads.h"
#include "sql/engine.h"

namespace blend {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "blend_snapshot_" + std::to_string(getpid()) + "_" +
         name;
}

// ---------------------------------------------------------------------------
// Bundle equality helpers (bit-identity, mirroring builder_test.cc).
// ---------------------------------------------------------------------------

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
}

void ExpectBundlesIdentical(const IndexBundle& a, const IndexBundle& b) {
  ASSERT_EQ(a.layout(), b.layout());
  ASSERT_EQ(a.NumRecords(), b.NumRecords());
  ASSERT_EQ(a.NumTables(), b.NumTables());
  ASSERT_EQ(a.dictionary().Size(), b.dictionary().Size());
  for (CellId id = 0; id < static_cast<CellId>(a.dictionary().Size()); ++id) {
    ASSERT_EQ(a.dictionary().Value(id), b.dictionary().Value(id)) << "id " << id;
  }
  if (a.layout() == StoreLayout::kRow) {
    ExpectStoresEqual(a.row_store(), b.row_store(), a.dictionary().Size());
  } else {
    ExpectStoresEqual(a.column_store(), b.column_store(), a.dictionary().Size());
  }
}

DataLake TestLake(uint64_t seed = 11) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 30;
  spec.num_domains = 5;
  spec.domain_vocab = 150;
  spec.numeric_col_prob = 0.5;
  spec.seed = seed;
  return lakegen::MakeJoinLake(spec);
}

IndexBundle BuildBundle(const DataLake& lake, StoreLayout layout, bool shuffle) {
  IndexBuildOptions opts;
  opts.layout = layout;
  opts.shuffle_rows = shuffle;
  return IndexBuilder(opts).Build(lake);
}

// ---------------------------------------------------------------------------
// File manipulation helpers for the corruption suite.
// ---------------------------------------------------------------------------

std::vector<uint8_t> Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void Spit(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // An empty vector's data() may be null, and fwrite's first argument is
  // declared nonnull; the truncation sweep legitimately writes 0-byte files.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// Field offsets within the file header (see snapshot.cc's FileHeader).
constexpr size_t kVersionOffset = 8;
constexpr size_t kEndianOffset = 12;
constexpr size_t kLayoutOffset = 16;
constexpr size_t kFlagsOffset = 20;
constexpr size_t kSectionCountOffset = 48;
constexpr size_t kSectionTableChecksumOffset = 56;
constexpr size_t kHeaderChecksumOffset = 64;
constexpr size_t kHeaderSize = 72;
constexpr size_t kSectionEntrySize = 32;
/// Section ids referenced by the codec corruption tests (snapshot.cc).
constexpr uint32_t kSecIdRecords = 3;
constexpr uint32_t kSecIdRows = 7;
constexpr uint32_t kSecIdSuperKeys = 8;
constexpr uint32_t kSecIdPostingPositions = 11;
constexpr uint32_t kSecIdQuadrantPositions = 13;
constexpr uint32_t kSecIdPostingPartitions = 17;
constexpr uint32_t kSecIdPostingBlob = 18;
/// Bits 8..15 of the header flags carry the postings codec id.
constexpr size_t kFlagCodecShift = 8;

struct SectionInfo {
  uint32_t id;
  uint64_t offset;
  uint64_t size;
};

std::vector<SectionInfo> ParseSectionTable(const std::vector<uint8_t>& bytes) {
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + kSectionCountOffset, sizeof(count));
  std::vector<SectionInfo> sections;
  for (uint64_t s = 0; s < count; ++s) {
    const uint8_t* e = bytes.data() + kHeaderSize + s * kSectionEntrySize;
    SectionInfo info;
    std::memcpy(&info.id, e, sizeof(info.id));
    std::memcpy(&info.offset, e + 8, sizeof(info.offset));
    std::memcpy(&info.size, e + 16, sizeof(info.size));
    sections.push_back(info);
  }
  return sections;
}

/// Recomputes the header checksum after a deliberate header edit, so the
/// tampered value (not the checksum) is what the loader trips over.
void ReforgeHeaderChecksum(std::vector<uint8_t>* bytes) {
  const uint64_t sum = internal::SnapshotChecksum(bytes->data(), kHeaderChecksumOffset);
  std::memcpy(bytes->data() + kHeaderChecksumOffset, &sum, sizeof(sum));
}

/// Recomputes the whole checksum chain (payload -> section table -> header)
/// after a deliberate payload edit, so the corruption reaches the semantic
/// validation layers instead of tripping the integrity checksums.
void ReforgeSectionChecksum(std::vector<uint8_t>* bytes, size_t section_idx) {
  const SectionInfo info = ParseSectionTable(*bytes)[section_idx];
  const uint64_t sum = internal::SnapshotChecksum(
      bytes->data() + info.offset, static_cast<size_t>(info.size));
  std::memcpy(bytes->data() + kHeaderSize + section_idx * kSectionEntrySize + 24,
              &sum, sizeof(sum));
  uint64_t count = 0;
  std::memcpy(&count, bytes->data() + kSectionCountOffset, sizeof(count));
  const uint64_t table_sum = internal::SnapshotChecksum(
      bytes->data() + kHeaderSize, static_cast<size_t>(count) * kSectionEntrySize);
  std::memcpy(bytes->data() + kSectionTableChecksumOffset, &table_sum,
              sizeof(table_sum));
  ReforgeHeaderChecksum(bytes);
}

size_t SectionIndexOf(const std::vector<SectionInfo>& sections, uint32_t id) {
  for (size_t s = 0; s < sections.size(); ++s) {
    if (sections[s].id == id) return s;
  }
  ADD_FAILURE() << "section " << id << " not present";
  return 0;
}

/// Both load paths must reject the file with a non-OK status whose message
/// contains `expect_substr` (when non-empty) — and must never crash.
void ExpectBothLoadersReject(const std::string& path,
                             const std::string& expect_substr) {
  for (bool zero_copy : {false, true}) {
    auto loaded = zero_copy ? OpenSnapshot(path) : ReadSnapshot(path);
    ASSERT_FALSE(loaded.ok()) << "zero_copy=" << zero_copy;
    if (!expect_substr.empty()) {
      EXPECT_NE(loaded.status().message().find(expect_substr), std::string::npos)
          << "zero_copy=" << zero_copy
          << " message: " << loaded.status().message();
    }
  }
}

// ---------------------------------------------------------------------------
// Round-trip bit-identity, both layouts x shuffle x both load paths.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, RoundTripIsBitIdentical) {
  DataLake lake = TestLake();
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    for (bool shuffle : {false, true}) {
      for (PostingCodec codec : {PostingCodec::kRaw, PostingCodec::kCompressed}) {
        SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                     " shuffle=" + std::to_string(shuffle) + " codec=" +
                     PostingCodecName(codec));
        IndexBundle built = BuildBundle(lake, layout, shuffle);
        const std::string path = TempPath("roundtrip");
        SnapshotOptions opts;
        opts.codec = codec;
        ASSERT_TRUE(WriteSnapshot(built, path, opts).ok());

        auto heap = ReadSnapshot(path);
        ASSERT_TRUE(heap.ok()) << heap.status().ToString();
        EXPECT_FALSE(heap.value().IsSnapshotBacked());
        ExpectBundlesIdentical(built, heap.value());

        auto mapped = OpenSnapshot(path);
        ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
        EXPECT_TRUE(mapped.value().IsSnapshotBacked());
        ExpectBundlesIdentical(built, mapped.value());
        std::remove(path.c_str());
      }
    }
  }
}

/// A record's row as the oracle sees it: (ColumnId, value) of every record
/// of one (TableId, RowId), in the store's order.
using RowContent = std::vector<std::pair<int32_t, std::string>>;

/// Checks every record's SuperKey against Xash::SuperKey of its lake row's
/// normalized non-blank values. The lake row of a record is found by content
/// (the normalized values per column), not through the builder's row order,
/// so a shuffled build is checked the same way; duplicate rows share a key.
template <typename Store>
void ExpectSuperKeysMatchLake(const Store& store, const Dictionary& dict,
                              const DataLake& lake) {
  std::map<std::pair<TableId, int32_t>, RowContent> rows;
  for (RecordPos i = 0; i < store.NumRecords(); ++i) {
    rows[{store.table(i), store.row(i)}].emplace_back(
        store.column(i), std::string(dict.Value(store.cell(i))));
  }
  std::vector<std::map<RowContent, uint64_t>> want(lake.NumTables());
  for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
    const Table& table = lake.table(t);
    for (size_t r = 0; r < table.NumRows(); ++r) {
      RowContent content;
      for (size_t c = 0; c < table.NumColumns(); ++c) {
        std::string v = NormalizeCell(table.At(r, c));
        if (!v.empty()) content.emplace_back(static_cast<int32_t>(c), std::move(v));
      }
      std::vector<std::string_view> values;
      for (const auto& [c, v] : content) values.push_back(v);
      want[static_cast<size_t>(t)][content] = Xash::SuperKey(values);
    }
  }
  size_t checked = 0;
  for (RecordPos i = 0; i < store.NumRecords(); ++i) {
    const auto t = static_cast<size_t>(store.table(i));
    ASSERT_LT(t, want.size());
    const RowContent& content = rows.at({store.table(i), store.row(i)});
    const auto it = want[t].find(content);
    ASSERT_NE(it, want[t].end()) << "record " << i << " matches no lake row";
    ASSERT_EQ(store.super_key(i), it->second) << "record " << i;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(SuperKeyOracleTest, EveryRecordCarriesItsLakeRowsXash) {
  DataLake lake = TestLake();
  // Blank cells, a blank row between two rows with records and two at the
  // end: rows without records still take a RowId and must not shift the
  // keys of the rows after them.
  Table ragged("ragged");
  ragged.AddColumn("name");
  ragged.AddColumn("score");
  ASSERT_TRUE(ragged.AppendRow({"Alpha ", "2"}).ok());
  ASSERT_TRUE(ragged.AppendRow({"", " "}).ok());
  ASSERT_TRUE(ragged.AppendRow({"omega", ""}).ok());
  ASSERT_TRUE(ragged.AppendRow({" ", "7"}).ok());
  ASSERT_TRUE(ragged.AppendRow({"", ""}).ok());
  ASSERT_TRUE(ragged.AppendRow({"", ""}).ok());
  lake.AddTable(std::move(ragged));
  const std::string path = TempPath("superkey_oracle");
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    for (bool shuffle : {false, true}) {
      SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                   " shuffle=" + std::to_string(shuffle));
      const IndexBundle built = BuildBundle(lake, layout, shuffle);
      auto check = [&](const IndexBundle& b) {
        if (b.layout() == StoreLayout::kRow) {
          ExpectSuperKeysMatchLake(b.row_store(), b.dictionary(), lake);
        } else {
          ExpectSuperKeysMatchLake(b.column_store(), b.dictionary(), lake);
        }
      };
      check(built);
      for (PostingCodec codec : {PostingCodec::kRaw, PostingCodec::kCompressed}) {
        SCOPED_TRACE(PostingCodecName(codec));
        SnapshotOptions opts;
        opts.codec = codec;
        ASSERT_TRUE(WriteSnapshot(built, path, opts).ok());
        auto heap = ReadSnapshot(path);
        ASSERT_TRUE(heap.ok()) << heap.status().ToString();
        check(heap.value());
        auto mapped = OpenSnapshot(path);
        ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
        check(mapped.value());
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, RewrittenSnapshotIsByteIdenticalOnDisk) {
  // The file is a pure function of the index content and the chosen codec:
  // write, load (either path), write again -> identical bytes, including
  // write-raw -> load -> write-compressed matching a direct compressed write
  // (transcoding is lossless in both directions). This is what lets a fleet
  // verify artifact integrity by hash.
  DataLake lake = TestLake(13);
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    IndexBundle built = BuildBundle(lake, layout, /*shuffle=*/true);
    for (PostingCodec codec : {PostingCodec::kRaw, PostingCodec::kCompressed}) {
      SCOPED_TRACE(std::string("codec=") + PostingCodecName(codec));
      SnapshotOptions opts;
      opts.codec = codec;
      const std::string path_a = TempPath("rewrite_a");
      const std::string path_b = TempPath("rewrite_b");
      ASSERT_TRUE(WriteSnapshot(built, path_a, opts).ok());
      auto loaded = OpenSnapshot(path_a);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_TRUE(WriteSnapshot(loaded.value(), path_b, opts).ok());
      EXPECT_EQ(Slurp(path_a), Slurp(path_b));

      // Cross-codec: a bundle loaded from the *other* codec's artifact
      // writes this codec byte-identically to the direct write.
      SnapshotOptions other;
      other.codec = codec == PostingCodec::kRaw ? PostingCodec::kCompressed
                                                : PostingCodec::kRaw;
      const std::string path_c = TempPath("rewrite_c");
      ASSERT_TRUE(WriteSnapshot(built, path_c, other).ok());
      auto transcoded = OpenSnapshot(path_c);
      ASSERT_TRUE(transcoded.ok()) << transcoded.status().ToString();
      ASSERT_TRUE(WriteSnapshot(transcoded.value(), path_b, opts).ok());
      EXPECT_EQ(Slurp(path_a), Slurp(path_b));
      std::remove(path_a.c_str());
      std::remove(path_b.c_str());
      std::remove(path_c.c_str());
    }
  }
}

TEST(SnapshotTest, SnapshotBytesMatchesFileSize) {
  DataLake lake = TestLake(17);
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    for (bool shuffle : {false, true}) {
      for (PostingCodec codec : {PostingCodec::kRaw, PostingCodec::kCompressed}) {
        SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                     " shuffle=" + std::to_string(shuffle) + " codec=" +
                     PostingCodecName(codec));
        IndexBundle built = BuildBundle(lake, layout, shuffle);
        const std::string path = TempPath("size");
        SnapshotOptions opts;
        opts.codec = codec;
        ASSERT_TRUE(WriteSnapshot(built, path, opts).ok());
        EXPECT_EQ(SnapshotBytes(built, opts), Slurp(path).size());
        std::remove(path.c_str());
      }
    }
  }
}

TEST(SnapshotTest, CompressedCodecShrinksThePostingsPayload) {
  SnapshotOptions raw, compressed;
  compressed.codec = PostingCodec::kCompressed;
  {
    DataLake lake = TestLake(29);
    IndexBundle built = BuildBundle(lake, StoreLayout::kColumn, /*shuffle=*/false);
    EXPECT_LT(SnapshotPostingBytes(built, compressed),
              SnapshotPostingBytes(built, raw));
    EXPECT_LT(SnapshotBytes(built, compressed), SnapshotBytes(built, raw));
  }
  // The codec's acceptance bar, on the 120-table join lakes (seeds 90 and
  // 95) of the query-engine and snapshot smoke runs: on disk the compressed
  // postings section is at least 2x smaller than the raw one.
  for (uint64_t seed : {90, 95}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    lakegen::JoinLakeSpec spec;
    spec.num_tables = 120;
    spec.seed = seed;
    const DataLake lake = lakegen::MakeJoinLake(spec);
    const IndexBundle built = BuildBundle(lake, StoreLayout::kColumn, false);
    const size_t raw_disk = SnapshotPostingBytes(built, raw);
    const size_t compressed_disk = SnapshotPostingBytes(built, compressed);
    EXPECT_GE(raw_disk, 2 * compressed_disk) << raw_disk << " vs " << compressed_disk;
  }
}

const SecondaryIndexes& SecondaryOf(const IndexBundle& bundle) {
  return bundle.layout() == StoreLayout::kRow ? bundle.row_store().secondary()
                                              : bundle.column_store().secondary();
}

TEST(SnapshotTest, CompressedSnapshotsDecodeToTheBuiltPostings) {
  // A compressed snapshot is decoded once at open: both loaders must hand
  // back the built bundle's CSR offsets and positions element for element.
  // The lake's frequent values give lists of several blocks, so multi-block
  // decode and the skip tables are covered.
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 60;
  spec.num_domains = 4;
  spec.domain_vocab = 100;
  spec.seed = 37;
  const DataLake lake = lakegen::MakeJoinLake(spec);
  SnapshotOptions compressed;
  compressed.codec = PostingCodec::kCompressed;
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)));
    const IndexBundle built = BuildBundle(lake, layout, /*shuffle=*/false);
    const SecondaryIndexes& want = SecondaryOf(built);
    size_t longest = 0;
    for (size_t i = 0; i + 1 < want.posting_offsets.size(); ++i) {
      longest = std::max<size_t>(longest,
                                 want.posting_offsets[i + 1] - want.posting_offsets[i]);
    }
    ASSERT_GT(longest, 2 * kPostingBlockLen);

    const std::string path = TempPath("decode_at_open");
    ASSERT_TRUE(WriteSnapshot(built, path, compressed).ok());
    auto opened = OpenSnapshot(path);
    auto read = ReadSnapshot(path);
    std::remove(path.c_str());
    for (auto* loaded : {&opened, &read}) {
      SCOPED_TRACE(loaded == &opened ? "OpenSnapshot" : "ReadSnapshot");
      ASSERT_TRUE(loaded->ok()) << loaded->status().ToString();
      const SecondaryIndexes& got = SecondaryOf(loaded->value());
      EXPECT_TRUE(std::equal(want.posting_offsets.begin(), want.posting_offsets.end(),
                             got.posting_offsets.begin(), got.posting_offsets.end()));
      EXPECT_TRUE(std::equal(want.posting_positions.begin(),
                             want.posting_positions.end(),
                             got.posting_positions.begin(),
                             got.posting_positions.end()));
    }
  }
}

TEST(SnapshotTest, CompressedOpenedBundlesResaveByteIdentically) {
  // A bundle loaded from a compressed snapshot holds decoded positions, so
  // saving it re-encodes (compressed) or windows them (raw). Either way the
  // file must be byte-identical to the raw-built twin's save under the same
  // codec: the decode is exact and the encoder is a pure function of the
  // list values.
  DataLake lake = TestLake(31);
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)));
    IndexBundle raw_built = BuildBundle(lake, layout, /*shuffle=*/false);
    const std::string path_src = TempPath("serve_comp_src");
    SnapshotOptions comp_snap;
    comp_snap.codec = PostingCodec::kCompressed;
    ASSERT_TRUE(WriteSnapshot(raw_built, path_src, comp_snap).ok());
    auto comp_loaded = ReadSnapshot(path_src);
    std::remove(path_src.c_str());
    ASSERT_TRUE(comp_loaded.ok()) << comp_loaded.status().ToString();
    const IndexBundle& comp_built = comp_loaded.value();

    for (PostingCodec codec : {PostingCodec::kCompressed, PostingCodec::kRaw}) {
      SCOPED_TRACE(std::string("codec=") + PostingCodecName(codec));
      SnapshotOptions snap;
      snap.codec = codec;
      const std::string path_raw = TempPath("serve_comp_raw");
      const std::string path_comp = TempPath("serve_comp_comp");
      ASSERT_TRUE(WriteSnapshot(raw_built, path_raw, snap).ok());
      ASSERT_TRUE(WriteSnapshot(comp_built, path_comp, snap).ok());
      EXPECT_EQ(Slurp(path_raw), Slurp(path_comp));
      std::remove(path_raw.c_str());
      std::remove(path_comp.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Query byte-identity on loaded bundles.
// ---------------------------------------------------------------------------

std::string QueryToString(const sql::Engine& engine, const std::string& sqltext) {
  auto res = engine.Query(sqltext);
  EXPECT_TRUE(res.ok()) << res.status().ToString() << "\n" << sqltext;
  if (!res.ok()) return "ERROR";
  std::string out;
  for (const auto& row : res.value().rows) {
    for (const auto& v : row) {
      if (v.is_null()) {
        out += "NULL,";
      } else if (v.kind == sql::SqlValue::Kind::kInt) {
        out += std::to_string(v.i) + ",";
      } else {
        char buf[40];
        snprintf(buf, sizeof(buf), "%.17g,", v.d);
        out += buf;
      }
    }
    out += "\n";
  }
  return out;
}

TEST(SnapshotTest, LoadedBundlesAnswerQueriesByteIdentically) {
  DataLake lake = TestLake(19);
  Rng rng(7);
  std::vector<std::string> values = lakegen::SampleColumnQuery(lake, 25, &rng);
  if (values.empty()) values = {"probe"};
  const std::vector<std::string> sqls = {
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
          SqlInList(values) +
          ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;",
      "SELECT TableId, COUNT(*), SUM(RowId), MIN(ColumnId), MAX(RowId) "
      "FROM AllTables GROUP BY TableId;",
      "SELECT TableId, ColumnId, RowId FROM AllTables "
      "WHERE TableId IN (0, 3, 7, 999) AND RowId < 20;",
  };
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    for (bool shuffle : {false, true}) {
      for (PostingCodec codec : {PostingCodec::kRaw, PostingCodec::kCompressed}) {
        SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                     " shuffle=" + std::to_string(shuffle) + " codec=" +
                     PostingCodecName(codec));
        IndexBundle built = BuildBundle(lake, layout, shuffle);
        const std::string path = TempPath("queries");
        SnapshotOptions opts;
        opts.codec = codec;
        ASSERT_TRUE(WriteSnapshot(built, path, opts).ok());
        auto heap = ReadSnapshot(path);
        ASSERT_TRUE(heap.ok()) << heap.status().ToString();
        auto mapped = OpenSnapshot(path);
        ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

        sql::Engine fresh(&built);
        sql::Engine heap_engine(&heap.value());
        sql::Engine mapped_engine(&mapped.value());
        for (const auto& sqltext : sqls) {
          const std::string want = QueryToString(fresh, sqltext);
          EXPECT_EQ(want, QueryToString(heap_engine, sqltext)) << sqltext;
          EXPECT_EQ(want, QueryToString(mapped_engine, sqltext)) << sqltext;
        }
        std::remove(path.c_str());
      }
    }
  }
}

TEST(SnapshotTest, BlendOpenSnapshotServesIdenticalPlans) {
  using core::Blend;
  using core::Plan;
  using core::SCSeeker;
  auto fig1 = lakegen::MakeFig1Lake();
  Blend built(&fig1.lake);
  const std::string path = TempPath("blend");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());

  auto opened = Blend::OpenSnapshot(path, &fig1.lake);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened.value()->bundle().IsSnapshotBacked());

  Plan plan;
  std::vector<std::string> departments = {"HR", "Marketing", "IT", "Sales"};
  ASSERT_TRUE(plan.Add("dep", std::make_shared<SCSeeker>(departments, 3)).ok());
  auto want = built.Run(plan);
  Plan plan2;
  ASSERT_TRUE(plan2.Add("dep", std::make_shared<SCSeeker>(departments, 3)).ok());
  auto got = opened.value()->Run(plan2);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(core::ToString(want.value(), &fig1.lake),
            core::ToString(got.value(), &fig1.lake));
  std::remove(path.c_str());
}

/// A plan result as text: table ids and full-precision scores in rank order.
std::string Fingerprint(const Result<core::TableList>& result) {
  if (!result.ok()) return "ERROR " + result.status().ToString();
  std::string out;
  for (const core::ScoredTable& e : result.value()) {
    char buf[48];
    snprintf(buf, sizeof(buf), "%d:%.17g,", e.table, e.score);
    out += buf;
  }
  return out;
}

/// A lake every seeker answers on (composite-key MC tables, composite-key
/// correlation tables and a union lake) and its probe plans: SC, KW, two-
/// and three-column MC, correlation, then the five Table III compositions,
/// each of which finds some table. The plans own copies of their inputs, so
/// they outlive the lake.
DataLake MakeServingLake(std::vector<core::Plan>* plans) {
  DataLake lake("serving");
  auto append = [&](DataLake* part) {
    const auto offset = static_cast<TableId>(lake.NumTables());
    for (size_t i = 0; i < part->NumTables(); ++i) {
      lake.AddTable(std::move(part->table(static_cast<TableId>(i))));
    }
    return offset;
  };
  lakegen::McLakeSpec mc;
  mc.num_tables = 40;
  mc.seed = 5;
  lakegen::CorrLakeSpec corr;
  corr.num_tables = 40;
  corr.composite_key = true;
  corr.numeric_key_frac = 0.0;
  corr.seed = 6;
  lakegen::UnionLakeSpec uni;
  uni.num_groups = 3;
  uni.noise_tables = 6;
  uni.seed = 7;
  lakegen::McLake mc_lake = lakegen::MakeMcLake(mc);
  append(&mc_lake.lake);
  lakegen::CorrLake corr_lake = lakegen::MakeCorrLake(corr);
  const TableId corr_offset = append(&corr_lake.lake);
  lakegen::UnionLake union_lake = lakegen::MakeUnionLake(uni);
  const TableId union_offset = append(&union_lake.lake);
  const Table& examples = lake.table(union_offset + union_lake.query_tables[0]);

  Rng rng(11);
  const int k = 8;
  auto add = [&](auto&& build) {
    core::Plan plan;
    EXPECT_TRUE(build(&plan).ok());
    plans->push_back(std::move(plan));
  };
  namespace tasks = core::tasks;
  auto seeker = [&](std::shared_ptr<core::Seeker> s) {
    add([&](core::Plan* plan) { return plan->Add("s", std::move(s)); });
  };
  const auto pairs = lakegen::MakeMcQuery(mc, 0, 40, &rng);
  std::vector<std::vector<std::string>> triples;  // (left, right, payload)
  for (TableId t = 0; t < static_cast<TableId>(mc.num_tables); t += 3) {
    const Table& table = lake.table(t);
    const size_t r = rng.Uniform(table.NumRows());
    triples.push_back({table.At(r, 0), table.At(r, 1), table.At(r, 2)});
  }
  const lakegen::CorrQuery q = lakegen::MakeCorrQuery(corr, 0, false, 60, &rng);
  // Composite keys (key, key2) of the query's key domain, for the
  // feature-discovery join.
  std::vector<std::vector<std::string>> key_tuples;
  for (size_t t = 0; t < corr_lake.table_domain.size() && key_tuples.size() < 10; ++t) {
    if (corr_lake.table_domain[t] != 0) continue;
    const Table& table = lake.table(corr_offset + static_cast<TableId>(t));
    for (size_t r = 0; r < table.NumRows() && key_tuples.size() < 10; r += 3) {
      key_tuples.push_back({table.At(r, 0), table.At(r, 1)});
    }
  }
  std::vector<std::string> keywords = {pairs[0][0], pairs[1][1]};
  for (size_t r = 0; r < 3 && r < examples.NumRows(); ++r) {
    keywords.push_back(examples.At(r, 0));
  }

  seeker(std::make_shared<core::SCSeeker>(examples.column(0).cells, k));
  seeker(std::make_shared<core::KWSeeker>(keywords, k));
  seeker(std::make_shared<core::MCSeeker>(pairs, k));
  seeker(std::make_shared<core::MCSeeker>(triples, k));
  seeker(std::make_shared<core::CorrelationSeeker>(q.keys, q.targets, k));
  add([&](core::Plan* plan) { return tasks::AddUnionSearch(plan, examples, k); });
  add([&](core::Plan* plan) {
    const auto negatives = lakegen::MakeMcQuery(mc, 0, 8, &rng);
    return tasks::AddNegativeExampleSearch(plan, pairs, negatives, k);
  });
  add([&](core::Plan* plan) {
    std::vector<std::string> queries;
    for (const auto& t : lakegen::MakeMcQuery(mc, 0, 20, &rng)) queries.push_back(t[0]);
    return tasks::AddDataImputation(plan, pairs, queries, k);
  });
  add([&](core::Plan* plan) {
    // No existing features: a collinearity filter would drop the lake's
    // only table correlating with the target, and the probe wants answers.
    return tasks::AddFeatureDiscovery(plan, q.keys, q.targets, {}, key_tuples, k);
  });
  add([&](core::Plan* plan) {
    return tasks::AddMultiObjective(plan, keywords, examples, q.keys, q.targets, k);
  });
  return lake;
}

TEST(SnapshotTest, BlendOpenSnapshotServesWithoutALake) {
  // A snapshot answers every seeker type and every composition on its own:
  // opened with no lake, after the lake it was built from is destroyed, it
  // returns what the in-memory Blend returned, on both layouts and codecs.
  using core::Blend;
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    for (PostingCodec codec : {PostingCodec::kRaw, PostingCodec::kCompressed}) {
      SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                   " codec=" + PostingCodecName(codec));
      const std::string path = TempPath("lakeless");
      std::vector<core::Plan> plans;
      std::vector<std::string> want;
      {
        auto lake = std::make_unique<DataLake>(MakeServingLake(&plans));
        Blend::Options opts;
        opts.layout = layout;
        opts.snapshot_codec = codec;
        Blend built(lake.get(), opts);
        ASSERT_TRUE(built.SaveSnapshot(path).ok());
        for (const core::Plan& plan : plans) {
          want.push_back(Fingerprint(built.Run(plan)));
        }
      }  // the lake and the Blend that indexed it are gone
      ASSERT_EQ(plans.size(), 10u);
      for (size_t p = 0; p < plans.size(); ++p) {
        EXPECT_NE(want[p], "") << "plan " << p << " found no table";
      }
      auto opened = Blend::OpenSnapshot(path, nullptr);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      EXPECT_EQ(opened.value()->bundle().layout(), layout);
      for (size_t p = 0; p < plans.size(); ++p) {
        EXPECT_EQ(want[p].rfind("ERROR", 0), std::string::npos) << want[p];
        EXPECT_EQ(Fingerprint(opened.value()->Run(plans[p])), want[p]) << "plan " << p;
      }
      std::remove(path.c_str());
    }
  }
}

TEST(SnapshotTest, BlendOpenSnapshotIgnoresAMismatchedLake) {
  // MC validates candidate rows against the index, not the lake: a lake of
  // the same shape with other cells, handed to OpenSnapshot, must not
  // change the answers (neither may no lake at all).
  using core::Blend;
  lakegen::McLakeSpec spec;
  spec.num_tables = 30;
  spec.seed = 9;
  lakegen::McLake mc_lake = lakegen::MakeMcLake(spec);
  Blend built(&mc_lake.lake);
  const std::string path = TempPath("mismatch");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());

  DataLake other = mc_lake.lake;
  for (TableId t = 0; t < static_cast<TableId>(other.NumTables()); ++t) {
    Table& table = other.table(t);
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      for (std::string& cell : table.column(c).cells) {
        if (!cell.empty()) cell = "other " + cell;
      }
    }
  }

  Rng rng(3);
  const auto tuples = lakegen::MakeMcQuery(spec, 0, 40, &rng);
  core::Plan plan;
  ASSERT_TRUE(plan.Add("mc", std::make_shared<core::MCSeeker>(tuples, 10)).ok());
  const std::string want = Fingerprint(built.Run(plan));
  ASSERT_NE(want, "");
  ASSERT_EQ(want.rfind("ERROR", 0), std::string::npos) << want;
  const std::vector<const DataLake*> lakes = {&other, nullptr};
  for (const DataLake* lake : lakes) {
    SCOPED_TRACE(lake == nullptr ? "no lake" : "other cells");
    auto opened = Blend::OpenSnapshot(path, lake);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(Fingerprint(opened.value()->Run(plan)), want);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, SavingOverAServedSnapshotKeepsItsAnswers) {
  // Blend A serves from a mapping of P while Blend B, built from another
  // lake, saves over P: A keeps answering from the file it opened, byte for
  // byte, and a fresh open of P answers like B.
  using core::Blend;
  lakegen::McLakeSpec spec_a;
  spec_a.num_tables = 30;
  spec_a.seed = 21;
  lakegen::McLakeSpec spec_b = spec_a;
  spec_b.seed = 22;
  const lakegen::McLake lake_a = lakegen::MakeMcLake(spec_a);
  const lakegen::McLake lake_b = lakegen::MakeMcLake(spec_b);
  Rng rng(5);
  std::vector<std::string> values = lakegen::SampleColumnQuery(lake_a.lake, 20, &rng);
  for (std::string& v : lakegen::SampleColumnQuery(lake_b.lake, 20, &rng)) {
    values.push_back(std::move(v));
  }
  auto tuples = lakegen::MakeMcQuery(spec_a, 0, 30, &rng);
  for (auto& t : lakegen::MakeMcQuery(spec_b, 1, 30, &rng)) {
    tuples.push_back(std::move(t));
  }
  std::vector<core::Plan> plans(2);
  ASSERT_TRUE(plans[0].Add("sc", std::make_shared<core::SCSeeker>(values, 10)).ok());
  ASSERT_TRUE(plans[1].Add("mc", std::make_shared<core::MCSeeker>(tuples, 10)).ok());

  for (PostingCodec codec : {PostingCodec::kRaw, PostingCodec::kCompressed}) {
    SCOPED_TRACE(std::string("codec=") + PostingCodecName(codec));
    Blend::Options opts;
    opts.snapshot_codec = codec;
    const Blend built_a(&lake_a.lake, opts);
    const Blend built_b(&lake_b.lake, opts);
    const std::string path = TempPath("served");
    ASSERT_TRUE(built_a.SaveSnapshot(path).ok());
    auto served = Blend::OpenSnapshot(path, nullptr);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_TRUE(served.value()->bundle().IsSnapshotBacked());
    std::vector<std::string> want_a, want_b;
    for (const core::Plan& plan : plans) {
      want_a.push_back(Fingerprint(served.value()->Run(plan)));
      want_b.push_back(Fingerprint(built_b.Run(plan)));
      EXPECT_EQ(want_a.back(), Fingerprint(built_a.Run(plan)));
      EXPECT_NE(want_a.back(), "");
      EXPECT_EQ(want_a.back().rfind("ERROR", 0), std::string::npos) << want_a.back();
    }
    ASSERT_NE(want_a, want_b);

    ASSERT_TRUE(built_b.SaveSnapshot(path).ok());
    auto reopened = Blend::OpenSnapshot(path, nullptr);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    for (size_t p = 0; p < plans.size(); ++p) {
      SCOPED_TRACE("plan " + std::to_string(p));
      EXPECT_EQ(Fingerprint(served.value()->Run(plans[p])), want_a[p]);
      EXPECT_EQ(Fingerprint(reopened.value()->Run(plans[p])), want_b[p]);
    }
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, EverySaveObservesEachWritePhaseOnce) {
  // One WriteSnapshot adds exactly one observation to each phase histogram,
  // whether it creates the file or replaces it.
  const IndexBundle built = IndexBuilder().Build(TestLake());
  const std::string path = TempPath("phases");
  std::remove(path.c_str());
  auto counts = [] {
    std::vector<int64_t> out;
    for (const char* phase : {"gather", "checksum", "write", "sync", "replace"}) {
      out.push_back(MetricsRegistry::Global()
                        .GetHistogram(std::string("blend_snapshot_") + phase +
                                      "_seconds")
                        ->Snapshot()
                        .count);
    }
    return out;
  };
  for (int save = 1; save <= 2; ++save) {
    SCOPED_TRACE(save == 1 ? "create" : "replace");
    std::vector<int64_t> want = counts();
    for (int64_t& c : want) ++c;
    ASSERT_TRUE(WriteSnapshot(built, path).ok());
    EXPECT_EQ(counts(), want);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Empty-lake edge cases, both layouts.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, EmptyLakeRoundTripsAndAnswersQueries) {
  DataLake no_tables("empty");
  DataLake no_records("blank");
  {
    Table t("t0");
    t.AddColumn("a");
    t.AddColumn("b");
    (void)t.AppendRow({"", ""});  // nothing indexable
    no_records.AddTable(std::move(t));
  }
  for (DataLake* lake : {&no_tables, &no_records}) {
    for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
      SCOPED_TRACE(lake->name() + " layout=" +
                   std::to_string(static_cast<int>(layout)));
      IndexBundle built = BuildBundle(*lake, layout, /*shuffle=*/false);
      ASSERT_EQ(built.NumRecords(), 0u);
      const std::string path = TempPath("empty");
      ASSERT_TRUE(WriteSnapshot(built, path).ok());
      for (bool zero_copy : {false, true}) {
        auto loaded = zero_copy ? OpenSnapshot(path) : ReadSnapshot(path);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        EXPECT_EQ(loaded.value().NumRecords(), 0u);
        EXPECT_EQ(loaded.value().NumTables(), lake->NumTables());
        sql::Engine engine(&loaded.value());
        auto res = engine.Query(
            "SELECT TableId, COUNT(DISTINCT CellValue) AS score FROM AllTables "
            "WHERE CellValue IN ('x', 'y') GROUP BY TableId;");
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        EXPECT_EQ(res.value().NumRows(), 0u);
      }
      std::remove(path.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Corruption handling: every malformed input is a descriptive error.
// ---------------------------------------------------------------------------

/// Parameterized over the corruption matrix: layout (bit 0) x postings codec
/// (bit 1), so every tampering below is exercised against raw and compressed
/// v3 artifacts of both physical layouts.
class SnapshotCorruptionTest : public ::testing::TestWithParam<int> {
 protected:
  SnapshotCorruptionTest() {
    lake_ = TestLake(23);
    layout_ = (GetParam() & 1) == 0 ? StoreLayout::kColumn : StoreLayout::kRow;
    codec_ = (GetParam() & 2) == 0 ? PostingCodec::kRaw
                                   : PostingCodec::kCompressed;
    bundle_ = BuildBundle(lake_, layout_, /*shuffle=*/true);
    // Unique per test method: ctest runs every test as its own process, and
    // concurrent methods of this fixture must not rewrite one shared file.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = TempPath("corrupt_" + name + "_" + std::to_string(GetParam()));
    SnapshotOptions opts;
    opts.codec = codec_;
    EXPECT_TRUE(WriteSnapshot(bundle_, path_, opts).ok());
    pristine_ = Slurp(path_);
  }
  ~SnapshotCorruptionTest() override { std::remove(path_.c_str()); }

  DataLake lake_;
  StoreLayout layout_;
  PostingCodec codec_ = PostingCodec::kRaw;
  IndexBundle bundle_;
  std::string path_;
  std::vector<uint8_t> pristine_;
};

TEST_P(SnapshotCorruptionTest, MissingFile) {
  auto res = ReadSnapshot(path_ + ".does-not-exist");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
}

TEST_P(SnapshotCorruptionTest, BadMagic) {
  std::vector<uint8_t> bytes = pristine_;
  bytes[0] ^= 0xFF;
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "bad magic");
}

TEST_P(SnapshotCorruptionTest, FutureVersion) {
  std::vector<uint8_t> bytes = pristine_;
  const uint32_t future = kSnapshotVersion + 1;
  std::memcpy(bytes.data() + kVersionOffset, &future, sizeof(future));
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "version");
}

TEST_P(SnapshotCorruptionTest, ForeignEndianness) {
  std::vector<uint8_t> bytes = pristine_;
  const uint32_t swapped = 0x04030201u;
  std::memcpy(bytes.data() + kEndianOffset, &swapped, sizeof(swapped));
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "endianness");
}

TEST_P(SnapshotCorruptionTest, TamperedHeader) {
  std::vector<uint8_t> bytes = pristine_;
  bytes[kSectionCountOffset] ^= 0x01;
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "header checksum");
}

TEST_P(SnapshotCorruptionTest, UnknownLayoutValue) {
  std::vector<uint8_t> bytes = pristine_;
  const uint32_t bogus = 7;
  std::memcpy(bytes.data() + kLayoutOffset, &bogus, sizeof(bogus));
  ReforgeHeaderChecksum(&bytes);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "layout");
}

TEST_P(SnapshotCorruptionTest, ForgedHugeCountsAreRejected) {
  // Counts near 2^63 would overflow derived arithmetic (num_cells + 1,
  // 2 * num_tables) if they reached it; the parser bounds every count by the
  // file size first.
  constexpr size_t kCountOffsets[] = {24, 32, 40};  // records, tables, cells
  for (size_t field : kCountOffsets) {
    SCOPED_TRACE("field offset " + std::to_string(field));
    std::vector<uint8_t> bytes = pristine_;
    const uint64_t huge = (1ull << 63) + 1;
    std::memcpy(bytes.data() + field, &huge, sizeof(huge));
    ReforgeHeaderChecksum(&bytes);
    Spit(path_, bytes);
    ExpectBothLoadersReject(path_, "implausible");
  }
}

TEST_P(SnapshotCorruptionTest, SwappedLayoutMissesStoreSections) {
  // A forged header claiming the other layout passes the checksum but then
  // fails on the store sections: a row snapshot has no SoA arrays and a
  // column snapshot has no Records section.
  std::vector<uint8_t> bytes = pristine_;
  const uint32_t other = layout_ == StoreLayout::kRow ? 1 : 0;
  std::memcpy(bytes.data() + kLayoutOffset, &other, sizeof(other));
  ReforgeHeaderChecksum(&bytes);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "missing section");
}

TEST_P(SnapshotCorruptionTest, TruncationAtEverySectionBoundary) {
  // Property-style over the section table: for every section, a file cut at
  // its start, inside it, and one byte short of its end must be rejected.
  const auto sections = ParseSectionTable(pristine_);
  ASSERT_FALSE(sections.empty());
  std::vector<size_t> cuts = {0, kHeaderSize / 2, kHeaderSize,
                              kHeaderSize + kSectionEntrySize / 2};
  for (const SectionInfo& s : sections) {
    cuts.push_back(static_cast<size_t>(s.offset));
    if (s.size > 1) {
      cuts.push_back(static_cast<size_t>(s.offset + s.size / 2));
      cuts.push_back(static_cast<size_t>(s.offset + s.size - 1));
    }
  }
  for (size_t cut : cuts) {
    if (cut >= pristine_.size()) continue;
    SCOPED_TRACE("cut=" + std::to_string(cut));
    Spit(path_, std::vector<uint8_t>(pristine_.begin(),
                                     pristine_.begin() + static_cast<long>(cut)));
    ExpectBothLoadersReject(path_, "");
  }
}

TEST_P(SnapshotCorruptionTest, FlippedByteInEverySection) {
  // Property-style bit-rot: one flipped byte anywhere in any payload is a
  // checksum mismatch naming the section.
  const auto sections = ParseSectionTable(pristine_);
  ASSERT_FALSE(sections.empty());
  for (const SectionInfo& s : sections) {
    if (s.size == 0) continue;
    SCOPED_TRACE("section=" + std::to_string(s.id));
    std::vector<uint8_t> bytes = pristine_;
    bytes[static_cast<size_t>(s.offset + s.size / 2)] ^= 0x40;
    Spit(path_, bytes);
    ExpectBothLoadersReject(path_, "checksum mismatch in section");
  }
}

TEST_P(SnapshotCorruptionTest, TamperedSectionTable) {
  const auto sections = ParseSectionTable(pristine_);
  ASSERT_FALSE(sections.empty());
  std::vector<uint8_t> bytes = pristine_;
  // Flip a byte of the first entry's size field.
  bytes[kHeaderSize + 16] ^= 0x01;
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "section table checksum");
}

// ---------------------------------------------------------------------------
// Codec-dimension corruption: forged version/codec headers and tampering
// inside compressed payloads (with the checksum chain reforged, so the
// semantic validators — not the integrity hashes — are what reject).
// ---------------------------------------------------------------------------

TEST_P(SnapshotCorruptionTest, OlderVersionHeadersAreRejectedByName) {
  // v1 and v2 files stored a SuperKey per cell and 64-bit posting offsets:
  // their sections cannot be read as v3 ones, so the header alone rejects
  // them, with an error naming the version (not a section or checksum).
  for (const uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::vector<uint8_t> bytes = pristine_;
    std::memcpy(bytes.data() + kVersionOffset, &version, sizeof(version));
    ReforgeHeaderChecksum(&bytes);
    Spit(path_, bytes);
    const std::string named =
        "format version " + std::to_string(version) + " is no longer supported";
    ExpectBothLoadersReject(path_, named);
    auto from_buffer = internal::LoadSnapshotFromBuffer(bytes.data(), bytes.size());
    ASSERT_FALSE(from_buffer.ok());
    EXPECT_NE(from_buffer.status().message().find(named), std::string::npos)
        << from_buffer.status().message();
  }
}

TEST_P(SnapshotCorruptionTest, UnknownCodecBitsAreRejected) {
  std::vector<uint8_t> bytes = pristine_;
  uint32_t flags = 0;
  std::memcpy(&flags, bytes.data() + kFlagsOffset, sizeof(flags));
  flags |= 7u << kFlagCodecShift;
  std::memcpy(bytes.data() + kFlagsOffset, &flags, sizeof(flags));
  ReforgeHeaderChecksum(&bytes);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "unknown postings codec");
}

TEST_P(SnapshotCorruptionTest, SwappedCodecBitMissesItsSections) {
  // Claiming the other codec over this payload passes the header checksum
  // but trips the codec/section consistency check.
  std::vector<uint8_t> bytes = pristine_;
  uint32_t flags = 0;
  std::memcpy(&flags, bytes.data() + kFlagsOffset, sizeof(flags));
  flags ^= 1u << kFlagCodecShift;
  std::memcpy(bytes.data() + kFlagsOffset, &flags, sizeof(flags));
  ReforgeHeaderChecksum(&bytes);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, codec_ == PostingCodec::kRaw
                                     ? "the compressed codec"
                                     : "the raw codec");
}

TEST_P(SnapshotCorruptionTest, ForgedBlockTagInsideCompressedPayload) {
  if (codec_ != PostingCodec::kCompressed) return;
  // Locate a short multi-element list via the writer-identical encoding, and
  // overwrite its leading tag byte with the reserved container format. The
  // checksum chain is reforged, so rejection comes from the per-partition
  // block walk, not the integrity hashes.
  const SecondaryIndexes& secondary = layout_ == StoreLayout::kRow
                                          ? bundle_.row_store().secondary()
                                          : bundle_.column_store().secondary();
  const auto offsets = secondary.posting_offsets.span();
  EncodedPostingsCsr encoded = EncodePostingsCsr(
      offsets, secondary.posting_positions.span(), Scheduler::Serial());
  const size_t num_lists = offsets.size() - 1;
  size_t victim = num_lists;
  for (size_t i = 0; i < num_lists; ++i) {
    const uint64_t count = offsets[i + 1] - offsets[i];
    if (count >= 2 && count <= kPostingBlockLen) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, num_lists) << "test lake has no short posting list";

  // The victim's tag byte follows the bytes of the partition's earlier
  // lists and the victim's first-value varint: the encoded size of the
  // partition up to the victim, with the victim cut to its first value.
  const size_t part = victim / kPostingPartitionCells;
  const size_t begin = part * kPostingPartitionCells;
  std::vector<uint32_t> head(offsets.begin() + static_cast<ptrdiff_t>(begin),
                             offsets.begin() + static_cast<ptrdiff_t>(victim) + 1);
  head.push_back(head.back() + 1);
  const size_t tag_at =
      static_cast<size_t>(encoded.partition_offsets[part]) +
      EncodedPostingPartitionBytes(
          head, secondary.posting_positions.span().subspan(
                    static_cast<size_t>(head.front()),
                    static_cast<size_t>(head.back() - head.front())));

  const auto sections = ParseSectionTable(pristine_);
  const size_t blob_idx = SectionIndexOf(sections, kSecIdPostingBlob);
  std::vector<uint8_t> bytes = pristine_;
  ASSERT_EQ(bytes[sections[blob_idx].offset + tag_at],
            encoded.blob[tag_at]);  // the file holds the same encoding
  bytes[static_cast<size_t>(sections[blob_idx].offset) + tag_at] =
      0xFF;  // format 3, the reserved container
  ReforgeSectionChecksum(&bytes, blob_idx);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "postings partition");
}

TEST_P(SnapshotCorruptionTest, NonMonotonePartitionOffsetsAreRejected) {
  if (codec_ != PostingCodec::kCompressed) return;
  const auto sections = ParseSectionTable(pristine_);
  const size_t off_idx = SectionIndexOf(sections, kSecIdPostingPartitions);
  ASSERT_GE(sections[off_idx].size, 2 * sizeof(uint64_t));
  std::vector<uint8_t> bytes = pristine_;
  // Overwrite a partition offset with a huge value: non-monotone CSR (or an
  // end offset past the blob).
  const uint64_t huge = ~0ull >> 1;
  std::memcpy(bytes.data() + sections[off_idx].offset + sizeof(uint64_t), &huge,
              sizeof(huge));
  ReforgeSectionChecksum(&bytes, off_idx);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "posting partition");
}

TEST_P(SnapshotCorruptionTest, TruncationAtCompressedPartitionBoundaries) {
  if (codec_ != PostingCodec::kCompressed) return;
  // Cuts landing exactly on encoded-partition (hence block) boundaries
  // inside the blob section: the section then extends past EOF and must be
  // rejected, a cut never being mistakable for a shorter valid artifact.
  const SecondaryIndexes& secondary = layout_ == StoreLayout::kRow
                                          ? bundle_.row_store().secondary()
                                          : bundle_.column_store().secondary();
  EncodedPostingsCsr encoded = EncodePostingsCsr(
      secondary.posting_offsets.span(), secondary.posting_positions.span(),
      Scheduler::Serial());
  const auto sections = ParseSectionTable(pristine_);
  const size_t blob_idx = SectionIndexOf(sections, kSecIdPostingBlob);
  const size_t base = static_cast<size_t>(sections[blob_idx].offset);
  const size_t parts = encoded.partition_offsets.size() - 1;
  for (size_t p : {size_t{0}, parts / 4, parts / 2, parts - 1, parts}) {
    const size_t cut = base + static_cast<size_t>(encoded.partition_offsets[p]);
    if (cut >= pristine_.size()) continue;
    SCOPED_TRACE("cut=" + std::to_string(cut));
    Spit(path_, std::vector<uint8_t>(pristine_.begin(),
                                     pristine_.begin() + static_cast<long>(cut)));
    ExpectBothLoadersReject(path_, "");
  }
}

TEST_P(SnapshotCorruptionTest, NonAscendingRawPostingsAreRejected) {
  // Fuzzer-found (fuzz/corpus/snapshot/crash-raw-nonascending): the raw
  // codec's validation only bounded positions by the record count, so a
  // tampered positions section whose values stayed in range — but broke a
  // list's strictly-ascending order — loaded "successfully" into an index
  // whose intersection/seek/fused paths silently answer wrong. The loader
  // must reject it like the compressed validator always did.
  if (codec_ != PostingCodec::kRaw) return;
  const SecondaryIndexes& secondary = layout_ == StoreLayout::kRow
                                          ? bundle_.row_store().secondary()
                                          : bundle_.column_store().secondary();
  const auto offsets = secondary.posting_offsets.span();
  size_t victim = offsets.size();
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i + 1] - offsets[i] >= 2) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, offsets.size()) << "lake has no posting list of length 2";

  std::vector<uint8_t> bytes = pristine_;
  const auto sections = ParseSectionTable(bytes);
  const size_t sec_idx = SectionIndexOf(sections, kSecIdPostingPositions);
  uint8_t* base = bytes.data() + sections[sec_idx].offset;
  // Swap the list's first two values: both stay in range, order breaks.
  uint32_t a, b;
  std::memcpy(&a, base + offsets[victim] * 4, sizeof(a));
  std::memcpy(&b, base + (offsets[victim] + 1) * 4, sizeof(b));
  ASSERT_LT(a, b);
  std::memcpy(base + offsets[victim] * 4, &b, sizeof(b));
  std::memcpy(base + (offsets[victim] + 1) * 4, &a, sizeof(a));
  ReforgeSectionChecksum(&bytes, sec_idx);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "ascending");
  auto from_buffer = internal::LoadSnapshotFromBuffer(bytes.data(), bytes.size());
  ASSERT_FALSE(from_buffer.ok());
  EXPECT_NE(from_buffer.status().message().find("ascending"), std::string::npos)
      << from_buffer.status().message();
}

TEST_P(SnapshotCorruptionTest, DuplicateQuadrantPositionsAreRejected) {
  // Like crash-raw-nonascending for the Quadrant partial index: the loader
  // bounded each position by the record count only, so a tampered section
  // that repeats a position (every value still in range) loaded and made
  // the correlation scan count that numeric cell twice.
  const SecondaryIndexes& secondary = layout_ == StoreLayout::kRow
                                          ? bundle_.row_store().secondary()
                                          : bundle_.column_store().secondary();
  ASSERT_GE(secondary.quadrant_positions.size(), 2u) << "lake has no numeric cells";

  std::vector<uint8_t> bytes = pristine_;
  const auto sections = ParseSectionTable(bytes);
  const size_t sec_idx = SectionIndexOf(sections, kSecIdQuadrantPositions);
  uint8_t* base = bytes.data() + sections[sec_idx].offset;
  // Overwrite the second position with the first: in range, now repeated.
  std::memcpy(base + sizeof(uint32_t), base, sizeof(uint32_t));
  ReforgeSectionChecksum(&bytes, sec_idx);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "quadrant positions not strictly ascending");
  auto from_buffer = internal::LoadSnapshotFromBuffer(bytes.data(), bytes.size());
  ASSERT_FALSE(from_buffer.ok());
  EXPECT_NE(from_buffer.status().message().find("ascending"), std::string::npos)
      << from_buffer.status().message();
}

TEST_P(SnapshotCorruptionTest, RecordsOutOfRowOrderAreRejected) {
  // The lookup join binary-searches each (TableId, RowId) group inside its
  // table range, so rows must ascend within a table. Swap the
  // RowIds of two adjacent records of one table: every value stays valid,
  // only the order breaks.
  const size_t n = bundle_.NumRecords();
  auto table_of = [&](RecordPos p) {
    return layout_ == StoreLayout::kRow ? bundle_.row_store().table(p)
                                        : bundle_.column_store().table(p);
  };
  auto row_of = [&](RecordPos p) {
    return layout_ == StoreLayout::kRow ? bundle_.row_store().row(p)
                                        : bundle_.column_store().row(p);
  };
  RecordPos victim = 0;
  while (victim + 1 < n && (table_of(victim) != table_of(victim + 1) ||
                            row_of(victim) == row_of(victim + 1))) {
    ++victim;
  }
  ASSERT_LT(victim + 1, n) << "no two adjacent records of one table differ in row";

  std::vector<uint8_t> bytes = pristine_;
  const auto sections = ParseSectionTable(bytes);
  const bool row_layout = layout_ == StoreLayout::kRow;
  const size_t sec_idx =
      SectionIndexOf(sections, row_layout ? kSecIdRecords : kSecIdRows);
  // The row field: IndexRecord::row in the row layout, the Rows array in the
  // column layout.
  const size_t stride = row_layout ? sizeof(IndexRecord) : sizeof(int32_t);
  const size_t field = row_layout ? offsetof(IndexRecord, row) : 0;
  uint8_t* a = bytes.data() + sections[sec_idx].offset + victim * stride + field;
  uint8_t* b = a + stride;
  int32_t ra, rb;
  std::memcpy(&ra, a, sizeof(ra));
  std::memcpy(&rb, b, sizeof(rb));
  ASSERT_LT(ra, rb);
  std::memcpy(a, &rb, sizeof(rb));
  std::memcpy(b, &ra, sizeof(ra));
  ReforgeSectionChecksum(&bytes, sec_idx);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "(TableId, RowId) order");
}

/// Overwrites record `p`'s RowId in the file (IndexRecord::row in the row
/// layout, the Rows array in the column layout) and reforges the checksums.
void ForgeRowId(std::vector<uint8_t>* bytes, StoreLayout layout, RecordPos p,
                int32_t row) {
  const bool row_layout = layout == StoreLayout::kRow;
  const size_t sec_idx = SectionIndexOf(ParseSectionTable(*bytes),
                                        row_layout ? kSecIdRecords : kSecIdRows);
  const size_t stride = row_layout ? sizeof(IndexRecord) : sizeof(int32_t);
  const size_t field = row_layout ? offsetof(IndexRecord, row) : 0;
  std::memcpy(bytes->data() + ParseSectionTable(*bytes)[sec_idx].offset +
                  p * stride + field,
              &row, sizeof(row));
  ReforgeSectionChecksum(bytes, sec_idx);
}

TEST_P(SnapshotCorruptionTest, RowIdsOutsideTheirTableAreRejected) {
  // A RowId indexes its table's SuperKeys. A negative first RowId keeps the
  // (TableId, RowId) order, and so does a huge last one; neither may load,
  // or super_key() would read outside the keys.
  auto range = [&](TableId t) {
    return layout_ == StoreLayout::kRow ? bundle_.row_store().TableRange(t)
                                        : bundle_.column_store().TableRange(t);
  };
  TableId first = 0;
  while (range(first).first == range(first).second) ++first;
  TableId last = static_cast<TableId>(bundle_.NumTables()) - 1;
  while (range(last).first == range(last).second) --last;

  std::vector<uint8_t> bytes = pristine_;
  ForgeRowId(&bytes, layout_, range(first).first, -1);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "table " + std::to_string(first) +
                                     " has a negative RowId");

  bytes = pristine_;
  ForgeRowId(&bytes, layout_, range(last).second - 1, 1 << 30);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "SuperKeys section holds");
}

TEST_P(SnapshotCorruptionTest, ShortSuperKeysSectionIsRejected) {
  // One key fewer than the records' rows: the section table says so, every
  // checksum agrees, and the loader must still refuse to serve the keys.
  std::vector<uint8_t> bytes = pristine_;
  const size_t idx = SectionIndexOf(ParseSectionTable(bytes), kSecIdSuperKeys);
  uint64_t size = ParseSectionTable(bytes)[idx].size;
  ASSERT_GE(size, sizeof(uint64_t));
  size -= sizeof(uint64_t);
  std::memcpy(bytes.data() + kHeaderSize + idx * kSectionEntrySize + 16, &size,
              sizeof(size));
  ReforgeSectionChecksum(&bytes, idx);
  Spit(path_, bytes);
  ExpectBothLoadersReject(path_, "SuperKeys section holds");
  auto from_buffer = internal::LoadSnapshotFromBuffer(bytes.data(), bytes.size());
  ASSERT_FALSE(from_buffer.ok());
  EXPECT_NE(from_buffer.status().message().find("SuperKeys"), std::string::npos)
      << from_buffer.status().message();
}

// ---------------------------------------------------------------------------
// internal::LoadSnapshotFromBuffer — the fuzzing entry point must behave
// exactly like the file loaders over the same bytes.
// ---------------------------------------------------------------------------

TEST_P(SnapshotCorruptionTest, BufferLoaderAcceptsPristineBytes) {
  auto loaded =
      internal::LoadSnapshotFromBuffer(pristine_.data(), pristine_.size());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const IndexBundle& bundle = loaded.value();
  EXPECT_EQ(bundle.layout(), layout_);
  EXPECT_EQ(bundle.NumRecords(), bundle_.NumRecords());
  EXPECT_EQ(bundle.NumTables(), bundle_.NumTables());
  EXPECT_FALSE(bundle.IsSnapshotBacked());  // heap-materialized, like Read
  // Spot-check the postings against the built bundle.
  for (CellId id : {CellId{0}, CellId{1}, CellId{7}}) {
    if (static_cast<size_t>(id) >= bundle.dictionary().Size()) continue;
    const auto want = layout_ == StoreLayout::kRow
                          ? bundle_.row_store().PostingList(id)
                          : bundle_.column_store().PostingList(id);
    const auto got = layout_ == StoreLayout::kRow
                         ? bundle.row_store().PostingList(id)
                         : bundle.column_store().PostingList(id);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << "cell " << id;
  }
}

TEST_P(SnapshotCorruptionTest, BufferLoaderRejectsWhatFileLoadersReject) {
  std::vector<uint8_t> bytes = pristine_;
  bytes[0] ^= 0xFF;  // bad magic
  auto loaded = internal::LoadSnapshotFromBuffer(bytes.data(), bytes.size());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos)
      << loaded.status().message();
}

TEST_P(SnapshotCorruptionTest, BufferLoaderSurvivesTruncationSweep) {
  // Every prefix length across the header and section table, then sampled
  // points through the payloads: all must return a Status, never crash.
  const size_t structured_end =
      std::min(pristine_.size(),
               kHeaderSize + 8 * kSectionEntrySize);
  for (size_t cut = 0; cut < structured_end; ++cut) {
    auto loaded = internal::LoadSnapshotFromBuffer(pristine_.data(), cut);
    EXPECT_FALSE(loaded.ok()) << "cut=" << cut;
  }
  for (size_t cut = structured_end; cut < pristine_.size();
       cut += 257) {
    auto loaded = internal::LoadSnapshotFromBuffer(pristine_.data(), cut);
    EXPECT_FALSE(loaded.ok()) << "cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(LayoutsAndCodecs, SnapshotCorruptionTest,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace blend
