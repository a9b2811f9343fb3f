#include "index/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/blend.h"
#include "lakegen/join_lake.h"
#include "lakegen/workloads.h"
#include "sql/engine.h"

namespace blend {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "blend_snapshot_" + name;
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
  // ToVector decodes through the codec seam, so this compares logical lists
  // even when one side is raw and the other block-compressed.
  for (CellId id = 0; id < static_cast<CellId>(num_cells); ++id) {
    ASSERT_EQ(a.PostingList(id).ToVector(), b.PostingList(id).ToVector())
        << "cell " << id;
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
  for (TableId t = 0; t < static_cast<TableId>(a.NumTables()); ++t) {
    for (int32_t r = -1; r < 40; ++r) {
      ASSERT_EQ(a.OriginalRow(t, r), b.OriginalRow(t, r))
          << "table " << t << " row " << r;
    }
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
constexpr uint32_t kSecIdPostingPositions = 11;
constexpr uint32_t kSecIdQuadrantPositions = 13;
constexpr uint32_t kSecIdPostingPartitions = 17;
constexpr uint32_t kSecIdPostingBlob = 18;
/// Bits 8..15 of the header flags carry the postings codec id (v2).
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
  // The headline property on a lake-shaped index (the >= 2x acceptance bar
  // is asserted on the benchmark lake by bench_index_snapshot; this guards
  // the direction at test scale).
  DataLake lake = TestLake(29);
  IndexBundle built = BuildBundle(lake, StoreLayout::kColumn, /*shuffle=*/false);
  SnapshotOptions raw, compressed;
  compressed.codec = PostingCodec::kCompressed;
  EXPECT_LT(SnapshotPostingBytes(built, compressed),
            SnapshotPostingBytes(built, raw));
  EXPECT_LT(SnapshotBytes(built, compressed), SnapshotBytes(built, raw));
}

TEST(SnapshotTest, ServeCompressedBundlesReuseEncodedPartitionsOnSave) {
  // Incremental transcoding: a bundle already serving compressed postings in
  // memory saves a compressed snapshot by windowing its partitions and blob
  // verbatim — no re-encode — so the artifact must be byte-identical to the
  // raw-built twin's compressed write (the encoder is a pure function of the
  // list values). The raw save of the same bundle pins the reverse
  // transcode. Byte-identity is the observable contract that the reused and
  // re-encoded sections can never drift apart.
  DataLake lake = TestLake(31);
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)));
    IndexBuildOptions raw_opts;
    raw_opts.layout = layout;
    IndexBuildOptions comp_opts = raw_opts;
    comp_opts.serve_compressed = true;
    IndexBundle raw_built = IndexBuilder(raw_opts).Build(lake);
    IndexBundle comp_built = IndexBuilder(comp_opts).Build(lake);

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

TEST(SnapshotTest, BlendOpenSnapshotRejectsMismatchedLake) {
  using core::Blend;
  auto fig1 = lakegen::MakeFig1Lake();
  Blend built(&fig1.lake);
  const std::string path = TempPath("mismatch");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());

  // Wrong table count.
  DataLake fewer("fewer");
  {
    Table t("only");
    t.AddColumn("c");
    (void)t.AppendRow({"x"});
    fewer.AddTable(std::move(t));
  }
  auto wrong_count = Blend::OpenSnapshot(path, &fewer);
  ASSERT_FALSE(wrong_count.ok());
  EXPECT_EQ(wrong_count.status().code(), StatusCode::kInvalidArgument);

  // Same table count, but a table shrank: indexed rows map past its end.
  DataLake shorter("shorter");
  for (size_t t = 0; t < fig1.lake.NumTables(); ++t) {
    Table trimmed(fig1.lake.table(static_cast<TableId>(t)).name());
    trimmed.AddColumn("c");
    (void)trimmed.AppendRow({"x"});
    shorter.AddTable(std::move(trimmed));
  }
  auto stale = Blend::OpenSnapshot(path, &shorter);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stale.status().message().find("does not match the lake"),
            std::string::npos);

  // The matching lake still opens.
  ASSERT_TRUE(Blend::OpenSnapshot(path, &fig1.lake).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, BlendOpenSnapshotRequiresALake) {
  auto res = core::Blend::OpenSnapshot(TempPath("nolake"), nullptr);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
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
/// v2 artifacts of both physical layouts.
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

TEST_P(SnapshotCorruptionTest, VersionOneHeaderAcceptsRawRejectsCompressed) {
  // A raw v2 artifact downgraded to version 1 is byte-for-byte the pre-codec
  // v1 format, and must still load (backward compatibility). The same
  // downgrade over a compressed payload is a forgery and must be rejected.
  std::vector<uint8_t> bytes = pristine_;
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + kVersionOffset, &v1, sizeof(v1));
  ReforgeHeaderChecksum(&bytes);
  Spit(path_, bytes);
  if (codec_ == PostingCodec::kCompressed) {
    ExpectBothLoadersReject(path_, "codec flags");
    return;
  }
  for (bool zero_copy : {false, true}) {
    auto loaded = zero_copy ? OpenSnapshot(path_) : ReadSnapshot(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectBundlesIdentical(bundle_, loaded.value());
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

  // Resolve the victim's tail within our recomputed blob: for a
  // single-block list it starts with the tag byte.
  const size_t part = victim / kPostingPartitionCells;
  const size_t begin = part * kPostingPartitionCells;
  const size_t lists = std::min(kPostingPartitionCells, num_lists - begin);
  PostingListRef ref = FindPostingList(
      encoded.blob.data() + encoded.partition_offsets[part],
      offsets.subspan(begin, lists + 1), victim - begin);
  const size_t tag_at =
      static_cast<size_t>(ref.encoded_tail() - encoded.blob.data());

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
    const auto want = (layout_ == StoreLayout::kRow
                           ? bundle_.row_store().PostingList(id)
                           : bundle_.column_store().PostingList(id))
                          .ToVector();
    const auto got = (layout_ == StoreLayout::kRow
                          ? bundle.row_store().PostingList(id)
                          : bundle.column_store().PostingList(id))
                         .ToVector();
    EXPECT_EQ(want, got) << "cell " << id;
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
