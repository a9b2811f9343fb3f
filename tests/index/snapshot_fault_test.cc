#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "index/builder.h"
#include "index/snapshot.h"
#include "lakegen/join_lake.h"
#include "lakegen/workloads.h"
#include "sql/engine.h"

namespace blend {
namespace {

/// Fault-injected snapshot I/O: every failure the fault registry can inject
/// into the write path must leave either the complete old or the complete
/// new artifact under the published name (the old one when it fails before
/// the rename, the new one after it), and no temp file; transient
/// errors must retry to a byte-identical artifact, and a failed mmap must
/// fall back to the heap loader with byte-identical query results.
class SnapshotFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Reset(); }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "blend_snapfault_" + std::to_string(getpid()) +
           "_" + name;
  }

  static DataLake TestLake(uint64_t seed) {
    lakegen::JoinLakeSpec spec;
    spec.num_tables = 20;
    spec.num_domains = 4;
    spec.domain_vocab = 120;
    spec.numeric_col_prob = 0.5;
    spec.seed = seed;
    return lakegen::MakeJoinLake(spec);
  }

  static IndexBundle Build(const DataLake& lake) {
    return IndexBuilder(IndexBuildOptions{}).Build(lake);
  }

  static bool FileExists(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return false;
    std::fclose(f);
    return true;
  }

  static std::vector<uint8_t> Slurp(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return {};
    std::fseek(f, 0, SEEK_END);
    std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  }

  static void Spit(const std::string& path, const std::vector<uint8_t>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  static std::string QueryToString(const sql::Engine& engine,
                                   const std::string& sqltext) {
    auto res = engine.Query(sqltext);
    if (!res.ok()) return "ERROR: " + res.status().ToString();
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

  /// Open descriptors of this process, or 0 without /proc/self/fd.
  static size_t OpenFds() {
    std::error_code ec;
    size_t n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/fd", ec), end;
         !ec && it != end; it.increment(ec)) {
      ++n;
    }
    return n;
  }

  /// The clean write's injection-point hit count sizes an ordinal sweep.
  static uint64_t CountWriteHits(const IndexBundle& bundle,
                                 const std::string& scratch) {
    fault::Arm();
    EXPECT_TRUE(WriteSnapshot(bundle, scratch).ok());
    const uint64_t hits = fault::Hits();
    fault::Reset();
    return hits;
  }
};

TEST_F(SnapshotFaultTest, HardFaultSweepNeverPublishesPartialSnapshot) {
  const DataLake lake_old = TestLake(31);
  const DataLake lake_new = TestLake(32);
  const IndexBundle old_bundle = Build(lake_old);
  const IndexBundle new_bundle = Build(lake_new);

  const std::string path = TempPath("sweep");
  const std::string tmp = path + ".tmp";
  const std::string scratch = TempPath("sweep_clean");
  const uint64_t hits = CountWriteHits(new_bundle, scratch);
  ASSERT_GT(hits, 0u);
  const std::vector<uint8_t> new_bytes = Slurp(scratch);
  std::remove(scratch.c_str());

  ASSERT_TRUE(WriteSnapshot(old_bundle, path).ok());
  const std::vector<uint8_t> old_bytes = Slurp(path);
  ASSERT_NE(old_bytes, new_bytes);

  // A write that fails at the rename stops there: its hit count is the
  // first ordinal that fails after the new file is published (the
  // directory fsync).
  fault::Inject("snapshot.write.rename", fault::Schedule{});
  ASSERT_FALSE(WriteSnapshot(new_bundle, path).ok());
  const uint64_t published = fault::Hits();
  fault::Reset();
  ASSERT_LT(published, hits);

  for (uint64_t k = 0; k < hits; ++k) {
    SCOPED_TRACE("fault at write ordinal " + std::to_string(k));
    Spit(path, old_bytes);
    fault::FailAtOrdinal(k, EIO);
    const Status failed = WriteSnapshot(new_bundle, path);
    fault::Reset();
    // EIO is final everywhere: the write must fail descriptively and clean
    // up. Before the rename the published name keeps the old artifact
    // bit-identical; after it, the name holds the complete new one.
    ASSERT_FALSE(failed.ok());
    EXPECT_FALSE(failed.message().empty());
    EXPECT_FALSE(FileExists(tmp)) << "temp file leaked";
    EXPECT_EQ(Slurp(path), k < published ? old_bytes : new_bytes)
        << "published artifact damaged";
    auto still_loads = ReadSnapshot(path);
    EXPECT_TRUE(still_loads.ok()) << still_loads.status().ToString();
  }

  // After the sweep, a clean write still publishes the complete new bytes.
  ASSERT_TRUE(WriteSnapshot(new_bundle, path).ok());
  EXPECT_EQ(Slurp(path), new_bytes);
  EXPECT_FALSE(FileExists(tmp));
  std::remove(path.c_str());
}

TEST_F(SnapshotFaultTest, FailedRenameClosesTheHeldFileAndKeepsTheOld) {
  // The writer holds the file it is about to replace open across the
  // rename; a failed rename must close it at once and leave the old bytes.
  const std::string path = TempPath("rename_eio");
  std::remove(path.c_str());
  ASSERT_TRUE(WriteSnapshot(Build(TestLake(81)), path).ok());
  const std::vector<uint8_t> old_bytes = Slurp(path);
  const IndexBundle new_bundle = Build(TestLake(82));
  const size_t fds = OpenFds();
  if (fds == 0) GTEST_SKIP() << "no /proc/self/fd";

  fault::Inject("snapshot.write.rename", fault::Schedule{});
  const Status failed = WriteSnapshot(new_bundle, path);
  fault::Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("rename"), std::string::npos)
      << failed.ToString();
  EXPECT_LE(OpenFds(), fds) << "the replaced file's descriptor leaked";
  EXPECT_EQ(Slurp(path), old_bytes);
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_F(SnapshotFaultTest, RepeatedSavesReleaseEveryReplacedFile) {
  // Each save over an existing file closes the replaced file's descriptor
  // on a background thread, shortly after WriteSnapshot returns.
  const IndexBundle bundle = Build(TestLake(83));
  const std::string path = TempPath("resave");
  ASSERT_TRUE(WriteSnapshot(bundle, path).ok());
  const size_t fds = OpenFds();
  if (fds == 0) GTEST_SKIP() << "no /proc/self/fd";
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(WriteSnapshot(bundle, path).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (OpenFds() > fds && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(OpenFds(), fds) << "replaced files still held open";
  std::remove(path.c_str());
}

TEST_F(SnapshotFaultTest, TransientInterruptSweepRetriesToIdenticalBytes) {
  const IndexBundle old_bundle = Build(TestLake(41));
  const IndexBundle new_bundle = Build(TestLake(42));
  const std::string path = TempPath("eintr");
  const std::string tmp = path + ".tmp";
  const std::string scratch = TempPath("eintr_clean");
  const uint64_t hits = CountWriteHits(new_bundle, scratch);
  ASSERT_GT(hits, 0u);
  const std::vector<uint8_t> new_bytes = Slurp(scratch);
  std::remove(scratch.c_str());
  ASSERT_TRUE(WriteSnapshot(old_bundle, path).ok());
  const std::vector<uint8_t> old_bytes = Slurp(path);

  uint64_t retried_ok = 0;
  for (uint64_t k = 0; k < hits; ++k) {
    SCOPED_TRACE("EINTR at write ordinal " + std::to_string(k));
    Spit(path, old_bytes);
    fault::FailAtOrdinal(k, EINTR);
    const Status s = WriteSnapshot(new_bundle, path);
    fault::Reset();
    if (s.ok()) {
      // The interrupted syscall was retried; the artifact is exact.
      EXPECT_EQ(Slurp(path), new_bytes);
      ++retried_ok;
    } else {
      // close(2) is the one point that is never retried (the descriptor is
      // gone either way); the failure must still be clean.
      EXPECT_EQ(Slurp(path), old_bytes);
      EXPECT_FALSE(FileExists(tmp));
    }
  }
  // Every point except close retries transparently.
  EXPECT_GE(retried_ok, hits - 1);
  std::remove(path.c_str());
}

TEST_F(SnapshotFaultTest, ShortWritesResumeToIdenticalBytes) {
  const IndexBundle bundle = Build(TestLake(51));
  const std::string clean_path = TempPath("short_clean");
  const std::string faulty_path = TempPath("short_faulty");
  ASSERT_TRUE(WriteSnapshot(bundle, clean_path).ok());

  fault::Schedule short_io;
  short_io.skip = 1;
  short_io.count = 8;
  short_io.error = fault::kShortIo;
  fault::Inject("snapshot.write.write", short_io);
  const Status s = WriteSnapshot(bundle, faulty_path);
  fault::Reset();
  ASSERT_TRUE(s.ok()) << s.ToString();
  // Resumed short transfers still produce the exact byte sequence.
  EXPECT_EQ(Slurp(faulty_path), Slurp(clean_path));
  std::remove(clean_path.c_str());
  std::remove(faulty_path.c_str());
}

TEST_F(SnapshotFaultTest, ShortAndInterruptedReadsResume) {
  const DataLake lake = TestLake(61);
  const IndexBundle bundle = Build(lake);
  const std::string path = TempPath("reads");
  ASSERT_TRUE(WriteSnapshot(bundle, path).ok());
  const std::string sqltext =
      "SELECT TableId, COUNT(*), SUM(RowId), MIN(ColumnId), MAX(RowId) "
      "FROM AllTables GROUP BY TableId;";
  const sql::Engine reference(&bundle);
  const std::string want = QueryToString(reference, sqltext);

  fault::Schedule short_io;
  short_io.count = 6;
  short_io.error = fault::kShortIo;
  fault::Inject("snapshot.read.read", short_io);
  auto short_read = ReadSnapshot(path);
  fault::Reset();
  ASSERT_TRUE(short_read.ok()) << short_read.status().ToString();
  EXPECT_EQ(want, QueryToString(sql::Engine(&short_read.value()), sqltext));

  fault::Schedule eintr;
  eintr.count = 2;
  eintr.error = EINTR;
  fault::Inject("snapshot.read.read", eintr);
  auto interrupted = ReadSnapshot(path);
  fault::Reset();
  ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
  EXPECT_EQ(want, QueryToString(sql::Engine(&interrupted.value()), sqltext));

  // A hard error is final and descriptive.
  fault::Schedule eio;
  eio.error = EIO;
  fault::Inject("snapshot.read.read", eio);
  auto hard = ReadSnapshot(path);
  fault::Reset();
  ASSERT_FALSE(hard.ok());
  EXPECT_NE(hard.status().message().find("read"), std::string::npos)
      << hard.status().ToString();

  // Endless interrupts exhaust the capped retry budget, not the process.
  fault::Schedule storm;
  storm.count = 1000;
  storm.error = EINTR;
  fault::Inject("snapshot.read.read", storm);
  auto exhausted = ReadSnapshot(path);
  fault::Reset();
  EXPECT_FALSE(exhausted.ok());
  std::remove(path.c_str());
}

TEST_F(SnapshotFaultTest, MmapFailureFallsBackToHeapWithIdenticalResults) {
  const DataLake lake = TestLake(71);
  const IndexBundle bundle = Build(lake);
  const std::string path = TempPath("fallback");
  ASSERT_TRUE(WriteSnapshot(bundle, path).ok());
  Rng rng(7);
  std::vector<std::string> values = lakegen::SampleColumnQuery(lake, 20, &rng);
  if (values.empty()) values = {"probe"};
  const std::vector<std::string> sqls = {
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
          SqlInList(values) +
          ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 20;",
      "SELECT TableId, COUNT(*) FROM AllTables GROUP BY TableId;",
  };

  fault::Schedule enomem;
  enomem.error = ENOMEM;
  fault::Inject("snapshot.mmap.map", enomem);
  auto opened = OpenSnapshot(path);
  fault::Reset();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // The fallback really is the heap loader, not a retried mapping.
  EXPECT_FALSE(opened.value().IsSnapshotBacked());

  const sql::Engine reference(&bundle);
  const sql::Engine served(&opened.value());
  for (const auto& sqltext : sqls) {
    EXPECT_EQ(QueryToString(reference, sqltext), QueryToString(served, sqltext))
        << sqltext;
  }

  // Transiently interrupted mmap-path syscalls retry and keep zero-copy.
  fault::Schedule eintr;
  eintr.count = 2;
  eintr.error = EINTR;
  fault::Inject("snapshot.mmap.open", eintr);
  auto mapped = OpenSnapshot(path);
  fault::Reset();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().IsSnapshotBacked());
  std::remove(path.c_str());
}

TEST_F(SnapshotFaultTest, MissingFileIsNotFoundNotFallback) {
  auto opened = OpenSnapshot(TempPath("does_not_exist"));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace blend
