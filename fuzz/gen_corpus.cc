// Structure-aware seed-corpus generator. Fuzzing from real artifacts reaches
// the deep validators orders of magnitude faster than from empty seeds, so
// the checked-in corpora start from genuine WriteSnapshot output (both
// layouts x both codecs x shuffled), genuine EncodePostingPartition output
// under the codec harness's framing, and representative SQL / CSV texts.
//
//   blend_gen_corpus <corpus-root>
//
// writes <root>/{snapshot,codec,sql,csv}/seed-*. Deterministic: same build,
// same bytes. snapshot/seed-legacy-rowmaps is not generated here: it is a
// shuffled file from an older writer, kept so the fuzzer covers the row-map
// sections (14, 15) that the reader now skips.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "index/builder.h"
#include "index/codec.h"
#include "index/snapshot.h"
#include "lakegen/join_lake.h"

namespace fs = std::filesystem;

namespace {

void WriteFile(const fs::path& p, const void* data, size_t size) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!f) {
    std::fprintf(stderr, "gen_corpus: cannot write %s\n", p.string().c_str());
    std::exit(1);
  }
}

void WriteFile(const fs::path& p, const std::vector<uint8_t>& bytes) {
  WriteFile(p, bytes.data(), bytes.size());
}

void WriteFile(const fs::path& p, const std::string& text) {
  WriteFile(p, text.data(), text.size());
}

std::vector<uint8_t> Slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

// --- snapshot seeds -------------------------------------------------------

void GenSnapshotSeeds(const fs::path& dir) {
  blend::lakegen::JoinLakeSpec spec;
  spec.num_tables = 8;
  spec.min_rows = 4;
  spec.max_rows = 24;
  spec.num_domains = 3;
  spec.domain_vocab = 60;
  const blend::DataLake lake = blend::lakegen::MakeJoinLake(spec);

  const fs::path tmp = dir / "tmp.snapshot";
  int n = 0;
  for (const blend::StoreLayout layout :
       {blend::StoreLayout::kRow, blend::StoreLayout::kColumn}) {
    for (const blend::PostingCodec codec :
         {blend::PostingCodec::kRaw, blend::PostingCodec::kCompressed}) {
      for (const bool shuffle : {false, true}) {
        blend::IndexBuildOptions opts;
        opts.layout = layout;
        opts.shuffle_rows = shuffle;
        opts.num_threads = 1;
        const blend::IndexBundle bundle = blend::IndexBuilder(opts).Build(lake);
        blend::SnapshotOptions sopts;
        sopts.codec = codec;
        const blend::Status s = blend::WriteSnapshot(bundle, tmp.string(), sopts);
        if (!s.ok()) {
          std::fprintf(stderr, "gen_corpus: WriteSnapshot: %s\n",
                       s.message().c_str());
          std::exit(1);
        }
        WriteFile(dir / ("seed-" + std::to_string(n++)), Slurp(tmp));
      }
    }
  }
  fs::remove(tmp);
}

// --- codec seeds ----------------------------------------------------------

// Mirrors the framing in codec_fuzz.cc: num_lists-1, limit selector, u16
// counts, then the encoded partition.
std::vector<uint8_t> FramePartition(
    const std::vector<std::vector<blend::PostingValue>>& lists) {
  std::vector<uint64_t> offsets{0};
  std::vector<blend::PostingValue> positions;
  for (const auto& l : lists) {
    positions.insert(positions.end(), l.begin(), l.end());
    offsets.push_back(positions.size());
  }
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(lists.size() - 1));
  out.push_back(15);  // limit = 16 << 16 = 1048576, above every value below
  for (const auto& l : lists) {
    const auto c = static_cast<uint16_t>(l.size());
    out.push_back(static_cast<uint8_t>(c & 0xFF));
    out.push_back(static_cast<uint8_t>(c >> 8));
  }
  blend::EncodePostingPartition(offsets, positions, &out);
  return out;
}

void GenCodecSeeds(const fs::path& dir) {
  using List = std::vector<blend::PostingValue>;
  std::mt19937 rng(1234);

  // Singletons: the long-tail case, one varint per list.
  std::vector<List> singles;
  for (uint32_t i = 0; i < 64; ++i) singles.push_back({i * 37 + 5});
  WriteFile(dir / "seed-singles", FramePartition(singles));

  // A dense run, a bitmap-shaped cluster and a sparse packed list.
  List run;
  for (uint32_t v = 1000; v < 1000 + 400; ++v) run.push_back(v);
  List cluster;
  for (uint32_t v = 0; v < 4096; ++v) {
    if (rng() % 3 != 0) cluster.push_back(v);
  }
  List sparse;
  for (uint32_t v = 0, step = 1; sparse.size() < 300; ++v) {
    step = 1 + rng() % 5000;
    v += step;
    sparse.push_back(v);
  }
  WriteFile(dir / "seed-mixed",
            FramePartition({run, {}, cluster, {}, sparse, {42}}));

  // A multi-block list exercising the skip table (>= 9 blocks).
  List longlist;
  for (uint32_t v = 0; longlist.size() < 1200; v += 1 + rng() % 40) {
    longlist.push_back(v);
  }
  WriteFile(dir / "seed-long", FramePartition({longlist}));

  // An empty partition: 64 empty lists encode to zero bytes.
  WriteFile(dir / "seed-empty",
            FramePartition(std::vector<List>(64, List{})));
}

// --- sql / csv seeds ------------------------------------------------------

void GenSqlSeeds(const fs::path& dir) {
  const char* queries[] = {
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN ('a','b','c') "
      "GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 10;",
      "SELECT TableId, RowId FROM AllTables WHERE CellValue IN ('x')",
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId FROM AllTables WHERE CellValue IN ('y')) AS a "
      "INNER JOIN (SELECT * FROM AllTables) AS b ON a.RowId = b.RowId",
      "SELECT RowId FROM AllTables WHERE Quadrant IS NOT NULL AND RowId < 256",
      "SELECT TableId FROM AllTables WHERE TableId NOT IN (1,2,3)",
      "SELECT TableId, COUNT(*), SUM(RowId), AVG(RowId * 1.5) "
      "FROM AllTables GROUP BY TableId",
      "EXPLAIN SELECT TableId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN ('a','b') "
      "GROUP BY TableId ORDER BY score DESC LIMIT 5;",
      "EXPLAIN ANALYZE SELECT TableId, RowId FROM AllTables "
      "WHERE CellValue IN ('x') LIMIT 3;",
      "SELECT * FROM (SELECT * FROM AllTables WHERE CellValue IN ('apple','banana')) "
      "AS a INNER JOIN (SELECT * FROM AllTables WHERE Quadrant IS NOT NULL) AS b "
      "ON a.TableId = b.TableId AND a.RowId = b.RowId INNER JOIN "
      "(SELECT * FROM AllTables WHERE CellValue IN ('x','7')) AS c "
      "ON a.RowId = c.RowId ORDER BY a.RowId LIMIT 4",
      "SELECT k.TableId, MIN(n.Quadrant), COUNT(*) FROM "
      "(SELECT TableId, RowId FROM AllTables) AS k INNER JOIN "
      "(SELECT TableId, RowId, Quadrant FROM AllTables WHERE Quadrant IS NOT NULL) "
      "AS n ON k.TableId = n.TableId AND k.RowId = n.RowId "
      "WHERE n.Quadrant = 1 GROUP BY k.TableId",
  };
  int n = 0;
  for (const char* q : queries) {
    WriteFile(dir / ("seed-" + std::to_string(n++)), std::string(q));
  }
}

void GenCsvSeeds(const fs::path& dir) {
  const char* docs[] = {
      "a,b,c\n1,2,3\n4,5,6\n",
      "name,dept\n\"Potter, Harry\",Finance\n\"says \"\"hi\"\"\",IT\n",
      "k,v\nmultiline,\"first\nsecond\"\n,\n",
      "only_header\n",
      "x\n1\n2\n3\n4\n5\n",
  };
  int n = 0;
  for (const char* d : docs) {
    WriteFile(dir / ("seed-" + std::to_string(n++)), std::string(d));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: blend_gen_corpus <corpus-root>\n");
    return 2;
  }
  const fs::path root = argv[1];
  for (const char* sub : {"snapshot", "codec", "sql", "csv"}) {
    fs::create_directories(root / sub);
  }
  GenSnapshotSeeds(root / "snapshot");
  GenCodecSeeds(root / "codec");
  GenSqlSeeds(root / "sql");
  GenCsvSeeds(root / "csv");
  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
