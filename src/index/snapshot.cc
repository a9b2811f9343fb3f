#include "index/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "common/hashing.h"
#include "common/telemetry.h"
#include "common/timer.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace blend {

namespace {

constexpr char kMagic[8] = {'B', 'L', 'E', 'N', 'D', 'S', 'N', 'P'};
constexpr uint32_t kEndianMarker = 0x01020304u;
/// Bits 8..15 of the header flags: the PostingCodec id of the postings
/// payload (v2). Zero in v1 files, which predate the codec subsystem.
constexpr uint32_t kFlagCodecShift = 8;
constexpr uint32_t kFlagCodecMask = 0xFFu;
constexpr size_t kAlign = 8;
/// Sanity cap long before any real format revision gets close: a corrupt
/// count must not drive a huge allocation or scan.
constexpr uint64_t kMaxSections = 256;
/// Checksum task granularity: large sections (records, postings) are hashed
/// as parallel chunks whose digests combine in chunk order, so the value
/// depends only on the bytes, never on the pool. The writer also hands the
/// file to the device in pieces of this size.
constexpr size_t kChecksumChunk = 8u << 20;

enum SectionId : uint32_t {
  kSecDictOffsets = 1,
  kSecDictBlob = 2,
  kSecRecords = 3,  // row layout
  kSecCells = 4,    // column layout: the six SoA arrays
  kSecTables = 5,
  kSecColumns = 6,
  kSecRows = 7,
  kSecSuperKeys = 8,
  kSecQuadrants = 9,
  kSecPostingOffsets = 10,
  kSecPostingPositions = 11,
  kSecTableRanges = 12,
  kSecQuadrantPositions = 13,
  // 14 and 15 are retired: older writers stored shuffled builds' row maps
  // there, which the reader skips like any unknown section. Do not reuse.
  kSecDictHash = 16,
  kSecPostingPartitions = 17,  // compressed codec only
  kSecPostingBlob = 18,
};

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSecDictOffsets: return "DictOffsets";
    case kSecDictBlob: return "DictBlob";
    case kSecRecords: return "Records";
    case kSecCells: return "Cells";
    case kSecTables: return "Tables";
    case kSecColumns: return "Columns";
    case kSecRows: return "Rows";
    case kSecSuperKeys: return "SuperKeys";
    case kSecQuadrants: return "Quadrants";
    case kSecPostingOffsets: return "PostingOffsets";
    case kSecPostingPositions: return "PostingPositions";
    case kSecTableRanges: return "TableRanges";
    case kSecQuadrantPositions: return "QuadrantPositions";
    case kSecDictHash: return "DictHash";
    case kSecPostingPartitions: return "PostingPartitions";
    case kSecPostingBlob: return "PostingBlob";
    default: return "Unknown";
  }
}

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint32_t layout;
  uint32_t flags;
  uint64_t num_records;
  uint64_t num_tables;
  uint64_t num_cells;
  uint64_t section_count;
  uint64_t section_table_checksum;
  /// Over every header byte before this field.
  uint64_t header_checksum;
};
static_assert(sizeof(FileHeader) == 72);

struct SectionEntry {
  uint32_t id;
  uint32_t reserved;
  uint64_t offset;
  uint64_t size;
  uint64_t checksum;
};
static_assert(sizeof(SectionEntry) == 32);

size_t Align8(size_t n) { return (n + (kAlign - 1)) & ~(kAlign - 1); }

/// splitmix64 finalizer, inlined locally: the checksum walks every snapshot
/// byte, so an out-of-line call per word would dominate load time.
inline uint64_t MixWord(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t ChecksumSerial(const uint8_t* p, size_t n) {
  // Four independent lanes keep the multiply chains pipelined; the lane
  // layout is fixed, so the value is a pure function of the bytes.
  uint64_t h0 = 0x9E3779B97F4A7C15ULL ^ n;
  uint64_t h1 = 0xC2B2AE3D27D4EB4FULL;
  uint64_t h2 = 0x165667B19E3779F9ULL;
  uint64_t h3 = 0x27D4EB2F165667C5ULL;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    uint64_t w0, w1, w2, w3;
    std::memcpy(&w0, p + i, 8);
    std::memcpy(&w1, p + i + 8, 8);
    std::memcpy(&w2, p + i + 16, 8);
    std::memcpy(&w3, p + i + 24, 8);
    h0 = MixWord(h0 ^ w0);
    h1 = MixWord(h1 ^ w1);
    h2 = MixWord(h2 ^ w2);
    h3 = MixWord(h3 ^ w3);
  }
  uint64_t h = MixWord(h0 ^ MixWord(h1 ^ MixWord(h2 ^ h3)));
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = MixWord(h ^ w);
  }
  if (i < n) {
    uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    h = MixWord(h ^ tail);
  }
  return MixWord(h);
}

/// Section checksum: chunked so workers share one large section; the chunk
/// geometry is fixed by the length alone, so write and verify always agree.
uint64_t SectionChecksum(const uint8_t* p, size_t n, Scheduler* sched) {
  if (n <= kChecksumChunk) return ChecksumSerial(p, n);
  const size_t chunks = (n + kChecksumChunk - 1) / kChecksumChunk;
  std::vector<uint64_t> parts(chunks);
  sched->ParallelFor(chunks, [&](size_t c) {
    const size_t b = c * kChecksumChunk;
    const size_t e = std::min(n, b + kChecksumChunk);
    parts[c] = ChecksumSerial(p + b, e - b);
  });
  uint64_t h = 0x2545F4914F6CDD1DULL ^ n;
  for (uint64_t part : parts) h = HashCombine(h, part);
  return h;
}

/// One payload to serialize: either a window over memory the bundle already
/// owns (dictionary and store arrays) or bytes staged for the file
/// (padding-zeroed records, transcoded postings).
struct SectionSpec {
  uint32_t id = 0;
  const uint8_t* data = nullptr;
  size_t size = 0;
  PodVector<uint8_t> staged;

  void Stage(uint32_t section_id, PodVector<uint8_t> bytes) {
    id = section_id;
    staged = std::move(bytes);
    data = staged.data();
    size = staged.size();
  }
  template <typename T>
  void View(uint32_t section_id, const PodArray<T>& array) {
    id = section_id;
    data = reinterpret_cast<const uint8_t*>(array.data());
    size = array.size() * sizeof(T);
  }
};

template <typename Vector>
PodVector<uint8_t> StagePod(const Vector& v) {
  PodVector<uint8_t> bytes(v.size() * sizeof(v[0]));
  if (!bytes.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

Status IoError(const char* op, const std::string& path) {
  return Status::ExecutionError(std::string("snapshot ") + op + " failed for '" +
                                path + "': " + std::strerror(errno));
}

/// Seconds one successful WriteSnapshot spent per phase, observed into the
/// `blend_snapshot_<phase>_seconds` histograms. `sync` is the file fsync
/// plus the parent directory fsync; `replace` is the rename that publishes
/// the file, with the hand-off of the replaced file's release.
struct SavePhases {
  double gather = 0;
  double checksum = 0;
  double write = 0;
  double sync = 0;
  double replace = 0;

  void Observe() const {
    static Histogram* const hists[] = {Get("gather"), Get("checksum"), Get("write"),
                                       Get("sync"), Get("replace")};
    const double seconds[] = {gather, checksum, write, sync, replace};
    for (size_t i = 0; i < std::size(hists); ++i) hists[i]->Observe(seconds[i]);
  }

 private:
  static Histogram* Get(const char* phase) {
    return MetricsRegistry::Global().GetHistogram(std::string("blend_snapshot_") +
                                                  phase + "_seconds");
  }
};

class HeapStorage : public SnapshotStorage {
 public:
  explicit HeapStorage(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {
    data_ = bytes_.data();
    size_ = bytes_.size();
  }

 private:
  std::vector<uint8_t> bytes_;
};

#if !defined(_WIN32)
class MmapStorage : public SnapshotStorage {
 public:
  MmapStorage(void* base, size_t len) : base_(base) {
    data_ = static_cast<const uint8_t*>(base);
    size_ = len;
  }
  ~MmapStorage() override {
    if (base_ != nullptr && size_ != 0) ::munmap(base_, size_);
  }

 private:
  void* base_;
};

/// Transient errors a syscall loop may retry; everything else is final. The
/// retry budget is capped so a persistently interrupting environment still
/// surfaces a descriptive error instead of spinning.
constexpr int kMaxIoRetries = 4;

bool RetryableErrno(int err) { return err == EINTR || err == EAGAIN; }

void IoBackoff(int attempt) {
  // 100us, 200us, 400us, ... — enough to let a transient condition clear
  // without adding visible latency to the capped retry budget.
  ::usleep(100u << attempt);
}

/// Runs a syscall (returning >= 0 on success) under a named fault-injection
/// point, retrying transient errno values with capped backoff. The fault
/// point is consulted before each attempt, so an injected EINTR exercises
/// the retry loop and an injected EIO the failure path.
template <typename Op>
int RetrySyscall(const char* point, const Op& op) {
  for (int attempt = 0;; ++attempt) {
    int rc;
    if (const int injected = fault::Check(point);
        injected != 0 && injected != fault::kShortIo) {
      errno = injected;
      rc = -1;
    } else {
      rc = op();
    }
    if (rc >= 0) return rc;
    if (!RetryableErrno(errno) || attempt >= kMaxIoRetries) return -1;
    IoBackoff(attempt);
  }
}

/// Closes `fd` unconditionally (even when a fault is injected: the kernel
/// releases the descriptor regardless of close's return value, so close is
/// never retried) and reports the injected or real error.
int CloseChecked(int fd, const char* point) {
  const int injected = fault::Check(point);
  const int rc = ::close(fd);
  if (injected != 0 && injected != fault::kShortIo) {
    errno = injected;
    return -1;
  }
  return rc;
}

/// Starts writeback of [from, from + len) without waiting for it, so the
/// device writes the file while the rest is still being copied and the
/// closing fsync waits only for the tail. Advisory: its errors are ignored,
/// because fsync still reports any real I/O failure.
void StartWriteback(int fd, size_t from, size_t len) {
#if defined(__linux__)
  ::sync_file_range(fd, static_cast<off_t>(from), static_cast<off_t>(len),
                    SYNC_FILE_RANGE_WRITE);
#else
  (void)fd, (void)from, (void)len;
#endif
}

/// Fsyncs the directory holding `path`, so the rename that published it
/// survives a power loss. Opening the directory is part of the retried
/// operation.
int SyncParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : path.substr(0, std::max<size_t>(slash, 1));
  return RetrySyscall("snapshot.write.dirsync", [&] {
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd < 0) return -1;
    const int rc = ::fsync(dfd);
    const int err = errno;
    ::close(dfd);
    errno = err;
    return rc;
  });
}

/// Loops write(2) until every byte is transferred: short writes resume where
/// the kernel stopped, EINTR/EAGAIN retry with capped backoff (the budget
/// resets on forward progress), and anything else surfaces as a descriptive
/// error. An injected kShortIo shrinks one chunk — the bytes really land, so
/// a resumed write still produces the exact artifact.
Status WriteFully(int fd, const uint8_t* data, size_t size,
                  const std::string& path) {
  size_t done = 0;
  int retries = 0;
  while (done < size) {
    size_t chunk = size - done;
    if (const int injected = fault::Check("snapshot.write.write");
        injected != 0) {
      if (injected == fault::kShortIo) {
        chunk = std::max<size_t>(1, chunk / 2);
      } else {
        errno = injected;
        if (!RetryableErrno(injected) || ++retries > kMaxIoRetries) {
          return IoError("write", path);
        }
        IoBackoff(retries);
        continue;
      }
    }
    const ssize_t w = ::write(fd, data + done, chunk);
    if (w < 0) {
      if (!RetryableErrno(errno) || ++retries > kMaxIoRetries) {
        return IoError("write", path);
      }
      IoBackoff(retries);
      continue;
    }
    done += static_cast<size_t>(w);
    retries = 0;
  }
  return Status::OK();
}

/// read(2) counterpart of WriteFully; an unexpected EOF (the file shrank
/// under us) is final, not retryable.
Status ReadFully(int fd, uint8_t* data, size_t size, const std::string& path) {
  size_t done = 0;
  int retries = 0;
  while (done < size) {
    size_t chunk = size - done;
    if (const int injected = fault::Check("snapshot.read.read");
        injected != 0) {
      if (injected == fault::kShortIo) {
        chunk = std::max<size_t>(1, chunk / 2);
      } else {
        errno = injected;
        if (!RetryableErrno(injected) || ++retries > kMaxIoRetries) {
          return IoError("read", path);
        }
        IoBackoff(retries);
        continue;
      }
    }
    const ssize_t r = ::read(fd, data + done, chunk);
    if (r < 0) {
      if (!RetryableErrno(errno) || ++retries > kMaxIoRetries) {
        return IoError("read", path);
      }
      IoBackoff(retries);
      continue;
    }
    if (r == 0) {
      return Status::ExecutionError("snapshot read failed for '" + path +
                                    "': unexpected end of file");
    }
    done += static_cast<size_t>(r);
    retries = 0;
  }
  return Status::OK();
}
#endif

}  // namespace

Result<std::shared_ptr<SnapshotStorage>> SnapshotStorage::ReadFile(
    const std::string& path) {
#if !defined(_WIN32)
  const int fd = RetrySyscall("snapshot.read.open",
                              [&] { return ::open(path.c_str(), O_RDONLY); });
  if (fd < 0) {
    return Status::NotFound("cannot open snapshot '" + path +
                            "': " + std::strerror(errno));
  }
  // stat, not ftell: long is 32 bits on some ABIs and large lakes produce
  // multi-GiB snapshots.
  struct stat st;
  if (RetrySyscall("snapshot.read.stat", [&] { return ::fstat(fd, &st); }) !=
      0) {
    ::close(fd);
    return IoError("stat", path);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  if (!bytes.empty()) {
    Status io = ReadFully(fd, bytes.data(), bytes.size(), path);
    if (!io.ok()) {
      ::close(fd);
      return io;
    }
  }
  ::close(fd);
  return std::shared_ptr<SnapshotStorage>(new HeapStorage(std::move(bytes)));
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open snapshot '" + path +
                            "': " + std::strerror(errno));
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return IoError("seek", path);
  }
  const long told = std::ftell(f);
  if (told < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return IoError("size query", path);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(told));
  if (!bytes.empty() && std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fclose(f);
    return IoError("read", path);
  }
  std::fclose(f);
  return std::shared_ptr<SnapshotStorage>(new HeapStorage(std::move(bytes)));
#endif
}

Result<std::shared_ptr<SnapshotStorage>> SnapshotStorage::MapFile(
    const std::string& path) {
#if defined(_WIN32)
  return Status::ExecutionError("mmap-backed snapshots are not supported on "
                                "this platform; use ReadSnapshot");
#else
  const int fd = RetrySyscall("snapshot.mmap.open",
                              [&] { return ::open(path.c_str(), O_RDONLY); });
  if (fd < 0) {
    return Status::NotFound("cannot open snapshot '" + path +
                            "': " + std::strerror(errno));
  }
  struct stat st;
  if (RetrySyscall("snapshot.mmap.stat", [&] { return ::fstat(fd, &st); }) !=
      0) {
    ::close(fd);
    return IoError("stat", path);
  }
  const auto len = static_cast<size_t>(st.st_size);
  if (len == 0) {
    ::close(fd);
    return Status::InvalidArgument("truncated snapshot '" + path +
                                   "': empty file");
  }
  void* base = MAP_FAILED;
  if (const int injected = fault::Check("snapshot.mmap.map");
      injected != 0 && injected != fault::kShortIo) {
    errno = injected;
  } else {
    base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  ::close(fd);
  if (base == MAP_FAILED) {
    return IoError("mmap", path);
  }
  return std::shared_ptr<SnapshotStorage>(new MmapStorage(base, len));
#endif
}

/// Friend of the bundle and both stores: serializes their private arrays and
/// reassembles them on load (heap copies or zero-copy views).
class SnapshotCodec {
 public:
  static Status Write(const IndexBundle& bundle, const std::string& path,
                      PostingCodec codec, Scheduler* sched);
  static Result<IndexBundle> Load(std::shared_ptr<SnapshotStorage> storage,
                                  bool zero_copy, Scheduler* sched);
  static size_t FileBytes(const IndexBundle& bundle, PostingCodec codec);
  static size_t PostingBytes(const IndexBundle& bundle, PostingCodec codec);

 private:
  struct Gathered {
    std::vector<SectionSpec> specs;
    uint32_t flags = 0;
  };
  static Gathered Gather(const IndexBundle& bundle, PostingCodec codec,
                         Scheduler* sched);
  static size_t LayoutFile(const Gathered& g, std::vector<SectionEntry>* entries);
  static const SecondaryIndexes& Secondary(const IndexBundle& bundle) {
    return bundle.layout_ == StoreLayout::kRow ? bundle.row_store_.secondary_
                                               : bundle.column_store_.secondary_;
  }
};

SnapshotCodec::Gathered SnapshotCodec::Gather(const IndexBundle& bundle,
                                              PostingCodec codec,
                                              Scheduler* sched) {
  Gathered g;
  g.flags |= (static_cast<uint32_t>(codec) & kFlagCodecMask) << kFlagCodecShift;
  auto& specs = g.specs;

  // Dictionary: CSR offsets over the value blob plus the precomputed
  // open-addressing hash table, windowed as they are — the builder already
  // emits the file form, and the load path then performs no hashing or
  // interning at all.
  specs.emplace_back().View(kSecDictOffsets, bundle.dict_.offsets_);
  specs.emplace_back().View(kSecDictBlob, bundle.dict_.blob_);
  specs.emplace_back().View(kSecDictHash, bundle.dict_.hash_slots_);

  const SecondaryIndexes* secondary;
  if (bundle.layout_ == StoreLayout::kRow) {
    // Records are staged field-by-field into zeroed memory: IndexRecord has
    // padding bytes the builder never initializes, and the file must be a
    // pure function of the index content.
    const RowStore& store = bundle.row_store_;
    PodVector<uint8_t> staged(store.records_.size() * sizeof(IndexRecord), 0);
    auto* out = reinterpret_cast<IndexRecord*>(staged.data());
    for (size_t i = 0; i < store.records_.size(); ++i) {
      const IndexRecord& r = store.records_[i];
      out[i].cell = r.cell;
      out[i].table = r.table;
      out[i].column = r.column;
      out[i].row = r.row;
      out[i].super_key = r.super_key;
      out[i].quadrant = r.quadrant;
    }
    specs.emplace_back().Stage(kSecRecords, std::move(staged));
    secondary = &store.secondary_;
  } else {
    const ColumnStore& store = bundle.column_store_;
    specs.emplace_back().View(kSecCells, store.cells_);
    specs.emplace_back().View(kSecTables, store.tables_);
    specs.emplace_back().View(kSecColumns, store.columns_);
    specs.emplace_back().View(kSecRows, store.rows_);
    specs.emplace_back().View(kSecSuperKeys, store.super_keys_);
    specs.emplace_back().View(kSecQuadrants, store.quadrants_);
    secondary = &store.secondary_;
  }

  specs.emplace_back().View(kSecPostingOffsets, secondary->posting_offsets);
  // The postings payload under the requested codec: raw windows the
  // positions, compressed encodes them as chunked task groups on the shared
  // scheduler (the bytes do not depend on the pool size).
  if (codec == PostingCodec::kRaw) {
    specs.emplace_back().View(kSecPostingPositions, secondary->posting_positions);
  } else {
    EncodedPostingsCsr encoded = EncodePostingsCsr(
        secondary->posting_offsets.span(), secondary->posting_positions.span(), sched);
    specs.emplace_back().Stage(kSecPostingPartitions,
                               StagePod(encoded.partition_offsets));
    specs.emplace_back().Stage(kSecPostingBlob, std::move(encoded.blob));
  }
  specs.emplace_back().View(kSecTableRanges, secondary->table_ranges);
  specs.emplace_back().View(kSecQuadrantPositions, secondary->quadrant_positions);

  return g;
}

size_t SnapshotCodec::LayoutFile(const Gathered& g,
                                 std::vector<SectionEntry>* entries) {
  entries->clear();
  entries->reserve(g.specs.size());
  size_t off = sizeof(FileHeader) + g.specs.size() * sizeof(SectionEntry);
  for (const SectionSpec& spec : g.specs) {
    off = Align8(off);
    SectionEntry e{};
    e.id = spec.id;
    e.offset = off;
    e.size = spec.size;
    entries->push_back(e);
    off += spec.size;
  }
  return off;
}

namespace {

/// Byte sizes of the postings payload sections under `codec`, without
/// materializing them: one entry (positions) for raw, two (partition
/// offsets, blob) for compressed, whose blob size sums the per-partition
/// encodings.
std::vector<size_t> PostingSectionSizes(const SecondaryIndexes& secondary,
                                        PostingCodec codec) {
  const size_t num_lists =
      secondary.posting_offsets.empty() ? 0 : secondary.posting_offsets.size() - 1;
  const size_t total_positions =
      num_lists == 0 ? 0
                     : static_cast<size_t>(secondary.posting_offsets[num_lists]);
  if (codec == PostingCodec::kRaw) {
    return {total_positions * sizeof(RecordPos)};
  }
  const size_t parts =
      (num_lists + kPostingPartitionCells - 1) / kPostingPartitionCells;
  size_t blob = 0;
  for (size_t p = 0; p < parts; ++p) {
    const size_t begin = p * kPostingPartitionCells;
    const size_t lists = std::min(kPostingPartitionCells, num_lists - begin);
    const auto offsets =
        secondary.posting_offsets.span().subspan(begin, lists + 1);
    blob += EncodedPostingPartitionBytes(
        offsets, secondary.posting_positions.span().subspan(
                     static_cast<size_t>(offsets.front()),
                     static_cast<size_t>(offsets.back() - offsets.front())));
  }
  return {(parts + 1) * sizeof(uint64_t), blob};
}

}  // namespace

size_t SnapshotCodec::PostingBytes(const IndexBundle& bundle,
                                   PostingCodec codec) {
  size_t total = 0;
  for (size_t s : PostingSectionSizes(Secondary(bundle), codec)) total += s;
  return total;
}

size_t SnapshotCodec::FileBytes(const IndexBundle& bundle, PostingCodec codec) {
  // Mirrors Gather's section list without materializing any payload (the
  // SnapshotBytesMatchesFileSize test pins this to the real writer).
  const Dictionary& dict = bundle.dict_;
  std::vector<size_t> sizes = {dict.offsets_.size() * sizeof(uint64_t),
                               dict.blob_.size(),
                               dict.hash_slots_.size() * sizeof(CellId)};
  const size_t n = bundle.NumRecords();
  if (bundle.layout_ == StoreLayout::kRow) {
    sizes.push_back(n * sizeof(IndexRecord));
  } else {
    sizes.insert(sizes.end(),
                 {n * sizeof(CellId), n * sizeof(TableId), n * sizeof(int32_t),
                  n * sizeof(int32_t), n * sizeof(uint64_t), n * sizeof(int8_t)});
  }
  const SecondaryIndexes& secondary = Secondary(bundle);
  sizes.push_back(secondary.posting_offsets.size() * sizeof(uint64_t));
  for (size_t s : PostingSectionSizes(secondary, codec)) sizes.push_back(s);
  sizes.insert(sizes.end(),
               {secondary.table_ranges.size() * sizeof(RecordPos),
                secondary.quadrant_positions.size() * sizeof(RecordPos)});

  size_t off = sizeof(FileHeader) + sizes.size() * sizeof(SectionEntry);
  for (size_t s : sizes) off = Align8(off) + s;
  return off;
}

Status SnapshotCodec::Write(const IndexBundle& bundle, const std::string& path,
                            PostingCodec codec, Scheduler* sched) {
  SavePhases phases;
  StopWatch clock;
  // Seconds since the previous lap: the time of the phase that just ended.
  auto lap = [&clock] {
    const double s = clock.ElapsedSeconds();
    clock.Reset();
    return s;
  };
  Gathered g = Gather(bundle, codec, sched);
  std::vector<SectionEntry> entries;
  LayoutFile(g, &entries);
  phases.gather = lap();

  // Per-section checksums as one task group on the shared pool; large
  // sections additionally fan out chunk subtasks (nested submission).
  sched->ParallelFor(g.specs.size(), [&](size_t s) {
    entries[s].checksum = SectionChecksum(g.specs[s].data, g.specs[s].size, sched);
  });

  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kSnapshotVersion;
  header.endian = kEndianMarker;
  header.layout = static_cast<uint32_t>(bundle.layout_);
  header.flags = g.flags;
  header.num_records = bundle.NumRecords();
  header.num_tables = bundle.NumTables();
  header.num_cells = bundle.dict_.Size();
  header.section_count = entries.size();
  header.section_table_checksum =
      ChecksumSerial(reinterpret_cast<const uint8_t*>(entries.data()),
                     entries.size() * sizeof(SectionEntry));
  header.header_checksum =
      ChecksumSerial(reinterpret_cast<const uint8_t*>(&header),
                     offsetof(FileHeader, header_checksum));
  phases.checksum = lap();

  // The file as ordered byte ranges: header, section table, then every
  // payload behind its zero padding.
  static constexpr uint8_t kPad[kAlign] = {0};
  std::vector<std::span<const uint8_t>> pieces = {
      {reinterpret_cast<const uint8_t*>(&header), sizeof(header)},
      {reinterpret_cast<const uint8_t*>(entries.data()),
       entries.size() * sizeof(SectionEntry)}};
  size_t pos = sizeof(FileHeader) + entries.size() * sizeof(SectionEntry);
  for (const SectionSpec& spec : g.specs) {
    const size_t aligned = Align8(pos);
    pieces.emplace_back(kPad, aligned - pos);
    pieces.emplace_back(spec.data, spec.size);
    pos = aligned + spec.size;
  }

  // Write to a sibling temp file and rename into place, so a crash or a
  // failure at any point mid-write never leaves anything but a complete old
  // or complete new file under the published name.
  const std::string tmp = path + ".tmp";
#if !defined(_WIN32)
  const int fd = RetrySyscall("snapshot.write.open", [&] {
    return ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  });
  if (fd < 0) return IoError("create", tmp);

  // Every write ends at the next kChecksumChunk boundary of the file, and
  // each completed chunk starts its writeback at once.
  Status io;
  size_t written = 0;
  for (std::span<const uint8_t> piece : pieces) {
    while (io.ok() && !piece.empty()) {
      const size_t n =
          std::min(piece.size(), kChecksumChunk - written % kChecksumChunk);
      io = WriteFully(fd, piece.data(), n, tmp);
      piece = piece.subspan(n);
      written += n;
      if (io.ok() && written % kChecksumChunk == 0) {
        StartWriteback(fd, written - kChecksumChunk, kChecksumChunk);
      }
    }
  }
  phases.write = lap();
  // Push the bytes to stable storage before publishing the name: rename
  // atomicity alone only survives process crashes, not power loss.
  if (io.ok() &&
      RetrySyscall("snapshot.write.fsync", [&] { return ::fsync(fd); }) != 0) {
    io = IoError("fsync", tmp);
  }
  if (CloseChecked(fd, "snapshot.write.close") != 0 && io.ok()) {
    io = IoError("close", tmp);
  }
  if (!io.ok()) {
    std::remove(tmp.c_str());
    return io;
  }
  phases.sync = lap();
  // Hold the file being replaced open across the rename: its blocks are
  // then freed when this descriptor closes on a background thread, not
  // inside rename(2) on the caller's path. O_NONBLOCK keeps a FIFO under the
  // name from blocking the open.
  const int old_fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (RetrySyscall("snapshot.write.rename", [&] {
        return ::rename(tmp.c_str(), path.c_str());
      }) != 0) {
    const Status renamed = IoError("rename", path);
    if (old_fd >= 0) ::close(old_fd);
    std::remove(tmp.c_str());
    return renamed;
  }
  if (old_fd >= 0) RunDetached([old_fd] { ::close(old_fd); });
  phases.replace = lap();
  // The rename lives in the directory: fsync it too, or a power loss can
  // still bring the old file back under the name.
  if (SyncParentDir(path) != 0) return IoError("directory fsync", path);
  phases.sync += lap();
#else
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return IoError("create", tmp);
  bool ok = true;
  for (std::span<const uint8_t> piece : pieces) {
    ok = ok && std::fwrite(piece.data(), 1, piece.size(), f) == piece.size();
  }
  ok = ok && std::fflush(f) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return IoError("write", tmp);
  }
  phases.write = lap();
  // POSIX rename replaces an existing destination; Windows rename does not.
  std::remove(path.c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return IoError("rename", path);
  }
  phases.replace = lap();
#endif
  phases.Observe();
  return Status::OK();
}

namespace {

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("invalid snapshot: " + what);
}

/// Bounds- and checksum-validated section windows over the storage bytes.
struct ParsedSnapshot {
  FileHeader header;
  std::unordered_map<uint32_t, std::pair<uint64_t, uint64_t>> sections;

  bool Has(uint32_t id) const { return sections.count(id) != 0; }
  const uint8_t* SectionData(const SnapshotStorage& storage, uint32_t id) const {
    return storage.data() + sections.at(id).first;
  }
  uint64_t SectionSize(uint32_t id) const { return sections.at(id).second; }
};

Status ParseSnapshot(const SnapshotStorage& storage, Scheduler* sched,
                     ParsedSnapshot* out) {
  const uint8_t* base = storage.data();
  const size_t file_size = storage.size();
  if (file_size < sizeof(FileHeader)) {
    return Corrupt("truncated file (" + std::to_string(file_size) +
                   " bytes, header needs " + std::to_string(sizeof(FileHeader)) +
                   ")");
  }
  FileHeader& header = out->header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic (not a BLEND index snapshot)");
  }
  if (header.endian != kEndianMarker) {
    return Corrupt("endianness mismatch (snapshot written on a foreign-endian "
                   "machine)");
  }
  if (header.version == 0 || header.version > kSnapshotVersion) {
    return Corrupt("format version " + std::to_string(header.version) +
                   " is not supported (this build reads up to version " +
                   std::to_string(kSnapshotVersion) + ")");
  }
  const uint32_t codec_bits = (header.flags >> kFlagCodecShift) & kFlagCodecMask;
  if (codec_bits > static_cast<uint32_t>(PostingCodec::kCompressed)) {
    return Corrupt("unknown postings codec " + std::to_string(codec_bits));
  }
  // The codec flag bits arrived with v2; a v1 header carrying them is a
  // forgery (e.g. a version field rewritten over a v2 payload).
  if (header.version < 2 && codec_bits != 0) {
    return Corrupt("version 1 header carries postings codec flags (forged "
                   "header over a v2 payload?)");
  }
  if (ChecksumSerial(base, offsetof(FileHeader, header_checksum)) !=
      header.header_checksum) {
    return Corrupt("header checksum mismatch");
  }
  if (header.layout > 1) {
    return Corrupt("unknown store layout " + std::to_string(header.layout));
  }
  // Every record/table/value occupies at least one payload byte, so a count
  // beyond the file size is forged — and bounding the counts here keeps all
  // derived arithmetic (num_cells + 1, 2 * num_tables) overflow-free.
  if (header.num_records > file_size || header.num_tables > file_size ||
      header.num_cells > file_size) {
    return Corrupt("implausible record/table/value count for a " +
                   std::to_string(file_size) + "-byte file");
  }
  if (header.section_count > kMaxSections) {
    return Corrupt("implausible section count " +
                   std::to_string(header.section_count));
  }
  const size_t table_bytes =
      static_cast<size_t>(header.section_count) * sizeof(SectionEntry);
  if (sizeof(FileHeader) + table_bytes > file_size) {
    return Corrupt("truncated section table");
  }
  std::vector<SectionEntry> entries(header.section_count);
  if (!entries.empty()) {
    std::memcpy(entries.data(), base + sizeof(FileHeader), table_bytes);
  }
  if (ChecksumSerial(base + sizeof(FileHeader), table_bytes) !=
      header.section_table_checksum) {
    return Corrupt("section table checksum mismatch");
  }

  // Sections are written back to back in table order, so each must start at
  // or after the end of the previous one (and none may reach back into the
  // header or section table).
  uint64_t min_offset = sizeof(FileHeader) + table_bytes;
  for (const SectionEntry& e : entries) {
    const std::string name = SectionName(e.id);
    if (e.offset % kAlign != 0) {
      return Corrupt("misaligned section " + name);
    }
    if (e.offset > file_size || e.size > file_size - e.offset) {
      return Corrupt("truncated file (section " + name +
                     " extends past the end)");
    }
    if (e.offset < min_offset) {
      return Corrupt("section " + name + " overlaps the preceding contents");
    }
    min_offset = e.offset + e.size;
    if (!out->sections.emplace(e.id, std::make_pair(e.offset, e.size)).second) {
      return Corrupt("duplicate section " + name);
    }
  }

  // Checksum verification as one task group; corrupt slots are reported for
  // the lowest section index so the error is deterministic.
  std::vector<uint8_t> bad(entries.size(), 0);
  sched->ParallelFor(entries.size(), [&](size_t s) {
    const SectionEntry& e = entries[s];
    if (SectionChecksum(base + e.offset, e.size, sched) != e.checksum) {
      bad[s] = 1;
    }
  });
  for (size_t s = 0; s < entries.size(); ++s) {
    if (bad[s]) {
      return Corrupt(std::string("checksum mismatch in section ") +
                     SectionName(entries[s].id));
    }
  }
  return Status::OK();
}

/// Typed window over a parsed section with an exact element-count check.
template <typename T>
Result<std::span<const T>> SectionArray(const SnapshotStorage& storage,
                                        const ParsedSnapshot& parsed,
                                        uint32_t id, uint64_t expected_count) {
  if (!parsed.Has(id)) {
    return Corrupt(std::string("missing section ") + SectionName(id) +
                   " (layout mismatch or truncated writer)");
  }
  const uint64_t size = parsed.SectionSize(id);
  // Guard the multiply below: a forged header count must not wrap into a
  // "matching" size and drive a huge scan.
  if (expected_count > std::numeric_limits<uint64_t>::max() / sizeof(T)) {
    return Corrupt(std::string("implausible element count for section ") +
                   SectionName(id));
  }
  if (size != expected_count * sizeof(T)) {
    return Corrupt(std::string("section ") + SectionName(id) + " holds " +
                   std::to_string(size / sizeof(T)) + " elements, header "
                   "promises " + std::to_string(expected_count));
  }
  return std::span<const T>(
      reinterpret_cast<const T*>(parsed.SectionData(storage, id)),
      static_cast<size_t>(expected_count));
}

/// Materializes one array behind the storage seam: a heap copy
/// (ReadSnapshot) or a zero-copy view into the mapping (OpenSnapshot).
template <typename T>
void FillArray(PodArray<T>* out, std::span<const T> in, bool zero_copy) {
  if (zero_copy) {
    out->BindView(in.data(), in.size());
  } else {
    out->Own(PodVector<T>(in.begin(), in.end()));
  }
}

/// Parallel all-of over [0, n): the semantic validation scans (positions in
/// range, record fields inside the header counts) are O(n) over the largest
/// sections, so they run as chunked task groups like the checksums.
template <typename Fn>
bool ParallelAllOf(size_t n, Scheduler* sched, const Fn& pred) {
  constexpr size_t kChunk = 1 << 16;
  if (n <= kChunk) {
    for (size_t i = 0; i < n; ++i) {
      if (!pred(i)) return false;
    }
    return true;
  }
  const size_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<uint8_t> ok(chunks, 1);
  sched->ParallelFor(chunks, [&](size_t c) {
    const size_t end = std::min(n, (c + 1) * kChunk);
    for (size_t i = c * kChunk; i < end; ++i) {
      if (!pred(i)) {
        ok[c] = 0;
        break;
      }
    }
  });
  return std::all_of(ok.begin(), ok.end(), [](uint8_t v) { return v != 0; });
}

/// Parallel count of the i in [0, n) for which pred(i) holds, chunked like
/// ParallelAllOf.
template <typename Fn>
size_t ParallelCount(size_t n, Scheduler* sched, const Fn& pred) {
  constexpr size_t kChunk = 1 << 16;
  const size_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<size_t> counts(chunks, 0);
  auto count_chunk = [&](size_t c) {
    const size_t end = std::min(n, (c + 1) * kChunk);
    for (size_t i = c * kChunk; i < end; ++i) counts[c] += pred(i) ? 1 : 0;
  };
  if (chunks <= 1) {
    for (size_t c = 0; c < chunks; ++c) count_chunk(c);
  } else {
    sched->ParallelFor(chunks, count_chunk);
  }
  return std::accumulate(counts.begin(), counts.end(), size_t{0});
}

/// The store order the lookup join relies on. Records are table-major and
/// row-major: the (TableId, RowId) key never decreases with position, every
/// record lies in its own table's range, and the ranges add up to the record
/// count, so each range holds exactly its table's records. The lookup join
/// binary-searches (TableId, RowId) groups inside those ranges.
/// The Quadrant partial index lists exactly the records with a quadrant,
/// strictly ascending: scans through it must neither repeat nor miss one.
template <typename Store>
Status ValidateStoreOrder(const Store& store, Scheduler* sched) {
  const size_t n = store.NumRecords();
  uint64_t covered = 0;
  for (size_t t = 0; t < store.NumTables(); ++t) {
    const auto [b, e] = store.TableRange(static_cast<TableId>(t));
    covered += e - b;
  }
  auto in_order = [&](size_t i) {
    const auto p = static_cast<RecordPos>(i);
    const TableId t = store.table(p);
    const auto [b, e] = store.TableRange(t);
    if (p < b || p >= e) return false;
    return p == 0 || store.table(p - 1) < t ||
           (store.table(p - 1) == t && store.row(p - 1) <= store.row(p));
  };
  if (covered != n || !ParallelAllOf(n, sched, in_order)) {
    return Corrupt("records are not in (TableId, RowId) order within their "
                   "table ranges");
  }
  const auto quad = store.QuadrantPositions();
  auto ascending = [&](size_t i) { return i == 0 || quad[i - 1] < quad[i]; };
  if (!ParallelAllOf(quad.size(), sched, ascending)) {
    return Corrupt("quadrant positions not strictly ascending");
  }
  auto listed_has_quadrant = [&](size_t i) {
    return store.quadrant(quad[i]) != kQuadrantNull;
  };
  auto has_quadrant = [&](size_t i) {
    return store.quadrant(static_cast<RecordPos>(i)) != kQuadrantNull;
  };
  if (!ParallelAllOf(quad.size(), sched, listed_has_quadrant) ||
      ParallelCount(n, sched, has_quadrant) != quad.size()) {
    return Corrupt("quadrant positions do not list exactly the records that "
                   "have a quadrant");
  }
  return Status::OK();
}

/// CSR offsets must be monotone and end at the payload length; anything else
/// is corruption that would otherwise turn into out-of-bounds spans.
Status ValidateCsr(std::span<const uint64_t> offsets, uint64_t payload,
                   const char* what) {
  if (offsets.empty() || offsets.front() != 0) {
    return Corrupt(std::string(what) + " offsets must start at 0");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Corrupt(std::string(what) + " offsets are not monotone");
    }
  }
  if (offsets.back() != payload) {
    return Corrupt(std::string(what) + " offsets end at " +
                   std::to_string(offsets.back()) + ", payload has " +
                   std::to_string(payload) + " elements");
  }
  return Status::OK();
}

}  // namespace

Result<IndexBundle> SnapshotCodec::Load(std::shared_ptr<SnapshotStorage> storage,
                                        bool zero_copy, Scheduler* sched) {
  ParsedSnapshot parsed;
  BLEND_RETURN_NOT_OK(ParseSnapshot(*storage, sched, &parsed));
  const FileHeader& header = parsed.header;
  const uint64_t n = header.num_records;
  const uint64_t num_tables = header.num_tables;
  const uint64_t num_cells = header.num_cells;
  const SnapshotStorage& st = *storage;

  IndexBundle bundle;
  bundle.layout_ = header.layout == 0 ? StoreLayout::kRow : StoreLayout::kColumn;

  // Dictionary: all three arrays (CSR offsets, value blob, hash table) come
  // straight from the file — no interning, no hashing. This is what makes a
  // snapshot load an order of magnitude cheaper than re-indexing.
  {
    BLEND_ASSIGN_OR_RETURN(auto offsets, (SectionArray<uint64_t>(
                                             st, parsed, kSecDictOffsets,
                                             num_cells + 1)));
    const uint64_t blob_size =
        parsed.Has(kSecDictBlob) ? parsed.SectionSize(kSecDictBlob) : 0;
    BLEND_RETURN_NOT_OK(ValidateCsr(offsets, blob_size, "dictionary"));
    BLEND_ASSIGN_OR_RETURN(auto blob, (SectionArray<char>(st, parsed,
                                                          kSecDictBlob,
                                                          blob_size)));
    const uint64_t slot_count =
        parsed.Has(kSecDictHash)
            ? parsed.SectionSize(kSecDictHash) / sizeof(CellId)
            : 0;
    BLEND_ASSIGN_OR_RETURN(auto slots, (SectionArray<CellId>(st, parsed,
                                                             kSecDictHash,
                                                             slot_count)));
    if (slot_count == 0 || (slot_count & (slot_count - 1)) != 0 ||
        slot_count < num_cells + 1) {
      return Corrupt("dictionary hash table must be a power of two larger "
                     "than the value count");
    }
    if (!ParallelAllOf(slots.size(), sched, [&](size_t i) {
          return slots[i] == kInvalidCellId ||
                 static_cast<uint64_t>(slots[i]) < num_cells;
        })) {
      return Corrupt("dictionary hash slot references a value outside the "
                     "header count");
    }
    const uint64_t filled = static_cast<uint64_t>(
        slots.size() - std::count(slots.begin(), slots.end(), kInvalidCellId));
    if (filled != num_cells) {
      return Corrupt("dictionary hash table holds " + std::to_string(filled) +
                     " entries for " + std::to_string(num_cells) + " values");
    }
    FillArray(&bundle.dict_.offsets_, offsets, zero_copy);
    FillArray(&bundle.dict_.blob_, blob, zero_copy);
    FillArray(&bundle.dict_.hash_slots_, slots, zero_copy);
  }

  // The active store's primary arrays.
  SecondaryIndexes* secondary;
  if (bundle.layout_ == StoreLayout::kRow) {
    BLEND_ASSIGN_OR_RETURN(auto records, (SectionArray<IndexRecord>(
                                             st, parsed, kSecRecords, n)));
    if (!ParallelAllOf(records.size(), sched, [&](size_t i) {
          const IndexRecord& r = records[i];
          return static_cast<uint64_t>(r.cell) < num_cells && r.table >= 0 &&
                 static_cast<uint64_t>(r.table) < num_tables;
        })) {
      return Corrupt("record references a cell or table outside the header "
                     "counts");
    }
    FillArray(&bundle.row_store_.records_, records, zero_copy);
    secondary = &bundle.row_store_.secondary_;
  } else {
    BLEND_ASSIGN_OR_RETURN(auto cells, (SectionArray<CellId>(st, parsed,
                                                             kSecCells, n)));
    BLEND_ASSIGN_OR_RETURN(auto tables, (SectionArray<TableId>(st, parsed,
                                                               kSecTables, n)));
    BLEND_ASSIGN_OR_RETURN(auto columns, (SectionArray<int32_t>(
                                             st, parsed, kSecColumns, n)));
    BLEND_ASSIGN_OR_RETURN(auto rows, (SectionArray<int32_t>(st, parsed,
                                                             kSecRows, n)));
    BLEND_ASSIGN_OR_RETURN(auto super_keys, (SectionArray<uint64_t>(
                                                st, parsed, kSecSuperKeys, n)));
    BLEND_ASSIGN_OR_RETURN(auto quadrants, (SectionArray<int8_t>(
                                               st, parsed, kSecQuadrants, n)));
    if (!ParallelAllOf(static_cast<size_t>(n), sched, [&](size_t i) {
          return static_cast<uint64_t>(cells[i]) < num_cells &&
                 tables[i] >= 0 &&
                 static_cast<uint64_t>(tables[i]) < num_tables;
        })) {
      return Corrupt("record references a cell or table outside the header "
                     "counts");
    }
    FillArray(&bundle.column_store_.cells_, cells, zero_copy);
    FillArray(&bundle.column_store_.tables_, tables, zero_copy);
    FillArray(&bundle.column_store_.columns_, columns, zero_copy);
    FillArray(&bundle.column_store_.rows_, rows, zero_copy);
    FillArray(&bundle.column_store_.super_keys_, super_keys, zero_copy);
    FillArray(&bundle.column_store_.quadrants_, quadrants, zero_copy);
    secondary = &bundle.column_store_.secondary_;
  }

  // Secondary indexes: CSR postings (raw positions, or the compressed blob
  // decoded once here, per the header's codec bits), clustered table ranges,
  // quadrant partial index. All positions must stay inside [0, n).
  {
    const auto codec = static_cast<PostingCodec>(
        (header.flags >> kFlagCodecShift) & kFlagCodecMask);
    BLEND_ASSIGN_OR_RETURN(auto offsets, (SectionArray<uint64_t>(
                                             st, parsed, kSecPostingOffsets,
                                             num_cells + 1)));
    BLEND_RETURN_NOT_OK(ValidateCsr(offsets, n, "postings"));
    if (codec == PostingCodec::kRaw) {
      if (parsed.Has(kSecPostingPartitions) || parsed.Has(kSecPostingBlob)) {
        return Corrupt("posting blob sections present but the header declares "
                       "the raw codec");
      }
      BLEND_ASSIGN_OR_RETURN(auto positions, (SectionArray<RecordPos>(
                                                 st, parsed,
                                                 kSecPostingPositions, n)));
      if (!ParallelAllOf(positions.size(), sched,
                         [&](size_t i) { return positions[i] < n; })) {
        return Corrupt("posting position outside the record range");
      }
      // Like the compressed decoder, each list must be strictly ascending:
      // the scan, join and COUNT(DISTINCT) paths all assume it, so a
      // tampered raw section that kept every value in range would otherwise
      // load "successfully" into an index that answers queries wrong.
      // (Found by fuzzing: see fuzz/corpus/snapshot/crash-raw-nonascending.)
      if (!ParallelAllOf(num_cells, sched, [&](size_t i) {
            for (uint64_t j = offsets[i] + 1; j < offsets[i + 1]; ++j) {
              if (positions[j - 1] >= positions[j]) return false;
            }
            return true;
          })) {
        return Corrupt("posting list not strictly ascending");
      }
      FillArray(&secondary->posting_positions, positions, zero_copy);
    } else {
      if (parsed.Has(kSecPostingPositions)) {
        return Corrupt("raw postings section present but the header declares "
                       "the compressed codec");
      }
      const uint64_t parts = (num_cells + kPostingPartitionCells - 1) /
                             kPostingPartitionCells;
      BLEND_ASSIGN_OR_RETURN(auto partitions,
                             (SectionArray<uint64_t>(st, parsed,
                                                     kSecPostingPartitions,
                                                     parts + 1)));
      const uint64_t blob_size =
          parsed.Has(kSecPostingBlob) ? parsed.SectionSize(kSecPostingBlob) : 0;
      BLEND_RETURN_NOT_OK(
          ValidateCsr(partitions, blob_size, "posting partition"));
      BLEND_ASSIGN_OR_RETURN(auto blob, (SectionArray<uint8_t>(
                                            st, parsed, kSecPostingBlob,
                                            blob_size)));
      // Every encoded partition is decoded list by list and block by block,
      // with full checks, into heap positions: truncation at block
      // boundaries, forged varints/tags/widths/skip tables and out-of-range
      // or non-ascending positions all surface here as a descriptive error.
      // The bundle then serves plain positions in both load modes.
      PodVector<RecordPos> positions(static_cast<size_t>(n));
      Status decoded = DecodePostingsCsr(offsets, partitions, blob.data(), n,
                                         positions.data(), sched);
      if (!decoded.ok()) return Corrupt(decoded.message());
      secondary->posting_positions.Own(std::move(positions));
    }
    BLEND_ASSIGN_OR_RETURN(auto ranges, (SectionArray<RecordPos>(
                                            st, parsed, kSecTableRanges,
                                            2 * num_tables)));
    const uint64_t quad_count = parsed.Has(kSecQuadrantPositions)
                                    ? parsed.SectionSize(kSecQuadrantPositions) /
                                          sizeof(RecordPos)
                                    : 0;
    BLEND_ASSIGN_OR_RETURN(auto quad, (SectionArray<RecordPos>(
                                          st, parsed, kSecQuadrantPositions,
                                          quad_count)));
    if (!ParallelAllOf(quad.size(), sched,
                       [&](size_t i) { return quad[i] < n; })) {
      return Corrupt("quadrant position outside the record range");
    }
    for (uint64_t t = 0; t < num_tables; ++t) {
      if (ranges[2 * t] > ranges[2 * t + 1] || ranges[2 * t + 1] > n) {
        return Corrupt("table range outside the record range");
      }
    }
    FillArray(&secondary->posting_offsets, offsets, zero_copy);
    FillArray(&secondary->table_ranges, ranges, zero_copy);
    FillArray(&secondary->quadrant_positions, quad, zero_copy);
    BLEND_RETURN_NOT_OK(bundle.layout_ == StoreLayout::kRow
                            ? ValidateStoreOrder(bundle.row_store_, sched)
                            : ValidateStoreOrder(bundle.column_store_, sched));
  }

  if (zero_copy) bundle.storage_ = std::move(storage);
  return bundle;
}

Status WriteSnapshot(const IndexBundle& bundle, const std::string& path,
                     const SnapshotOptions& options) {
  Scheduler* sched =
      options.scheduler != nullptr ? options.scheduler : Scheduler::Default();
  return SnapshotCodec::Write(bundle, path, options.codec, sched);
}

Result<IndexBundle> ReadSnapshot(const std::string& path,
                                 const SnapshotOptions& options) {
  Scheduler* sched =
      options.scheduler != nullptr ? options.scheduler : Scheduler::Default();
  BLEND_ASSIGN_OR_RETURN(auto storage, SnapshotStorage::ReadFile(path));
  return SnapshotCodec::Load(std::move(storage), /*zero_copy=*/false, sched);
}

Result<IndexBundle> OpenSnapshot(const std::string& path,
                                 const SnapshotOptions& options) {
  Scheduler* sched =
      options.scheduler != nullptr ? options.scheduler : Scheduler::Default();
  auto storage = SnapshotStorage::MapFile(path);
  if (storage.ok()) {
    return SnapshotCodec::Load(std::move(storage).take(), /*zero_copy=*/true,
                               sched);
  }
  // A missing or empty file is final, but an mmap-layer failure (address
  // space exhaustion, a filesystem without mmap support) still has a working
  // plain-read path: fall back to a heap load so serving degrades to higher
  // memory use instead of an error. Both paths parse and validate the same
  // bytes, so results are byte-identical either way.
  if (storage.status().code() != StatusCode::kExecutionError) {
    return storage.status();
  }
  return ReadSnapshot(path, options);
}

size_t SnapshotBytes(const IndexBundle& bundle, const SnapshotOptions& options) {
  return SnapshotCodec::FileBytes(bundle, options.codec);
}

size_t SnapshotPostingBytes(const IndexBundle& bundle,
                            const SnapshotOptions& options) {
  return SnapshotCodec::PostingBytes(bundle, options.codec);
}

namespace internal {
uint64_t SnapshotChecksum(const uint8_t* data, size_t size) {
  return ChecksumSerial(data, size);
}

Result<IndexBundle> LoadSnapshotFromBuffer(const uint8_t* data, size_t size,
                                           const SnapshotOptions& options) {
  Scheduler* sched =
      options.scheduler != nullptr ? options.scheduler : Scheduler::Default();
  auto storage = std::make_shared<HeapStorage>(
      std::vector<uint8_t>(data, data + size));
  return SnapshotCodec::Load(std::move(storage), /*zero_copy=*/false, sched);
}
}  // namespace internal

}  // namespace blend
