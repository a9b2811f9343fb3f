#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/scheduler.h"
#include "common/status.h"
#include "index/builder.h"
#include "index/codec.h"

namespace blend {

/// Persistent index snapshots: the offline build (paper Fig. 2e) runs once,
/// the resulting IndexBundle is written as a versioned, sectioned,
/// checksummed binary artifact, and any number of serving processes load it
/// instead of re-indexing the lake.
///
/// On-disk layout (all integers native-endian; the header records an
/// endianness marker and loading a foreign-endian file is a checked error):
///
///   FileHeader          magic "BLENDSNP", format version, endian marker,
///                       layout, flags, record/table/cell counts, section
///                       count, and checksums over the header and the
///                       section table.
///   SectionEntry[n]     (id, offset, size, checksum) per section; payload
///                       offsets are 8-byte aligned so every fixed-width
///                       array can be served in place from a mapping.
///   payloads            raw little-structured arrays, zero-padded between
///                       sections.
///
/// Sections: dictionary (CSR offsets + string blob), the active store's
/// primary arrays (the row layout's IndexRecord array, or the column
/// layout's six SoA arrays) and the shared secondary indexes (CSR postings,
/// table ranges, quadrant positions). Unknown section ids are ignored on
/// load (after their bounds and checksum checks), so the version only needs
/// to bump when existing sections change shape. Shuffled builds of older
/// writers carry two such sections, row maps back to the lake, which
/// nothing reads: their RowIds are the shuffled ones either way.
///
/// Format v2 adds a postings codec: bits 8..15 of the header flags carry a
/// PostingCodec id. With the raw codec (id 0) the postings payload is the
/// v1 PostingPositions array of plain u32s; with the compressed codec (id 1)
/// it is PostingBlobOffsets (per-cell byte offsets, num_cells + 1 u64s) plus
/// PostingBlob — every list block-encoded as delta+bitpacked / run / bitmap
/// containers (see index/codec.h). The logical PostingOffsets CSR is present
/// either way and carries each list's length. Compressed blobs are served
/// zero-copy out of the mapping like every other section; decoding happens
/// per block in the query engine's PostingCursor.
///
/// Versioning policy: `kSnapshotVersion` is the single format version.
/// Readers reject files newer than what they understand and accept older
/// versions they can still interpret (v1 == v2 with the raw codec and zero
/// codec flag bits; a v1 header carrying codec bits or blob sections is a
/// forgery and rejected); additive changes (new trailing sections) do not
/// bump it, incompatible changes do.
///
/// Two load paths share all validation:
///   - `ReadSnapshot` materializes every array onto the process heap; the
///     bundle is independent of the file afterwards.
///   - `OpenSnapshot` mmaps the file and binds the fixed-width arrays
///     (records/columns, postings, table ranges, row positions, and the
///     dictionary's offsets/blob/precomputed hash table) as zero-copy views
///     into the mapping. The bundle keeps the mapping alive.
///
/// Every malformed input — short file, bad magic, future version, foreign
/// endianness, misaligned or out-of-bounds section, checksum mismatch,
/// layout/section inconsistency — returns a descriptive error Status; no
/// input bytes can cause undefined behavior.

/// Current snapshot format version (see the policy above). Version 2 added
/// the postings codec id; v1 files still open (raw postings).
inline constexpr uint32_t kSnapshotVersion = 2;

/// Owns the raw bytes of a loaded snapshot: either a heap buffer
/// (ReadSnapshot) or a file mapping (OpenSnapshot). View-mode bundles hold a
/// shared_ptr to keep the bytes alive for as long as any store array views
/// them.
class SnapshotStorage {
 public:
  virtual ~SnapshotStorage() = default;
  SnapshotStorage(const SnapshotStorage&) = delete;
  SnapshotStorage& operator=(const SnapshotStorage&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  /// Reads the whole file into a heap buffer.
  static Result<std::shared_ptr<SnapshotStorage>> ReadFile(
      const std::string& path);
  /// Memory-maps the file (read-only). Falls back to a checked error on
  /// platforms without mmap.
  static Result<std::shared_ptr<SnapshotStorage>> MapFile(
      const std::string& path);

 protected:
  SnapshotStorage() = default;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Execution knobs shared by the write and load paths.
struct SnapshotOptions {
  /// Pool for the per-section checksum / block-encode / validation task
  /// groups; null selects the process-wide default pool.
  Scheduler* scheduler = nullptr;
  /// Postings codec of the written artifact (load discovers the codec from
  /// the header). The writer transcodes as needed, so any bundle can be
  /// saved under either codec.
  PostingCodec codec = PostingCodec::kRaw;
};

/// Serializes `bundle` to `path`, replacing any existing file. Section
/// checksums — and, for the compressed codec, the per-list block encode —
/// run as task groups on the scheduler.
[[nodiscard]] Status WriteSnapshot(const IndexBundle& bundle, const std::string& path,
                     const SnapshotOptions& options = {});

/// Loads a snapshot onto the heap: the returned bundle owns every array and
/// does not reference the file after the call.
[[nodiscard]] Result<IndexBundle> ReadSnapshot(const std::string& path,
                                 const SnapshotOptions& options = {});

/// Opens a snapshot zero-copy: the file is mmapped, fixed-width arrays are
/// served directly from the mapping, and the bundle keeps the mapping alive.
[[nodiscard]] Result<IndexBundle> OpenSnapshot(const std::string& path,
                                 const SnapshotOptions& options = {});

/// Size in bytes the snapshot of `bundle` would occupy on disk (header,
/// section table, aligned payloads) under `options.codec` — the on-disk
/// counterpart of IndexBundle::ApproxBytes.
size_t SnapshotBytes(const IndexBundle& bundle,
                     const SnapshotOptions& options = {});

/// On-disk byte size of just the postings payload under `options.codec`
/// (the dominant section, paper Table 8): the positions array for raw, the
/// blob-offsets + blob sections for compressed. The compression headline
/// benches report this next to the whole-artifact size.
size_t SnapshotPostingBytes(const IndexBundle& bundle,
                            const SnapshotOptions& options = {});

namespace internal {
/// The checksum protecting the header and section table. Exposed so
/// corruption tests can forge a self-consistent header (e.g. a wrong layout
/// with a matching checksum) and exercise the validation layers behind it.
uint64_t SnapshotChecksum(const uint8_t* data, size_t size);

/// Runs the full ReadSnapshot validation + materialization pipeline over an
/// in-memory byte buffer instead of a file. This is the fuzzing entry point:
/// harnesses feed arbitrary bytes here without touching the filesystem. The
/// buffer is copied; the returned bundle does not reference `data`.
Result<IndexBundle> LoadSnapshotFromBuffer(const uint8_t* data, size_t size,
                                           const SnapshotOptions& options = {});
}  // namespace internal

}  // namespace blend
