#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/array_ref.h"
#include "common/status.h"

namespace blend {

class Scheduler;

/// Physical position of a record within a store (mirrors all_tables.h; kept
/// here so the codec layer does not depend on the store headers).
using PostingValue = uint32_t;

/// Posting-list codec subsystem: block-based compression for the CSR posting
/// positions that dominate the snapshot artifact (paper Table 8: the unified
/// index is mostly postings).
///
/// A posting list is a strictly ascending sequence of u32 record positions.
/// Real lakes make two very different demands on the codec:
///
///   - Long lists (frequent values) want container compression: blocks of
///     kPostingBlockLen values, each block the cheapest of a run / a
///     delta+bitpacked array / a bitmap — the roaring-container idea adapted
///     to fixed 128-value blocks so decode always fills one reusable scratch.
///   - The long tail (most cells appear once or twice) wants near-zero
///     per-list overhead. Lists are therefore grouped into partitions of
///     kPostingPartitionCells consecutive cell ids, and each list's first
///     value is zigzag-varint delta-coded against the previous non-empty
///     list's first value in the partition. Dictionary ids are assigned in
///     first-occurrence order, so these cross-list deltas are tiny — a
///     singleton list typically costs one byte instead of four.
///
/// Partition layout (element counts are NOT stored: the owner's CSR offsets
/// carry every list's length):
///
///   partition := list*                      (cells [K*p, K*p + K), K = 64)
///   list      := ε                          (count == 0)
///              | varint zigzag(first - prev_first) tail
///                 (prev_first = previous non-empty list's first value in
///                  this partition, 0 for the first one)
///   tail      := ε                          (count == 1)
///              | [skip] block+              (count >= 2)
///   skip      := { u32 first, u32 offset } * num_blocks   (only when
///                 num_blocks > 1; `offset` is the block's byte offset
///                 relative to the end of the skip table — the seek index.
///                 Entry 0 repeats the list's first value at offset 0.)
///   block     := u8 tag, payload        (tag & 3 = format, tag >> 2 = param)
///     A block's base (first value) is contextual: the list's first value
///     for block 0, the skip entry for later blocks — never stored twice.
///     format 0  run    : no payload — values base .. base + len - 1
///     format 1  packed : (len-1) deltas-minus-1 bitpacked LSB-first at
///                        width `param` (0..32)
///     format 2  bitmap : u32 span, ceil(span/8) bytes — bit i set means
///                        value base + i is present; bits 0 and span - 1
///                        are always set
///
/// Encoded bytes are a pure function of the lists, so artifacts stay
/// deterministic and byte-comparable.
///
/// Safety contract: `ValidatePostingPartition` walks every list and block
/// with full bounds checks and rejects truncation, forged tags/widths/skip
/// tables, non-ascending or out-of-range values with a descriptive Status —
/// after it accepts a partition, the (check-free) lookup, decode and cursor
/// paths cannot touch a byte outside it.

/// Values per block. A multiple of the executor's scan-morsel length divides
/// evenly into blocks, so parallel scan morsels start on block boundaries.
/// It also bounds every PostingCursor batch, in both storage modes, so a
/// consumer may gather a batch into a fixed kPostingBlockLen-slot buffer.
inline constexpr size_t kPostingBlockLen = 128;

/// Consecutive cell ids per partition: the random-access granularity of the
/// compressed form. Lookup walks at most this many list headers; the
/// per-partition byte offset amortizes to a fraction of a byte per cell.
inline constexpr size_t kPostingPartitionCells = 64;

/// Identifies how the postings of an index (or snapshot section) are stored.
enum class PostingCodec : uint8_t {
  kRaw = 0,         // plain u32 positions
  kCompressed = 1,  // partitioned block containers as described above
};

const char* PostingCodecName(PostingCodec codec);
/// Parses "raw" / "compressed"; descriptive error for anything else.
[[nodiscard]] Result<PostingCodec> ParsePostingCodec(std::string_view name);

// ---------------------------------------------------------------------------
// Partition primitives. `offsets` always has one more entry than the
// partition has lists; list i holds offsets[i+1] - offsets[i] values and
// `positions` is the partition's values back to back (offsets may be a
// window of a larger CSR — only differences are used).
// ---------------------------------------------------------------------------

/// Appends the encoding of one partition to `out`.
void EncodePostingPartition(std::span<const uint64_t> offsets,
                            std::span<const PostingValue> positions,
                            std::vector<uint8_t>* out);

/// Exact byte size EncodePostingPartition would append, without
/// materializing anything.
size_t EncodedPostingPartitionBytes(std::span<const uint64_t> offsets,
                                    std::span<const PostingValue> positions);

/// Validates one encoded partition occupying exactly [data, data + size):
/// every varint, skip table and block bounds-checked, values strictly
/// ascending within each list and < `limit`. Any violation is a descriptive
/// InvalidArgument naming what broke.
[[nodiscard]] Status ValidatePostingPartition(const uint8_t* data, size_t size,
                                std::span<const uint64_t> offsets,
                                uint64_t limit);

/// Decodes a whole validated partition into out[0 ..), lists back to back.
/// Check-free: callers must have accepted the bytes via
/// ValidatePostingPartition (snapshot load does).
void DecodePostingPartition(const uint8_t* data,
                            std::span<const uint64_t> offsets,
                            PostingValue* out);

// ---------------------------------------------------------------------------
// PostingListRef: one list as stored — raw positions or a resolved window
// of an encoded partition.
// ---------------------------------------------------------------------------

class PostingListRef {
 public:
  PostingListRef() = default;

  static PostingListRef Raw(std::span<const PostingValue> values) {
    PostingListRef ref;
    ref.raw_ = values.data();
    ref.count_ = values.size();
    return ref;
  }
  /// `tail` points at a validated list tail (skip table / blocks; unused for
  /// counts <= 1) whose first value is `first` — what FindPostingList
  /// resolves. Prefer that helper over calling this directly.
  static PostingListRef Encoded(const uint8_t* tail, size_t count,
                                PostingValue first) {
    PostingListRef ref;
    ref.encoded_ = tail;
    ref.count_ = count;
    ref.first_ = first;
    return ref;
  }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool is_raw() const { return encoded_ == nullptr; }
  /// Raw-mode positions; valid only when is_raw().
  std::span<const PostingValue> raw_span() const { return {raw_, count_}; }
  const uint8_t* encoded_tail() const { return encoded_; }
  PostingValue first() const { return first_; }

  /// Materializes the list (either mode) — transcoding and test helper, not
  /// a query path.
  std::vector<PostingValue> ToVector() const;

 private:
  const PostingValue* raw_ = nullptr;
  const uint8_t* encoded_ = nullptr;
  size_t count_ = 0;
  PostingValue first_ = 0;
};

/// Resolves list `idx` inside a validated encoded partition at `data`:
/// walks the preceding list headers (their lengths come from `offsets`,
/// their byte sizes from the self-delimiting encoding), accumulates the
/// first-value delta chain, and returns the list as a PostingListRef.
/// `offsets` must cover at least idx + 1 lists.
PostingListRef FindPostingList(const uint8_t* data,
                               std::span<const uint64_t> offsets, size_t idx);

// ---------------------------------------------------------------------------
// PostingCursor: block-at-a-time iteration over either storage mode.
// ---------------------------------------------------------------------------

/// The query engine's view of a posting list: batches of ascending positions,
/// one block of at most kPostingBlockLen values each, decoded into an
/// internal scratch buffer that is reused across blocks (no per-batch
/// allocation). Raw lists are served as zero-copy subspans of the same
/// block geometry.
///
///   PostingCursor cur(store.PostingList(id));
///   for (auto batch = cur.NextBatch(); !batch.empty(); batch = cur.NextBatch())
///     for (PostingValue p : batch) ...
///
/// `SeekToOrdinal` supports morsel-parallel scans: each morsel uses the skip
/// table to jump to its own blocks without decoding the skipped ones.
class PostingCursor {
 public:
  explicit PostingCursor(PostingListRef list);

  size_t size() const { return list_.size(); }

  /// Decodes and returns the next batch (ordinals [b * kPostingBlockLen,
  /// (b + 1) * kPostingBlockLen) of the list), empty at end of list. The span
  /// is valid until the next call (it aliases the internal scratch for
  /// encoded lists, the underlying array for raw lists).
  std::span<const PostingValue> NextBatch();

  /// Ordinal (index within the list) of the first value of the batch most
  /// recently returned by NextBatch.
  size_t batch_ordinal() const { return batch_ordinal_; }

  /// Repositions so the next NextBatch returns the block containing ordinal
  /// `i` (the whole block — callers slice off leading values below i).
  /// Seeking past the end makes NextBatch return empty.
  void SeekToOrdinal(size_t i);

 private:
  size_t NumBlocks() const {
    return (list_.size() + kPostingBlockLen - 1) / kPostingBlockLen;
  }
  /// First value of encoded block b without decoding it.
  PostingValue BlockFirst(size_t b) const;
  /// Byte offset of encoded block b relative to the blocks area.
  size_t BlockOffset(size_t b) const;

  PostingListRef list_;
  size_t next_block_ = 0;     // next block to serve
  size_t batch_ordinal_ = 0;
  const uint8_t* skip_ = nullptr;    // encoded: skip table (null if 1 block)
  const uint8_t* blocks_ = nullptr;  // encoded: first block's tag byte
  PostingValue scratch_[kPostingBlockLen];
};

// ---------------------------------------------------------------------------
// Whole-index conversions (the snapshot writer's transcoding layer).
// ---------------------------------------------------------------------------

/// Whole-index encode: every partition of a CSR postings structure
/// (`offsets` has num_lists + 1 entries indexing into `positions`)
/// compressed into one concatenated blob with per-partition byte offsets.
/// Partitions encode as parallel chunked task groups on `sched`; since each
/// partition's bytes are a pure function of its lists, the blob is identical
/// for every pool size.
struct EncodedPostingsCsr {
  PodVector<uint64_t> partition_offsets;  // ceil(num_lists / K) + 1
  PodVector<uint8_t> blob;
};
EncodedPostingsCsr EncodePostingsCsr(std::span<const uint64_t> offsets,
                                     std::span<const PostingValue> positions,
                                     Scheduler* sched);

/// Inverse of EncodePostingsCsr: the flat raw positions array (lists back to
/// back, `offsets` giving each list's logical range). Parallel like encode.
std::vector<PostingValue> DecodePostingsCsr(
    std::span<const uint64_t> offsets,
    std::span<const uint64_t> partition_offsets, const uint8_t* blob,
    Scheduler* sched);

}  // namespace blend
