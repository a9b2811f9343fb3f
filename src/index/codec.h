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
///     to fixed 128-value blocks.
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
///                 relative to the end of the skip table. Entry 0 repeats
///                 the list's first value at offset 0. Decode checks every
///                 entry against the blocks it indexes.)
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
/// The encoding is a file format only: a snapshot load decodes every
/// partition once, with full checks, into the index's raw positions array,
/// and queries read plain u32 lists.

/// Values per block. The executor also walks posting lists in batches of at
/// most this many values, so a consumer may gather a batch into a fixed
/// kPostingBlockLen-slot buffer.
inline constexpr size_t kPostingBlockLen = 128;

/// Consecutive cell ids per partition: the unit of the whole-CSR encode and
/// decode tasks. The per-partition byte offset amortizes to a fraction of a
/// byte per cell.
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

/// Decodes one encoded partition occupying exactly [data, data + size) into
/// out[0 ..), lists back to back. Every varint, skip table and block is
/// bounds-checked, and values must be strictly ascending within each list and
/// < `limit`. Any violation is a descriptive InvalidArgument naming what
/// broke; `out` then holds an unspecified prefix of the values.
[[nodiscard]] Status DecodePostingPartition(const uint8_t* data, size_t size,
                                            std::span<const uint64_t> offsets,
                                            uint64_t limit, PostingValue* out);

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

/// Inverse of EncodePostingsCsr, checked: decodes every partition of `blob`
/// into out[0 ..) (offsets.back() - offsets.front() values, lists back to
/// back) as parallel chunked task groups on `sched`. `partition_offsets`
/// must be a monotone CSR over the blob, ceil(num_lists / K) + 1 entries.
/// On failure the error of the lowest failing partition is returned, as
/// "postings partition N (cells B..): <what broke>", for every pool size.
[[nodiscard]] Status DecodePostingsCsr(std::span<const uint64_t> offsets,
                                       std::span<const uint64_t> partition_offsets,
                                       const uint8_t* blob, uint64_t limit,
                                       PostingValue* out, Scheduler* sched);

}  // namespace blend
