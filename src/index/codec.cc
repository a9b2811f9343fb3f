#include "index/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/scheduler.h"

namespace blend {

namespace {

constexpr uint32_t kFmtRun = 0;
constexpr uint32_t kFmtPacked = 1;
constexpr uint32_t kFmtBitmap = 2;
constexpr size_t kSkipEntryBytes = 8;  // u32 first value + u32 byte offset
/// Longest legal varint: 5 * 7 = 35 bits covers every zigzagged 33-bit
/// first-value delta.
constexpr size_t kMaxVarintBytes = 5;

inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void AppendU32(uint32_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void AppendVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

size_t VarintBytes(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Bounds- and length-checked varint read; returns bytes consumed, 0 on
/// truncation or a varint longer than any legal delta.
size_t ReadVarintChecked(const uint8_t* p, size_t avail, uint64_t* out) {
  uint64_t v = 0;
  for (size_t i = 0; i < std::min(avail, kMaxVarintBytes); ++i) {
    v |= static_cast<uint64_t>(p[i] & 0x7F) << (7 * i);
    if ((p[i] & 0x80) == 0) {
      *out = v;
      return i + 1;
    }
  }
  return 0;
}

/// Appends `count` values of `w` bits each as an LSB-first bit stream.
void AppendBits(const uint32_t* vals, size_t count, int w,
                std::vector<uint8_t>* out) {
  uint64_t acc = 0;
  int nbits = 0;
  for (size_t i = 0; i < count; ++i) {
    acc |= static_cast<uint64_t>(vals[i]) << nbits;
    nbits += w;
    while (nbits >= 8) {
      out->push_back(static_cast<uint8_t>(acc));
      acc >>= 8;
      nbits -= 8;
    }
  }
  if (nbits > 0) out->push_back(static_cast<uint8_t>(acc));
}

/// Unpacks `count` values of `w` bits (w >= 1) from an LSB-first stream of
/// `nbytes` bytes. Word-wise: each value is one guarded 8-byte load, a shift
/// and a mask — no per-bit branching, so compilers vectorize the loop.
void UnpackBits(const uint8_t* p, size_t nbytes, int w, size_t count,
                uint32_t* out) {
  const uint64_t mask = w == 32 ? 0xFFFFFFFFull : (1ull << w) - 1;
  size_t bitpos = 0;
  for (size_t i = 0; i < count; ++i) {
    const size_t byte = bitpos >> 3;
    uint64_t window = 0;
    // Tail-guarded load: a value needs at most ceil((7 + 32) / 8) = 5 bytes,
    // but the final bytes of the stream may be fewer than 8.
    std::memcpy(&window, p + byte, std::min<size_t>(8, nbytes - byte));
    out[i] = static_cast<uint32_t>((window >> (bitpos & 7)) & mask);
    bitpos += w;
  }
}

/// Widest (delta - 1) of a block, as a bit width.
int DeltaWidth(std::span<const PostingValue> block) {
  uint32_t max_gap = 0;
  for (size_t i = 1; i < block.size(); ++i) {
    max_gap = std::max(max_gap, block[i] - block[i - 1] - 1);
  }
  return max_gap == 0 ? 0 : 32 - std::countl_zero(max_gap);
}

/// Chooses the cheapest container for one block and returns its encoded
/// size (tag + payload; the base is contextual and never stored). The
/// decision is a pure function of the block values (determinism).
size_t PickBlockFormat(std::span<const PostingValue> block, uint32_t* fmt,
                       int* width) {
  const size_t len = block.size();
  const uint64_t span =
      static_cast<uint64_t>(block.back()) - block.front() + 1;
  if (span == len) {  // consecutive run: one tag byte, never beaten
    *fmt = kFmtRun;
    *width = 0;
    return 1;
  }
  const int w = DeltaWidth(block);
  const size_t packed = 1 + (static_cast<size_t>(w) * (len - 1) + 7) / 8;
  // Dense but gappy regions: a bitmap over the span beats bitpacked deltas.
  const size_t bitmap = 1 + sizeof(uint32_t) + (span + 7) / 8;
  if (span <= 0xFFFFFFFFull && bitmap < packed) {
    *fmt = kFmtBitmap;
    *width = 0;
    return bitmap;
  }
  *fmt = kFmtPacked;
  *width = w;
  return packed;
}

size_t EncodedBlockBytes(std::span<const PostingValue> block) {
  uint32_t fmt;
  int w;
  return PickBlockFormat(block, &fmt, &w);
}

void EncodeBlock(std::span<const PostingValue> block, std::vector<uint8_t>* out) {
  uint32_t fmt;
  int w;
  PickBlockFormat(block, &fmt, &w);
  out->push_back(static_cast<uint8_t>(fmt | (static_cast<uint32_t>(w) << 2)));
  if (fmt == kFmtRun) return;
  if (fmt == kFmtPacked) {
    uint32_t gaps[kPostingBlockLen];
    for (size_t i = 1; i < block.size(); ++i) {
      gaps[i - 1] = block[i] - block[i - 1] - 1;
    }
    if (w > 0) AppendBits(gaps, block.size() - 1, w, out);
    return;
  }
  const uint64_t span =
      static_cast<uint64_t>(block.back()) - block.front() + 1;
  AppendU32(static_cast<uint32_t>(span), out);
  const size_t at = out->size();
  out->resize(at + (span + 7) / 8, 0);
  uint8_t* bits = out->data() + at;
  for (PostingValue v : block) {
    const uint32_t i = v - block.front();
    bits[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
  }
}

/// Decodes one block of `len` values based at `base` from `p` (tag byte
/// first). Check-free: DecodePostingPartition bounds the block's bytes
/// first. Returns the bytes consumed.
size_t DecodeBlock(const uint8_t* p, PostingValue base, size_t len,
                   PostingValue* out) {
  const uint8_t tag = p[0];
  const uint32_t fmt = tag & 3;
  if (fmt == kFmtRun) {
    for (size_t i = 0; i < len; ++i) out[i] = base + static_cast<uint32_t>(i);
    return 1;
  }
  if (fmt == kFmtPacked) {
    const int w = tag >> 2;
    out[0] = base;
    if (w == 0) {
      for (size_t i = 1; i < len; ++i) out[i] = out[i - 1] + 1;
      return 1;
    }
    uint32_t gaps[kPostingBlockLen];
    const size_t nbytes = (static_cast<size_t>(w) * (len - 1) + 7) / 8;
    UnpackBits(p + 1, nbytes, w, len - 1, gaps);
    for (size_t i = 1; i < len; ++i) out[i] = out[i - 1] + gaps[i - 1] + 1;
    return 1 + nbytes;
  }
  // Bitmap: emit one value per set bit, 64 bits at a time.
  const uint32_t span = LoadU32(p + 1);
  const uint8_t* bits = p + 5;
  const size_t nbytes = (static_cast<size_t>(span) + 7) / 8;
  size_t n = 0;
  for (size_t wd = 0; wd < nbytes; wd += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bits + wd, std::min<size_t>(8, nbytes - wd));
    while (word != 0) {
      const int b = std::countr_zero(word);
      out[n++] = base + static_cast<uint32_t>(wd * 8 + static_cast<size_t>(b));
      word &= word - 1;
    }
  }
  return 1 + sizeof(uint32_t) + nbytes;
}

/// Encodes the tail (skip table + blocks) of a list with count >= 2.
void EncodeListTail(std::span<const PostingValue> values,
                    std::vector<uint8_t>* out) {
  const size_t n = values.size();
  const size_t num_blocks = (n + kPostingBlockLen - 1) / kPostingBlockLen;
  if (num_blocks > 1) {
    uint32_t off = 0;
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t begin = b * kPostingBlockLen;
      const auto block =
          values.subspan(begin, std::min(kPostingBlockLen, n - begin));
      AppendU32(block.front(), out);
      AppendU32(off, out);
      off += static_cast<uint32_t>(EncodedBlockBytes(block));
    }
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t begin = b * kPostingBlockLen;
    EncodeBlock(values.subspan(begin, std::min(kPostingBlockLen, n - begin)),
                out);
  }
}

size_t ListTailBytes(std::span<const PostingValue> values) {
  const size_t n = values.size();
  const size_t num_blocks = (n + kPostingBlockLen - 1) / kPostingBlockLen;
  size_t total = num_blocks > 1 ? num_blocks * kSkipEntryBytes : 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t begin = b * kPostingBlockLen;
    total += EncodedBlockBytes(
        values.subspan(begin, std::min(kPostingBlockLen, n - begin)));
  }
  return total;
}

Status CorruptList(const std::string& what) {
  return Status::InvalidArgument("invalid posting partition: " + what);
}

}  // namespace

const char* PostingCodecName(PostingCodec codec) {
  switch (codec) {
    case PostingCodec::kRaw: return "raw";
    case PostingCodec::kCompressed: return "compressed";
  }
  return "unknown";
}

Result<PostingCodec> ParsePostingCodec(std::string_view name) {
  if (name == "raw") return PostingCodec::kRaw;
  if (name == "compressed") return PostingCodec::kCompressed;
  return Status::InvalidArgument("unknown posting codec '" + std::string(name) +
                                 "' (expected 'raw' or 'compressed')");
}

void EncodePostingPartition(std::span<const uint32_t> offsets,
                            std::span<const PostingValue> positions,
                            std::vector<uint8_t>* out) {
  const size_t num_lists = offsets.empty() ? 0 : offsets.size() - 1;
  uint32_t prev_first = 0;
  for (size_t i = 0; i < num_lists; ++i) {
    const size_t count = static_cast<size_t>(offsets[i + 1] - offsets[i]);
    if (count == 0) continue;
    const auto values =
        positions.subspan(static_cast<size_t>(offsets[i] - offsets[0]), count);
    AppendVarint(ZigZag(static_cast<int64_t>(values[0]) -
                        static_cast<int64_t>(prev_first)),
                 out);
    prev_first = values[0];
    if (count > 1) EncodeListTail(values, out);
  }
}

size_t EncodedPostingPartitionBytes(std::span<const uint32_t> offsets,
                                    std::span<const PostingValue> positions) {
  const size_t num_lists = offsets.empty() ? 0 : offsets.size() - 1;
  uint32_t prev_first = 0;
  size_t total = 0;
  for (size_t i = 0; i < num_lists; ++i) {
    const size_t count = static_cast<size_t>(offsets[i + 1] - offsets[i]);
    if (count == 0) continue;
    const auto values =
        positions.subspan(static_cast<size_t>(offsets[i] - offsets[0]), count);
    total += VarintBytes(ZigZag(static_cast<int64_t>(values[0]) -
                                static_cast<int64_t>(prev_first)));
    prev_first = values[0];
    if (count > 1) total += ListTailBytes(values);
  }
  return total;
}

Status DecodePostingPartition(const uint8_t* data, size_t size,
                              std::span<const uint32_t> offsets, uint64_t limit,
                              PostingValue* out) {
  const size_t num_lists = offsets.empty() ? 0 : offsets.size() - 1;
  size_t at = 0;
  uint64_t prev_first = 0;
  for (size_t li = 0; li < num_lists; ++li) {
    const uint64_t count = offsets[li + 1] - offsets[li];
    if (count == 0) continue;
    uint64_t zz;
    const size_t vb = ReadVarintChecked(data + at, size - at, &zz);
    if (vb == 0) return CorruptList("truncated or oversized first-value varint");
    at += vb;
    const int64_t first64 =
        static_cast<int64_t>(prev_first) + UnZigZag(zz);
    if (first64 < 0 || first64 > 0xFFFFFFFFll ||
        static_cast<uint64_t>(first64) >= limit) {
      return CorruptList("list first value out of range");
    }
    const auto first = static_cast<PostingValue>(first64);
    prev_first = first;
    if (count == 1) {
      *out++ = first;
      continue;
    }

    const uint64_t num_blocks =
        (count + kPostingBlockLen - 1) / kPostingBlockLen;
    const uint8_t* skip = nullptr;
    if (num_blocks > 1) {
      if (size - at < num_blocks * kSkipEntryBytes) {
        return CorruptList("truncated skip table");
      }
      skip = data + at;
      at += static_cast<size_t>(num_blocks) * kSkipEntryBytes;
      if (LoadU32(skip) != first) {
        return CorruptList("skip-table first value disagrees with its list");
      }
    }
    const size_t blocks_base = at;
    uint64_t prev_val = 0;
    for (uint64_t b = 0; b < num_blocks; ++b) {
      const size_t len = static_cast<size_t>(
          std::min<uint64_t>(kPostingBlockLen, count - b * kPostingBlockLen));
      PostingValue base = first;
      if (skip != nullptr) {
        if (LoadU32(skip + b * kSkipEntryBytes + 4) != at - blocks_base) {
          return CorruptList("skip-table offset disagrees with block layout");
        }
        base = LoadU32(skip + b * kSkipEntryBytes);
      }
      if (b > 0 && base <= prev_val) {
        return CorruptList("positions are not strictly ascending");
      }
      if (at >= size) return CorruptList("truncated at a block boundary");
      const uint8_t tag = data[at];
      const uint32_t fmt = tag & 3;
      const uint32_t param = tag >> 2;
      uint64_t last;
      size_t block_bytes;
      if (fmt == kFmtRun) {
        if (param != 0) return CorruptList("run block carries a bit width");
        last = static_cast<uint64_t>(base) + len - 1;
        block_bytes = 1;
      } else if (fmt == kFmtPacked) {
        if (param > 32) return CorruptList("bit width exceeds 32");
        const size_t nbytes =
            (static_cast<size_t>(param) * (len - 1) + 7) / 8;
        block_bytes = 1 + nbytes;
        if (size - at < block_bytes) {
          return CorruptList("truncated packed block");
        }
        // The decode pass below bounds the interior: a u32 wrap of
        // prev + gap + 1 always lands at or below prev (gap + 1 <= 2^32),
        // so the strict-ascent check doubles as the overflow check, and the
        // final decoded value carries the limit check — no second unpack.
        last = base;
      } else if (fmt == kFmtBitmap) {
        if (param != 0) return CorruptList("bitmap block carries a bit width");
        if (size - at < 1 + sizeof(uint32_t)) {
          return CorruptList("truncated bitmap header");
        }
        const uint32_t span = LoadU32(data + at + 1);
        if (span < len) return CorruptList("bitmap span smaller than its count");
        if (static_cast<uint64_t>(base) + span - 1 > 0xFFFFFFFFull) {
          return CorruptList("bitmap span overflows 32-bit positions");
        }
        const size_t nbytes = (static_cast<size_t>(span) + 7) / 8;
        block_bytes = 1 + sizeof(uint32_t) + nbytes;
        if (size - at < block_bytes) {
          return CorruptList("truncated bitmap block");
        }
        const uint8_t* bits = data + at + 5;
        size_t pop = 0;
        for (size_t wd = 0; wd < nbytes; wd += 8) {
          uint64_t word = 0;
          std::memcpy(&word, bits + wd, std::min<size_t>(8, nbytes - wd));
          pop += static_cast<size_t>(std::popcount(word));
        }
        if (pop != len) {
          return CorruptList("bitmap population disagrees with the list count");
        }
        // An unset first or last spanned bit, or bits beyond the span, would
        // make the encoding non-canonical (and the span a lie).
        if ((bits[0] & 1u) == 0) {
          return CorruptList("bitmap's first bit is unset");
        }
        if ((bits[(span - 1) >> 3] & (1u << ((span - 1) & 7))) == 0) {
          return CorruptList("bitmap's last spanned bit is unset");
        }
        for (size_t i = span; i < nbytes * 8; ++i) {
          if ((bits[i >> 3] & (1u << (i & 7))) != 0) {
            return CorruptList("bitmap has bits set beyond its span");
          }
        }
        last = static_cast<uint64_t>(base) + span - 1;
      } else {
        return CorruptList("unknown block format " + std::to_string(fmt));
      }
      if (last > 0xFFFFFFFFull || last >= limit) {
        return CorruptList("position out of range");
      }
      // The checks above bound the block structurally; decoding the
      // now-known-safe byte range confirms strict ascent value by value
      // (which also catches u32 wrap-around) and the range of the last one.
      DecodeBlock(data + at, base, len, out);
      for (size_t i = 0; i < len; ++i) {
        if ((b > 0 || i > 0) && out[i] <= prev_val) {
          return CorruptList("positions are not strictly ascending");
        }
        prev_val = out[i];
      }
      if (out[len - 1] >= limit) {
        return CorruptList("position out of range");
      }
      out += len;
      at += block_bytes;
    }
  }
  if (at != size) return CorruptList("trailing bytes after the last list");
  return Status::OK();
}

namespace {
/// Partitions per task of the whole-index conversions. Fixed geometry: the
/// chunk decomposition depends only on the list count, never on the pool.
constexpr size_t kCsrChunkPartitions = 64;

inline size_t NumPartitions(size_t num_lists) {
  return (num_lists + kPostingPartitionCells - 1) / kPostingPartitionCells;
}

/// The offsets window of partition p: kPostingPartitionCells + 1 entries
/// (fewer for the final partition).
std::span<const uint32_t> PartitionOffsets(std::span<const uint32_t> offsets,
                                           size_t num_lists, size_t p) {
  const size_t begin = p * kPostingPartitionCells;
  const size_t lists = std::min(kPostingPartitionCells, num_lists - begin);
  return offsets.subspan(begin, lists + 1);
}
}  // namespace

EncodedPostingsCsr EncodePostingsCsr(std::span<const uint32_t> offsets,
                                     std::span<const PostingValue> positions,
                                     Scheduler* sched) {
  EncodedPostingsCsr out;
  const size_t num_lists = offsets.empty() ? 0 : offsets.size() - 1;
  const size_t parts = NumPartitions(num_lists);
  out.partition_offsets.assign(parts + 1, 0);
  if (parts == 0) return out;

  // Pass 1: per-partition encoded sizes, then a serial prefix sum.
  const size_t chunks = (parts + kCsrChunkPartitions - 1) / kCsrChunkPartitions;
  sched->ParallelFor(chunks, [&](size_t c) {
    const size_t end = std::min(parts, (c + 1) * kCsrChunkPartitions);
    for (size_t p = c * kCsrChunkPartitions; p < end; ++p) {
      const auto po = PartitionOffsets(offsets, num_lists, p);
      out.partition_offsets[p + 1] = EncodedPostingPartitionBytes(
          po, positions.subspan(static_cast<size_t>(po.front()),
                                static_cast<size_t>(po.back() - po.front())));
    }
  });
  for (size_t p = 0; p < parts; ++p) {
    out.partition_offsets[p + 1] += out.partition_offsets[p];
  }

  // Pass 2: each chunk encodes its partitions into a local buffer and copies
  // it to the chunk's (disjoint) slice of the blob.
  out.blob.resize(static_cast<size_t>(out.partition_offsets.back()));
  sched->ParallelFor(chunks, [&](size_t c) {
    const size_t begin = c * kCsrChunkPartitions;
    const size_t end = std::min(parts, begin + kCsrChunkPartitions);
    std::vector<uint8_t> local;
    local.reserve(static_cast<size_t>(out.partition_offsets[end] -
                                      out.partition_offsets[begin]));
    for (size_t p = begin; p < end; ++p) {
      const auto po = PartitionOffsets(offsets, num_lists, p);
      EncodePostingPartition(
          po,
          positions.subspan(static_cast<size_t>(po.front()),
                            static_cast<size_t>(po.back() - po.front())),
          &local);
    }
    if (!local.empty()) {
      std::memcpy(out.blob.data() + out.partition_offsets[begin], local.data(),
                  local.size());
    }
  });
  return out;
}

Status DecodePostingsCsr(std::span<const uint32_t> offsets,
                         std::span<const uint64_t> partition_offsets,
                         const uint8_t* blob, uint64_t limit, PostingValue* out,
                         Scheduler* sched) {
  const size_t num_lists = offsets.empty() ? 0 : offsets.size() - 1;
  const size_t parts = NumPartitions(num_lists);
  const size_t chunks = (parts + kCsrChunkPartitions - 1) / kCsrChunkPartitions;
  // Each chunk stops at its first failing partition; the lowest failing
  // chunk's error is reported, so the message is the same for every pool.
  std::vector<Status> chunk_err(chunks, Status::OK());
  sched->ParallelFor(chunks, [&](size_t c) {
    const size_t end = std::min(parts, (c + 1) * kCsrChunkPartitions);
    for (size_t p = c * kCsrChunkPartitions; p < end; ++p) {
      const auto po = PartitionOffsets(offsets, num_lists, p);
      Status part = DecodePostingPartition(
          blob + partition_offsets[p],
          static_cast<size_t>(partition_offsets[p + 1] - partition_offsets[p]), po,
          limit, out + static_cast<size_t>(po.front() - offsets.front()));
      if (!part.ok()) {
        chunk_err[c] = Status::InvalidArgument(
            "postings partition " + std::to_string(p) + " (cells " +
            std::to_string(p * kPostingPartitionCells) + "..): " + part.message());
        return;
      }
    }
  });
  for (Status& s : chunk_err) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace blend
