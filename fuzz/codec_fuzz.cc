// Posting-codec harness. Contract under test (codec.h): after
// ValidatePostingPartition accepts a byte range, the check-free decode,
// lookup and cursor paths may not touch a byte outside it or produce
// malformed lists. So: feed arbitrary partitions through validation, and for
// every ACCEPTED partition check full agreement between all decode paths —
// any divergence, out-of-range value or sanitizer finding inside the
// "validated" paths is a bug in either the validator or the decoder.
//
// Input framing (the fuzzer mutates this as opaque bytes):
//   byte 0        num_lists - 1 (mod 64)
//   byte 1        limit selector: limit = (b1 + 1) << 16
//   2 * num_lists bytes of little-endian u16 list counts (mod 4097)
//   rest          the encoded partition, exactly [data, data + size)
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "fuzz_util.h"
#include "index/codec.h"

namespace {

constexpr size_t kMaxInput = 1 << 20;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2 || size > kMaxInput) return 0;
  const size_t num_lists = static_cast<size_t>(data[0] % 64) + 1;
  const uint64_t limit = (static_cast<uint64_t>(data[1]) + 1) << 16;
  const size_t header = 2 + 2 * num_lists;
  if (size < header) return 0;

  std::vector<uint64_t> offsets(num_lists + 1, 0);
  for (size_t i = 0; i < num_lists; ++i) {
    uint16_t c;
    std::memcpy(&c, data + 2 + 2 * i, sizeof(c));
    offsets[i + 1] = offsets[i] + (c % 4097);
  }
  const uint8_t* part = data + header;
  const size_t part_size = size - header;

  if (!blend::ValidatePostingPartition(part, part_size, offsets, limit).ok()) {
    return 0;
  }

  // Accepted: bulk decode must stay in range and strictly ascending per list.
  const size_t total = offsets[num_lists];
  std::vector<blend::PostingValue> out(total);
  blend::DecodePostingPartition(part, offsets, out.data());
  for (size_t i = 0; i < num_lists; ++i) {
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      FUZZ_CHECK(out[k] < limit, "decoded value >= limit");
      FUZZ_CHECK(k == offsets[i] || out[k - 1] < out[k],
                 "decoded list not strictly ascending");
    }
  }

  // Per-list lookup and cursor iteration must agree with the bulk decode.
  for (size_t i = 0; i < num_lists; ++i) {
    const blend::PostingListRef list =
        blend::FindPostingList(part, offsets, i);
    const size_t count = offsets[i + 1] - offsets[i];
    FUZZ_CHECK(list.size() == count, "FindPostingList count mismatch");
    const std::vector<blend::PostingValue> values = list.ToVector();
    FUZZ_CHECK(std::equal(values.begin(), values.end(),
                          out.begin() + static_cast<ptrdiff_t>(offsets[i])),
               "ToVector disagrees with bulk decode");

    blend::PostingCursor cur(list);
    size_t at = 0;
    for (auto batch = cur.NextBatch(); !batch.empty();
         batch = cur.NextBatch()) {
      for (blend::PostingValue v : batch) {
        FUZZ_CHECK(at < count, "cursor yields extra values");
        FUZZ_CHECK(values[at] == v, "cursor disagrees with ToVector");
        ++at;
      }
    }
    FUZZ_CHECK(at == count, "cursor yields too few values");

    if (count > 0) {
      // Seek into the middle and make sure iteration resumes on the block
      // holding the target ordinal.
      blend::PostingCursor seek(list);
      seek.SeekToOrdinal(count / 2);
      auto batch = seek.NextBatch();
      FUZZ_CHECK(!batch.empty(), "SeekToOrdinal lost the batch");
      FUZZ_CHECK(seek.batch_ordinal() <= count / 2 &&
                     count / 2 < seek.batch_ordinal() + batch.size(),
                 "SeekToOrdinal landed on the wrong block");
    }
  }

  // The canonical re-encoding of the decoded lists must itself validate and
  // decode back to the same lists (the encoder is a pure function of them).
  std::vector<uint8_t> re;
  blend::EncodePostingPartition(offsets, out, &re);
  FUZZ_CHECK(
      blend::ValidatePostingPartition(re.data(), re.size(), offsets, limit)
          .ok(),
      "re-encoded partition fails validation");
  std::vector<blend::PostingValue> out2(total);
  blend::DecodePostingPartition(re.data(), offsets, out2.data());
  FUZZ_CHECK(out == out2, "re-encode/decode round trip diverged");
  return 0;
}
