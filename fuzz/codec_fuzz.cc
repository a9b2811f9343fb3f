// Posting-codec harness. Contract under test (codec.h): the checked
// DecodePostingPartition never touches a byte outside [data, data + size),
// and a partition it ACCEPTS holds well-formed lists. So: feed arbitrary
// partitions through the decoder, and for every accepted one check that its
// lists are in range and strictly ascending, and that their canonical
// re-encoding decodes back to the same lists — any violation or sanitizer
// finding is a bug in the decoder's checks.
//
// Input framing (the fuzzer mutates this as opaque bytes):
//   byte 0        num_lists - 1 (mod 64)
//   byte 1        limit selector: limit = (b1 + 1) << 16
//   2 * num_lists bytes of little-endian u16 list counts (mod 4097)
//   rest          the encoded partition, exactly [data, data + size)
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

  std::vector<uint32_t> offsets(num_lists + 1, 0);
  for (size_t i = 0; i < num_lists; ++i) {
    uint16_t c;
    std::memcpy(&c, data + 2 + 2 * i, sizeof(c));
    offsets[i + 1] = offsets[i] + (c % 4097);
  }
  const uint8_t* part = data + header;
  const size_t part_size = size - header;

  const size_t total = offsets[num_lists];
  std::vector<blend::PostingValue> out(total);
  if (!blend::DecodePostingPartition(part, part_size, offsets, limit, out.data())
           .ok()) {
    return 0;
  }

  // Accepted: every list is in range and strictly ascending.
  for (size_t i = 0; i < num_lists; ++i) {
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      FUZZ_CHECK(out[k] < limit, "decoded value >= limit");
      FUZZ_CHECK(k == offsets[i] || out[k - 1] < out[k],
                 "decoded list not strictly ascending");
    }
  }

  // The canonical re-encoding of the decoded lists must itself decode back
  // to the same lists (the encoder is a pure function of them).
  std::vector<uint8_t> re;
  blend::EncodePostingPartition(offsets, out, &re);
  std::vector<blend::PostingValue> out2(total);
  FUZZ_CHECK(blend::DecodePostingPartition(re.data(), re.size(), offsets, limit,
                                           out2.data())
                 .ok(),
             "re-encoded partition fails the checked decode");
  FUZZ_CHECK(out == out2, "re-encode/decode round trip diverged");
  return 0;
}
