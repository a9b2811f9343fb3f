#include "storage/dictionary.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/hashing.h"
#include "common/scheduler.h"

namespace blend {

namespace {

/// Inserts ids 0, 1, ... in order, each at the first free slot from its home.
void FillSerial(std::span<const uint64_t> hashes, PodVector<CellId>* slots) {
  slots->assign(slots->size(), kInvalidCellId);
  for (size_t id = 0; id < hashes.size(); ++id) {
    (*slots)[ProbeSlot(*slots, hashes[id], kInvalidCellId,
                       [](CellId) { return false; })] = static_cast<CellId>(id);
  }
}

/// Slots per part of the parallel fill: a part's slice of the table (32 KB)
/// stays in cache while its keys are inserted.
constexpr size_t kFillPartSlots = 8192;
/// Equal id ranges the parallel fill buckets keys from.
constexpr size_t kFillChunks = 32;
// A table of n values has more than 2n slots: at least one part.
static_assert(2 * Dictionary::kParallelFillMinValues >= kFillPartSlots);

/// A key of the parallel fill: an id and its home slot.
struct HomedId {
  CellId id;
  uint32_t home;
};

/// The table FillSerial builds, built by independent tasks over equal slot
/// ranges ("parts"). Inserting in ascending id order gives the table of a
/// left-to-right sweep in which each slot takes the lowest-id key waiting for
/// it (homed at or before it and not placed yet). No key waits past a free
/// slot, so a part's slots from its first free one on depend on its own keys
/// alone. The phases:
///   1. bucket the keys by part, in id order within a part;
///   2. per part, insert its keys in id order as if none entered from the
///      part before; keys running past its last slot spill, in id order;
///   3. serially, chain the spill counts around the table into the number of
///      keys entering each part (the table keeps a free slot, so the circular
///      chain settles after one round);
///   4. per part, find its first free slot: with x keys entering, the
///      (x + 1)-th slot phase 2 left free;
///   5. per part with a free slot, redo the slots its spill reaches: each
///      following part up to its first free slot, merging the entering keys
///      (they wait at its first slot) with its own keys homed there by id.
/// Homes are 32-bit: the table has at most 2^32 slots.
void FillParallel(std::span<const uint64_t> hashes, PodVector<CellId>* slots,
                  Scheduler* sched) {
  const size_t n = hashes.size();
  const size_t num_slots = slots->size();
  const size_t mask = num_slots - 1;
  const size_t width = kFillPartSlots;
  const size_t parts = num_slots / width;
  const int part_shift = std::countr_zero(width);
  CellId* table = slots->data();

  // 1. A stable counting sort by part over kFillChunks id ranges:
  // count[c * parts + p] counts chunk c's keys in part p, then becomes where
  // they go.
  auto chunk_begin = [&](size_t c) { return c * n / kFillChunks; };
  std::vector<size_t> count(kFillChunks * parts, 0);
  sched->ParallelFor(kFillChunks, [&](size_t c) {
    size_t* row = &count[c * parts];
    for (size_t id = chunk_begin(c); id < chunk_begin(c + 1); ++id) {
      ++row[(hashes[id] & mask) >> part_shift];
    }
  });
  std::vector<size_t> part_begin(parts + 1, 0);
  size_t next = 0;
  for (size_t p = 0; p < parts; ++p) {
    part_begin[p] = next;
    for (size_t c = 0; c < kFillChunks; ++c) {
      const size_t keys = count[c * parts + p];
      count[c * parts + p] = next;
      next += keys;
    }
  }
  part_begin[parts] = n;
  PodVector<HomedId> by_part(n);
  sched->ParallelFor(kFillChunks, [&](size_t c) {
    size_t* row = &count[c * parts];
    for (size_t id = chunk_begin(c); id < chunk_begin(c + 1); ++id) {
      const auto home = static_cast<uint32_t>(hashes[id] & mask);
      by_part[row[home >> part_shift]++] = {static_cast<CellId>(id), home};
    }
  });

  // Inserts `keys` in order, each at the first free slot from its home, and
  // appends those finding none before `end` to `overflow`.
  auto insert = [table](std::span<const HomedId> keys, size_t end,
                        std::vector<CellId>* overflow) {
    for (const HomedId& key : keys) {
      size_t s = key.home;
      while (s < end && table[s] != kInvalidCellId) ++s;
      if (s < end) {
        table[s] = key.id;
      } else {
        overflow->push_back(key.id);
      }
    }
  };
  auto part_keys = [&](size_t p) {
    return std::span<const HomedId>(by_part.data() + part_begin[p],
                                    by_part.data() + part_begin[p + 1]);
  };

  // 2. spill[p]: the keys running past part p's last slot when none enter it.
  std::vector<std::vector<CellId>> spill(parts);
  sched->ParallelFor(parts, [&](size_t p) {
    std::fill(table + p * width, table + (p + 1) * width, kInvalidCellId);
    insert(part_keys(p), (p + 1) * width, &spill[p]);
  });

  // 3. With x keys entering, part p passes on spill[p] plus those of the x
  // that find none of its free slots. Going round once from 0 yields the
  // count entering part 0, the fixed point of the circle.
  auto pass = [&](size_t p, size_t in) {
    const size_t free = width - (part_keys(p).size() - spill[p].size());
    return spill[p].size() + (in > free ? in - free : 0);
  };
  std::vector<size_t> entering(parts + 1, 0);
  for (size_t p = 0; p < parts; ++p) entering[0] = pass(p, entering[0]);
  for (size_t p = 0; p < parts; ++p) entering[p + 1] = pass(p, entering[p]);

  // 4. first_free[p]: part p's first free slot, or num_slots if it has none.
  std::vector<size_t> first_free(parts, num_slots);
  sched->ParallelFor(parts, [&](size_t p) {
    size_t skip = entering[p];
    for (size_t s = p * width; s < (p + 1) * width; ++s) {
      if (table[s] == kInvalidCellId && skip-- == 0) {
        first_free[p] = s;
        return;
      }
    }
  });

  // 5. Each part without a free slot, and each part's slots before its first
  // free one, are redone by exactly one task: that of the nearest part
  // before it (cyclically) with a free slot.
  sched->ParallelFor(parts, [&](size_t p) {
    if (first_free[p] == num_slots) return;
    std::vector<CellId> waiting = spill[p];
    std::vector<CellId> passed;
    std::vector<HomedId> merged;
    for (size_t r = (p + 1) % parts;; r = (r + 1) % parts) {
      const bool has_free = first_free[r] != num_slots;
      if (waiting.empty() && has_free) break;
      const size_t base = r * width;
      const size_t end = has_free ? first_free[r] : base + width;
      merged.clear();
      size_t w = 0;
      for (const HomedId& key : part_keys(r)) {
        if (key.home >= end) continue;
        for (; w < waiting.size() && waiting[w] < key.id; ++w) {
          merged.push_back({waiting[w], static_cast<uint32_t>(base)});
        }
        merged.push_back(key);
      }
      for (; w < waiting.size(); ++w) {
        merged.push_back({waiting[w], static_cast<uint32_t>(base)});
      }
      std::fill(table + base, table + end, kInvalidCellId);
      passed.clear();
      insert(merged, end, &passed);
      waiting.swap(passed);
      if (has_free) break;
    }
  });
}

}  // namespace

Dictionary Dictionary::FromCsr(PodVector<uint64_t> offsets,
                               PodVector<char> blob,
                               std::span<const uint64_t> hashes,
                               Scheduler* sched) {
  // At least twice the value count, so lookups always hit an empty slot and
  // stay O(1) expected. Left uninitialized: the fill writes every slot.
  PodVector<CellId> slots(ProbeTableSize(hashes.size()));
  if (sched != nullptr && sched->parallelism() > 1 &&
      hashes.size() >= kParallelFillMinValues &&
      slots.size() <= (size_t{1} << 32)) {
    FillParallel(hashes, &slots, sched);
  } else {
    FillSerial(hashes, &slots);
  }
  Dictionary d;
  d.offsets_.Own(std::move(offsets));
  d.blob_.Own(std::move(blob));
  d.hash_slots_.Own(std::move(slots));
  return d;
}

CellId Dictionary::Find(std::string_view normalized) const {
  if (hash_slots_.empty()) return kInvalidCellId;
  // Linear probing over the precomputed table. Built and loaded tables always
  // keep an empty slot, but the probe count is capped anyway so even an
  // adversarial table terminates.
  const size_t mask = hash_slots_.size() - 1;
  size_t idx = Fnv1a64(normalized) & mask;
  for (size_t probes = 0; probes < hash_slots_.size(); ++probes) {
    const CellId id = hash_slots_[idx];
    if (id == kInvalidCellId) return kInvalidCellId;
    if (Value(id) == normalized) return id;
    idx = (idx + 1) & mask;
  }
  return kInvalidCellId;
}

size_t Dictionary::ApproxBytes() const {
  return offsets_.size() * sizeof(uint64_t) + blob_.size() +
         hash_slots_.size() * sizeof(CellId);
}

}  // namespace blend
