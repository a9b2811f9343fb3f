#include "index/all_tables.h"

#include <algorithm>

#include "common/scheduler.h"

namespace blend {

template <typename Store>
void SecondaryIndexes::Build(const Store& store, size_t num_cells,
                             size_t num_tables, size_t num_tasks,
                             Scheduler* sched) {
  const size_t n = store.NumRecords();
  const auto part = [num_tasks](size_t total, size_t t) {
    return std::pair{t * total / num_tasks, (t + 1) * total / num_tasks};
  };

  // Pass 1. Postings: task t counts the lists of its cells [a, b) into
  // offsets[a, b) and turns the counts into starts relative to the range.
  // Quadrants and table ranges: task t counts the non-NULL quadrants of its
  // records [lo, hi) and writes the [begin, end) bounds of every table that
  // begins or ends there (records are table-ordered; a table without
  // records keeps {0, 0}).
  PodVector<uint64_t> offsets(num_cells + 1);
  PodVector<RecordPos> ranges(2 * num_tables, 0);
  std::vector<uint64_t> posting_base(num_tasks + 1, 0);
  std::vector<uint64_t> quadrant_base(num_tasks + 1, 0);
  sched->ParallelFor(num_tasks, [&](size_t t) {
    const auto [a, b] = part(num_cells, t);
    uint64_t* count = offsets.data() + a;
    std::fill(count, count + (b - a), 0);
    for (RecordPos i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(store.cell(i)) - a;
      if (c < b - a) ++count[c];
    }
    uint64_t lists = 0;
    for (size_t c = 0; c < b - a; ++c) {
      const uint64_t len = count[c];
      count[c] = lists;
      lists += len;
    }
    posting_base[t + 1] = lists;

    const auto [lo, hi] = part(n, t);
    uint64_t quadrants = 0;
    for (size_t i = lo; i < hi; ++i) {
      const auto pos = static_cast<RecordPos>(i);
      quadrants += store.quadrant(pos) != kQuadrantNull ? 1 : 0;
      const TableId table = store.table(pos);
      const size_t slot = 2 * static_cast<size_t>(table);
      if (i == 0 || store.table(pos - 1) != table) ranges[slot] = pos;
      if (i + 1 == n || store.table(pos + 1) != table) ranges[slot + 1] = pos + 1;
    }
    quadrant_base[t + 1] = quadrants;
  });
  for (size_t t = 0; t < num_tasks; ++t) {
    posting_base[t + 1] += posting_base[t];
    quadrant_base[t + 1] += quadrant_base[t];
  }
  offsets[num_cells] = n;

  // Pass 2. Task t adds its range's base, posting_base[t], to its starts and
  // fills its lists by a second scan in physical order, each offsets[c]
  // serving as list c's cursor.
  PodVector<RecordPos> positions(n);
  PodVector<RecordPos> quadrants(quadrant_base[num_tasks]);
  sched->ParallelFor(num_tasks, [&](size_t t) {
    const auto [a, b] = part(num_cells, t);
    uint64_t* cursor = offsets.data() + a;
    for (size_t c = 0; c < b - a; ++c) cursor[c] += posting_base[t];
    for (RecordPos i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(store.cell(i)) - a;
      if (c < b - a) positions[cursor[c]++] = i;
    }
    // Each cursor now holds its list's end, the next list's start: shifting
    // the range one slot restores the starts. The first start comes from
    // posting_base[t], not offsets[a - 1], which the previous task may still
    // be advancing.
    if (b > a) {
      std::copy_backward(cursor, cursor + (b - a - 1), cursor + (b - a));
      cursor[0] = posting_base[t];
    }

    const auto [lo, hi] = part(n, t);
    RecordPos* out = quadrants.data() + quadrant_base[t];
    for (size_t i = lo; i < hi; ++i) {
      const auto pos = static_cast<RecordPos>(i);
      if (store.quadrant(pos) != kQuadrantNull) *out++ = pos;
    }
  });
  posting_offsets.Own(std::move(offsets));
  posting_positions.Own(std::move(positions));
  quadrant_positions.Own(std::move(quadrants));
  table_ranges.Own(std::move(ranges));
}

void RowStore::Build(PodVector<IndexRecord> records, size_t num_cells,
                     size_t num_tables, size_t num_tasks, Scheduler* sched) {
  records_.Own(std::move(records));
  secondary_.Build(*this, num_cells, num_tables, num_tasks, sched);
}

void ColumnStore::Build(RecordColumns records, size_t num_cells,
                        size_t num_tables, size_t num_tasks, Scheduler* sched) {
  cells_.Own(std::move(records.cells));
  tables_.Own(std::move(records.tables));
  columns_.Own(std::move(records.columns));
  rows_.Own(std::move(records.rows));
  super_keys_.Own(std::move(records.super_keys));
  quadrants_.Own(std::move(records.quadrants));
  secondary_.Build(*this, num_cells, num_tables, num_tasks, sched);
}

size_t SecondaryIndexes::ApproxBytes() const {
  return (posting_offsets.size() + posting_partitions.size()) *
             sizeof(uint64_t) +
         posting_blob.size() +
         (posting_positions.size() + table_ranges.size() +
          quadrant_positions.size()) *
             sizeof(RecordPos);
}

}  // namespace blend
