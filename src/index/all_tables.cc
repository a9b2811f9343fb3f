#include "index/all_tables.h"

namespace blend {

template <typename Store>
void SecondaryIndexes::Build(const Store& store, size_t num_cells,
                             size_t num_tables) {
  const size_t n = store.NumRecords();
  // CSR postings in two passes: count, prefix-sum, fill with a running
  // cursor. Scanning records in physical order keeps every list ascending.
  std::vector<uint64_t> offsets(num_cells + 1, 0);
  for (RecordPos i = 0; i < n; ++i) ++offsets[static_cast<size_t>(store.cell(i)) + 1];
  for (size_t c = 0; c < num_cells; ++c) offsets[c + 1] += offsets[c];
  std::vector<RecordPos> positions(n);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (RecordPos i = 0; i < n; ++i) positions[cursor[store.cell(i)]++] = i;
  posting_offsets.Own(std::move(offsets));
  posting_positions.Own(std::move(positions));

  std::vector<RecordPos> quadrants;
  for (RecordPos i = 0; i < n; ++i) {
    if (store.quadrant(i) != kQuadrantNull) quadrants.push_back(i);
  }
  quadrant_positions.Own(std::move(quadrants));

  std::vector<RecordPos> ranges(2 * num_tables, 0);
  size_t i = 0;
  while (i < n) {
    const TableId t = store.table(static_cast<RecordPos>(i));
    size_t j = i;
    while (j < n && store.table(static_cast<RecordPos>(j)) == t) ++j;
    ranges[2 * static_cast<size_t>(t)] = static_cast<RecordPos>(i);
    ranges[2 * static_cast<size_t>(t) + 1] = static_cast<RecordPos>(j);
    i = j;
  }
  table_ranges.Own(std::move(ranges));
}

void RowStore::Build(std::vector<IndexRecord> records, size_t num_cells,
                     size_t num_tables) {
  records_.Own(std::move(records));
  secondary_.Build(*this, num_cells, num_tables);
}

void ColumnStore::Build(RecordColumns records, size_t num_cells,
                        size_t num_tables) {
  cells_.Own(std::move(records.cells));
  tables_.Own(std::move(records.tables));
  columns_.Own(std::move(records.columns));
  rows_.Own(std::move(records.rows));
  super_keys_.Own(std::move(records.super_keys));
  quadrants_.Own(std::move(records.quadrants));
  secondary_.Build(*this, num_cells, num_tables);
}

void SecondaryIndexes::Compress(Scheduler* sched) {
  if (codec == PostingCodec::kCompressed) return;
  EncodedPostingsCsr enc = EncodePostingsCsr(posting_offsets.span(),
                                             posting_positions.span(), sched);
  posting_partitions.Own(std::move(enc.partition_offsets));
  posting_blob.Own(std::move(enc.blob));
  posting_positions.Own(std::vector<RecordPos>{});  // raw form freed
  codec = PostingCodec::kCompressed;
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
