#include "index/stats.h"

#include "common/str_util.h"

namespace blend {

size_t IndexStats::Frequency(const std::string& raw_value) const {
  CellId id = bundle_->dictionary().Find(NormalizeCell(raw_value));
  if (id == kInvalidCellId) return 0;
  if (bundle_->layout() == StoreLayout::kRow) {
    return bundle_->row_store().PostingList(id).size();
  }
  return bundle_->column_store().PostingList(id).size();
}

double IndexStats::AvgFrequency(const std::vector<std::string>& raw_values) const {
  if (raw_values.empty()) return 0.0;
  size_t total = 0;
  for (const auto& v : raw_values) total += Frequency(v);
  return static_cast<double>(total) / static_cast<double>(raw_values.size());
}

}  // namespace blend
