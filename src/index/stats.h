#pragma once

#include <string>
#include <vector>

#include "index/builder.h"

namespace blend {

/// Lake-level statistics over the built index, consumed by the optimizer's
/// operator ranking (paper §VII-B: "the frequency of values from Q in the
/// database").
class IndexStats {
 public:
  explicit IndexStats(const IndexBundle* bundle) : bundle_(bundle) {}

  /// Number of index records whose CellValue equals the (normalized) value;
  /// 0 when the value does not occur in the lake.
  size_t Frequency(const std::string& raw_value) const;

  /// Average frequency over a set of raw values.
  double AvgFrequency(const std::vector<std::string>& raw_values) const;

  /// Total number of index records (the `n` of the complexity analysis).
  size_t NumRecords() const { return bundle_->NumRecords(); }

 private:
  const IndexBundle* bundle_;
};

}  // namespace blend
