// Order statistics used by every reported timing.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile with its support. A percentile is reported
/// only when at least `kMinBeyond` samples lie strictly above its rank, so
/// a p99 needs 1000 samples.
struct Percentile {
  static constexpr size_t kMinBeyond = 10;

  double value = 0.0;
  size_t samples = 0;
  /// Samples ranked above the percentile's rank.
  size_t beyond = 0;
  bool supported() const { return beyond >= kMinBeyond; }
};

/// Nearest-rank percentile (p in (0, 100]) of `values` (copied, sorted).
Percentile PercentileOf(std::vector<double> values, double p);

/// Smallest sample count for which the p-th percentile is supported.
size_t MinSamplesFor(double p);

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty vector.
double Median(std::vector<double> values);

}  // namespace perfbench
