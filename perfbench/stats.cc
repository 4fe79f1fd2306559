#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {
// 1-based nearest rank, computed in integer hundredths of a percent so
// that p99 of 1000 samples is exactly rank 990.
size_t NearestRank(size_t n, double p) {
  const auto hp = static_cast<unsigned long long>(std::llround(p * 100.0));
  const unsigned long long rank = (hp * n + 9999) / 10000;
  return static_cast<size_t>(std::clamp<unsigned long long>(rank, 1, n));
}
}  // namespace

Percentile PercentileOf(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  const size_t rank = NearestRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

size_t MinSamplesFor(double p) {
  size_t n = 1;
  while (n - NearestRank(n, p) < Percentile::kMinBeyond) ++n;
  return n;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
