// Order statistics over latency samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in (0, 100]; 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

/// Median as the mean of the two middle samples for even counts.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Mean of the middle half of the samples: the lowest and highest quarter
/// (n / 4 samples each, rounded down) are dropped. 0 for an empty sample.
inline double InterquartileMean(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t cut = samples.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < samples.size() - cut; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * cut);
}

/// Samples strictly above the nearest-rank p-th percentile value's rank —
/// how many observations lie beyond it. A percentile is reported only when
/// at least ten samples lie beyond it.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return n - std::min(n, static_cast<size_t>(rank < 1 ? 1 : rank));
}

/// Smallest sample count for which the p-th percentile has at least
/// `beyond` samples past it.
inline size_t MinSamplesFor(double p, size_t beyond = 10) {
  size_t n = 1;
  while (SamplesBeyond(n, p) < beyond) ++n;
  return n;
}

}  // namespace perfbench
