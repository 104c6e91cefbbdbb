// Sample statistics for the benchmark: percentiles that refuse to guess,
// and the median of repeated measurements.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

/// A percentile needs at least this many samples strictly above it; with
/// fewer the tail is a guess and the metric is reported missing.
inline constexpr uint64_t kMinSamplesBeyond = 10;

/// Nearest-rank index of the p-th percentile (0 < p <= 100) in a sorted
/// sample of size n (n > 0): the smallest k with (k+1)/n >= p/100.
inline uint64_t PercentileRank(uint64_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  uint64_t k = static_cast<uint64_t>(std::ceil(exact - 1e-9));
  if (k == 0) k = 1;
  if (k > n) k = n;
  return k - 1;
}

/// True when the p-th percentile of n samples has at least
/// kMinSamplesBeyond samples above its rank.
inline bool PercentileSupported(uint64_t n, double p) {
  if (n == 0) return false;
  return n - 1 - PercentileRank(n, p) >= kMinSamplesBeyond;
}

/// The p-th percentile of a sample, or nullopt when fewer than
/// kMinSamplesBeyond samples lie beyond it.
inline std::optional<double> Percentile(std::vector<double> samples, double p) {
  if (!PercentileSupported(samples.size(), p)) return std::nullopt;
  const auto nth = samples.begin() + PercentileRank(samples.size(), p);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

/// The highest percentile of the ladder {99.99, 99.9, 99, 90, 50} that n
/// samples support, or 0 when none is.
inline double HighestSupportedPercentile(uint64_t n) {
  for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (PercentileSupported(n, p)) return p;
  }
  return 0.0;
}

/// Upper bound of the p-th percentile of a bucketed histogram: bucket i
/// counts samples <= bounds[i]; counts may hold one more (overflow) bucket.
/// nullopt when the histogram cannot support p (see PercentileSupported) or
/// the percentile falls in the unbounded overflow bucket.
inline std::optional<double> BucketUpperBound(std::span<const uint64_t> counts,
                                              std::span<const uint64_t> bounds,
                                              double p) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (!PercentileSupported(total, p)) return std::nullopt;
  const uint64_t rank = PercentileRank(total, p);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen > rank) {
      if (i >= bounds.size()) return std::nullopt;
      return static_cast<double>(bounds[i]);
    }
  }
  return std::nullopt;
}

/// The q-quantile (0 <= q <= 1) of repeated measurements, interpolated
/// linearly between neighbouring order statistics.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// Median of repeated measurements (mean of the middle two for even counts).
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Latency samples split into fixed time slices of a measurement window. A
/// percentile is taken per slice and a quantile over slices (by default the
/// median) is reported, so one stall of the machine spoils one slice rather
/// than the figure.
class SlicedSamples {
 public:
  SlicedSamples(double window_s, double slice_s)
      : slice_s_(slice_s),
        slices_(std::max<size_t>(1, static_cast<size_t>(window_s / slice_s))),
        end_s_(static_cast<double>(slices_.size()) * slice_s) {}

  /// Adds a sample taken `t_s` seconds into the window; samples past the
  /// last whole slice are dropped.
  void Add(double t_s, double value) {
    if (!(t_s >= 0 && t_s < end_s_)) return;
    const size_t i =
        std::min(static_cast<size_t>(t_s / slice_s_), slices_.size() - 1);
    slices_[i].push_back(value);
  }

  size_t slices() const { return slices_.size(); }
  uint64_t count() const {
    uint64_t n = 0;
    for (const auto& s : slices_) n += s.size();
    return n;
  }
  /// Samples in the slice with the fewest.
  uint64_t min_slice_count() const {
    uint64_t n = ~uint64_t{0};
    for (const auto& s : slices_) n = std::min<uint64_t>(n, s.size());
    return n;
  }

  /// The q-quantile over slices of each slice's p-th percentile, taken over
  /// the slices that support p (see PercentileSupported); nullopt unless at
  /// least half of them do.
  std::optional<double> Percentile(double p, double q = 0.5) const {
    std::vector<double> per_slice;
    for (const auto& s : slices_) {
      if (auto v = perfbench::Percentile(s, p)) per_slice.push_back(*v);
    }
    if (2 * per_slice.size() < slices_.size()) return std::nullopt;
    return Quantile(std::move(per_slice), q);
  }

  /// Median over slices of the sample count per second.
  double RatePerSecond() const {
    std::vector<double> rates;
    for (const auto& s : slices_) {
      rates.push_back(static_cast<double>(s.size()) / slice_s_);
    }
    return Median(std::move(rates));
  }

  /// Indices of the slices holding the most samples: the top `share` of
  /// the slices (rounded up, at least one), busiest first.
  std::vector<size_t> BusiestSlices(double share) const {
    std::vector<size_t> order(slices_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return slices_[a].size() > slices_[b].size();
    });
    const auto keep = static_cast<size_t>(
        std::ceil(share * static_cast<double>(order.size())));
    order.resize(std::clamp<size_t>(keep, 1, order.size()));
    return order;
  }

  /// The samples of the given slices only (indices into this window), for
  /// reading their figures.
  SlicedSamples Only(const std::vector<size_t>& indices) const {
    SlicedSamples kept = *this;
    kept.slices_.clear();
    for (size_t i : indices) kept.slices_.push_back(slices_.at(i));
    return kept;
  }

 private:
  double slice_s_;
  std::vector<std::vector<double>> slices_;
  double end_s_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
