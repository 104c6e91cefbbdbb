// Knee search for an open-loop server benchmark: the highest offered rate
// at which the latency limit holds, errors stay rare and the server keeps
// up with its arrivals. A rate point at which the load generator itself ran
// late is never counted as passing: its latencies would be the generator's.

#ifndef PERFBENCH_KNEE_H_
#define PERFBENCH_KNEE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace perfbench {

/// What one open-loop window at a fixed offered rate measured. The window
/// is split into slices; each figure is a quantile over its slices, so a
/// single stall of the machine does not decide the verdict.
struct RatePoint {
  double offered_per_s = 0.0;
  uint64_t scheduled = 0;  ///< arrivals scheduled inside the window
  uint64_t failed = 0;     ///< error replies among them
  /// Replies received inside a slice over arrivals scheduled in it.
  double completed_frac = 0.0;
  std::optional<double> p99_us;      ///< over all ops, from scheduled send
  std::optional<double> lag_p99_us;  ///< actual minus scheduled send time
};

struct KneeCriteria {
  /// Above the 3-8 ms plateau that inline range sums put under the wire
  /// p99 at any load up to the knee, so the limit meets the steep part of
  /// the latency curve where queueing grows.
  double p99_limit_us = 25000.0;
  double max_error_frac = 0.001;
  double min_completed_frac = 0.99;
  /// A window whose send lag p99 exceeds this was generator-limited.
  double max_lag_p99_us = 1000.0;
};

enum class Verdict { kPass, kFail, kGeneratorLimited };

inline Verdict Judge(const RatePoint& point, const KneeCriteria& criteria) {
  if (!point.lag_p99_us.has_value() ||
      *point.lag_p99_us > criteria.max_lag_p99_us) {
    return Verdict::kGeneratorLimited;
  }
  if (point.scheduled == 0 || !point.p99_us.has_value()) return Verdict::kFail;
  const double scheduled = static_cast<double>(point.scheduled);
  if (*point.p99_us > criteria.p99_limit_us) return Verdict::kFail;
  if (static_cast<double>(point.failed) > criteria.max_error_frac * scheduled) {
    return Verdict::kFail;
  }
  if (point.completed_frac < criteria.min_completed_frac) {
    return Verdict::kFail;
  }
  return Verdict::kPass;
}

struct KneeResult {
  double knee_per_s = 0.0;  ///< highest passing rate; 0 if none passed
  /// The lowest failing rate failed only because the generator ran late,
  /// so the knee is a lower bound set by the generator, not the server.
  bool generator_bound = false;
  bool resolved = false;  ///< bracket narrowed to the resolution
  std::vector<RatePoint> points;
  std::vector<Verdict> verdicts;
};

/// Brackets the knee by growing (or shrinking) the rate from `start` by
/// `growth`, then bisects geometrically until the passing and failing
/// rates are within `resolution` of each other (hi / lo <= 1 + resolution)
/// or `max_points` windows were spent. A generator-limited window is
/// measured again (a stall of the whole machine is not the server's
/// limit); a rate that stays generator-limited caps the search.
inline KneeResult FindKnee(double start, const KneeCriteria& criteria,
                           const std::function<RatePoint(double)>& measure,
                           double growth = 1.2, double resolution = 0.05,
                           int max_points = 12,
                           int generator_retries = 2) {
  KneeResult result;
  double lo = 0.0;  // highest passing rate seen
  double hi = 0.0;  // lowest failing rate seen; 0 = none yet
  bool hi_generator_bound = false;
  double rate = start;
  int retries = 0;
  for (int i = 0; i < max_points; ++i) {
    RatePoint point = measure(rate);
    const Verdict verdict = Judge(point, criteria);
    result.points.push_back(point);
    result.verdicts.push_back(verdict);
    if (verdict == Verdict::kGeneratorLimited && retries < generator_retries) {
      ++retries;
      continue;
    }
    retries = 0;
    if (verdict == Verdict::kPass) {
      lo = rate;
    } else {
      hi = rate;
      hi_generator_bound = verdict == Verdict::kGeneratorLimited;
    }
    if (lo > 0.0 && hi > 0.0 && hi <= lo * (1.0 + resolution)) {
      result.resolved = true;
      break;
    }
    if (hi == 0.0) {
      rate = lo * growth;
    } else if (lo == 0.0) {
      rate = hi / growth;
    } else {
      rate = std::sqrt(lo * hi);
    }
  }
  result.knee_per_s = lo;
  result.generator_bound = hi_generator_bound;
  return result;
}

}  // namespace perfbench

#endif  // PERFBENCH_KNEE_H_
