// Streaming and batch statistics used by the analysis suite and the kernel
// counters.

#ifndef SPRITE_DFS_SRC_UTIL_STATS_H_
#define SPRITE_DFS_SRC_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sprite {

// Single-pass mean / standard deviation / extrema accumulator (Welford's
// algorithm; numerically stable). This is the building block for every
// "(value (stddev))" cell in the paper's tables.
class StreamingStats {
 public:
  void Add(double value);
  // Adds `value` with an integer weight (equivalent to Add()ing it `weight`
  // times but O(1)).
  void AddWeighted(double value, double weight);
  // Merges another accumulator into this one (used to combine per-machine
  // counters into cluster-wide statistics, as the paper does).
  void Merge(const StreamingStats& other);

  int64_t count() const { return static_cast<int64_t>(weight_); }
  double total_weight() const { return weight_; }
  double mean() const;
  // Population variance/stddev; returns 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const;

 private:
  double weight_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool any_ = false;
};

// Batch collection of weighted samples supporting exact quantiles and CDF
// evaluation. The paper's figures are CDFs weighted two ways (by count and
// by bytes); `WeightedSamples` is the common representation.
class WeightedSamples {
 public:
  void Add(double value, double weight = 1.0);

  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }
  double total_weight() const { return total_weight_; }

  // Weighted fraction of samples with value <= v. O(log n) after the first
  // call (which sorts).
  double FractionAtOrBelow(double v) const;

  // Smallest sample value v such that FractionAtOrBelow(v) >= q, for
  // q in [0, 1]. Returns 0 for an empty collection.
  double Quantile(double q) const;

  double WeightedMean() const;

  // Emits (value, cumulative fraction) pairs suitable for printing a CDF
  // curve, one pair per distinct value, at most `max_points` points
  // (down-sampled evenly if there are more distinct values).
  struct CdfPoint {
    double value;
    double fraction;
  };
  std::vector<CdfPoint> CdfCurve(size_t max_points = 64) const;

 private:
  void EnsureSorted() const;

  mutable std::vector<std::pair<double, double>> samples_;  // (value, weight)
  mutable bool sorted_ = false;
  double total_weight_ = 0.0;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_UTIL_STATS_H_
