// Logarithmically-bucketed histogram.
//
// The paper's figures plot CDFs on log-scaled axes (bytes from 100 B to
// 10 MB, seconds from 10 ms to days). LogHistogram buckets samples by
// powers of a configurable base so the bench binaries can print compact
// curves without retaining every sample.

#ifndef SPRITE_DFS_SRC_UTIL_HISTOGRAM_H_
#define SPRITE_DFS_SRC_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sprite {

class LogHistogram {
 public:
  // Buckets: [0, min), [min, min*base), [min*base, min*base^2), ... up to
  // max (one final overflow bucket above max). `base` must be > 1.
  LogHistogram(double min, double max, double base = 2.0);

  void Add(double value, double weight = 1.0);
  void Merge(const LogHistogram& other);
  // Removes a previously-captured baseline: after Subtract, the histogram
  // holds only the weight added since `baseline` was copied from this
  // histogram (per-bucket difference, clamped at zero). The windowed
  // percentiles in the metrics time series are computed this way.
  void Subtract(const LogHistogram& baseline);
  // Zeroes every bucket; the bucket layout is preserved.
  void Reset();

  double total_weight() const { return total_weight_; }
  size_t bucket_count() const { return counts_.size(); }

  // Upper bound of bucket `i` (inclusive for reporting purposes).
  double BucketUpperBound(size_t i) const;
  // Weight in bucket `i`. No production caller: histogram_test's bucket,
  // Merge and Subtract cases (e.g. SubtractRemovesBaselineBucketwise) read
  // it, and the windowed percentiles rest on Subtract.
  double BucketWeight(size_t i) const { return counts_[i]; }

  // Cumulative fraction of weight at or below the upper bound of bucket i.
  double CumulativeFraction(size_t i) const;

  // Value x such that roughly a fraction `q` of weight lies at or below x
  // (log-interpolated within the containing bucket).
  double ApproxQuantile(double q) const;

 private:
  double min_;
  double max_;
  double base_;
  double log_base_;
  std::vector<double> counts_;
  double total_weight_ = 0.0;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_UTIL_HISTOGRAM_H_
