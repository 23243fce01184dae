// Fixed-bucket latency histogram for the efficiency experiments.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace exstream {

/// \brief Simple equal-width histogram over [lo, hi) with overflow buckets.
///
/// Used to characterize per-event processing latency while explanation
/// analysis runs concurrently with monitoring queries (Sec. C / Fig. 20-21).
class Histogram {
 public:
  /// \param lo lower bound of the tracked range
  /// \param hi upper bound of the tracked range
  /// \param buckets number of equal-width buckets between lo and hi
  Histogram(double lo, double hi, size_t buckets);

  void Add(double v) { AddN(v, 1); }

  /// Adds `n` samples of value `v` in O(1): the same counts, extremes and
  /// buckets as `n` calls of Add(v). The sum takes one rounding (v * n), not n.
  void AddN(double v, uint64_t n);

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Approximate percentile from bucket midpoints, p in [0,100].
  double ApproxPercentile(double p) const;

  /// \brief Fraction of samples strictly above the threshold, from the
  /// bucket counts.
  ///
  /// Resolution is one bucket: samples in buckets whose lower edge is at or
  /// above `threshold` count, and the bucket holding `threshold` does not
  /// (a sample equal to a bucket's lower edge counts as above it). Exact when
  /// `threshold` is below min() or at or above max().
  double FractionAbove(double threshold) const;

  /// One-line summary for logs: count/mean/p50/p99/max.
  std::string Summary() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<uint64_t> bins_;  // [underflow, b0..bn-1, overflow]
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_;
  double max_;
};

}  // namespace exstream
