#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"

namespace exstream {

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / static_cast<double>(buckets > 0 ? buckets : 1)),
      bins_(buckets + 2, 0),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void Histogram::AddN(double v, uint64_t n) {
  if (n == 0) return;
  count_ += n;
  sum_ += v * static_cast<double>(n);
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  size_t idx;
  if (v < lo_) {
    idx = 0;
  } else if (v >= hi_) {
    idx = bins_.size() - 1;
  } else {
    idx = 1 + static_cast<size_t>((v - lo_) / width_);
    idx = std::min(idx, bins_.size() - 2);
  }
  bins_[idx] += n;
}

double Histogram::ApproxPercentile(double p) const {
  if (count_ == 0) return 0.0;
  const uint64_t target =
      static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  uint64_t acc = 0;
  for (size_t i = 0; i < bins_.size(); ++i) {
    acc += bins_[i];
    if (acc >= target) {
      if (i == 0) return lo_;
      if (i == bins_.size() - 1) return max_;
      return lo_ + (static_cast<double>(i - 1) + 0.5) * width_;
    }
  }
  return max_;
}

double Histogram::FractionAbove(double threshold) const {
  if (count_ == 0 || threshold >= max_) return 0.0;
  if (threshold < min_) return 1.0;
  // Bucket i >= 1 starts at lo_ + (i - 1) * width_; the overflow bucket
  // starts at hi_. The underflow bucket has no lower edge and never counts.
  uint64_t above = 0;
  for (size_t i = 1; i < bins_.size(); ++i) {
    const double edge =
        i == bins_.size() - 1 ? hi_ : lo_ + static_cast<double>(i - 1) * width_;
    if (edge >= threshold) above += bins_[i];
  }
  return static_cast<double>(above) / static_cast<double>(count_);
}

std::string Histogram::Summary() const {
  return StrFormat("n=%llu mean=%.4g p50=%.4g p99=%.4g max=%.4g",
                   static_cast<unsigned long long>(count_), mean(),
                   ApproxPercentile(50), ApproxPercentile(99), max_);
}

}  // namespace exstream
