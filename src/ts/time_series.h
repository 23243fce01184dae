// TimeSeries: the representation of features (Sec. 3).
//
// Each attribute of each event type, restricted to an interval, forms a raw
// feature: a time series. Smoothed features are produced by windowed
// aggregation (see aggregate.h).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "event/event.h"

namespace exstream {

/// \brief An ordered sequence of (timestamp, value) samples.
///
/// Invariant: times are non-decreasing and times.size() == values.size().
/// NaN values are rejected at append time so downstream math stays total.
class TimeSeries {
 public:
  TimeSeries() = default;
  TimeSeries(std::vector<Timestamp> times, std::vector<double> values);

  /// Appends a sample; ignores NaN values; keeps the time order invariant by
  /// rejecting out-of-order timestamps.
  Status Append(Timestamp t, double v);

  /// Pre-allocates capacity for n samples.
  void Reserve(size_t n) {
    times_.reserve(n);
    values_.reserve(n);
  }

  /// \brief Appends `n` samples from parallel arrays in one shot, skipping
  /// entries whose tag equals `skip_tag` or whose value is NaN (exactly the
  /// samples Append would drop). Precondition: `ts` is non-decreasing and
  /// `ts[0] >= end_time()` — the archive's column scans guarantee this, which
  /// is what lets the all-valid common case reduce to two bulk inserts.
  void AppendColumnRange(const Timestamp* ts, const double* vals,
                         const uint8_t* tags, uint8_t skip_tag, size_t n);

  size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }

  const std::vector<Timestamp>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  Timestamp time(size_t i) const { return times_[i]; }
  double value(size_t i) const { return values_[i]; }

  Timestamp start_time() const { return times_.front(); }
  Timestamp end_time() const { return times_.back(); }

  /// \brief Samples per unit time over the covered span; 0 for < 2 points.
  ///
  /// This is the "frequency" used by interval labeling (Sec. 5.2).
  double Frequency() const;

  /// \brief Sub-series with timestamps inside [interval.lower, interval.upper].
  TimeSeries Slice(const TimeInterval& interval) const;

  /// \brief Linear interpolation at time t; clamps outside the covered span.
  double InterpolateAt(Timestamp t) const;

  /// \brief Resamples to exactly n equally spaced points across the span via
  /// linear interpolation. Returns an empty series if this one is empty;
  /// replicates the single value if this one has one point.
  TimeSeries Resample(size_t n) const;

  /// \brief Appends Resample(n)'s values straight to `out`, skipping the
  /// intermediate TimeSeries (and its timestamp vector). Same values bit for
  /// bit; appends nothing if this series is empty or n == 0. This is what the
  /// correlation filter's alignment uses.
  void ResampleValuesInto(size_t n, std::vector<double>* out) const;

  /// \brief Values z-normalized with the series' own mean/stddev
  /// (stddev 0 => all zeros).
  std::vector<double> ZNormalizedValues() const;

  std::string ToString(size_t max_points = 8) const;

 private:
  std::vector<Timestamp> times_;
  std::vector<double> values_;
};

}  // namespace exstream
