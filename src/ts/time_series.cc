#include "ts/time_series.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/stats.h"
#include "common/strings.h"

namespace exstream {

TimeSeries::TimeSeries(std::vector<Timestamp> times, std::vector<double> values)
    : times_(std::move(times)), values_(std::move(values)) {
  assert(times_.size() == values_.size());
  assert(std::is_sorted(times_.begin(), times_.end()));
}

Status TimeSeries::Append(Timestamp t, double v) {
  if (std::isnan(v)) return Status::OK();  // NaN samples are silently dropped
  if (!times_.empty() && t < times_.back()) {
    return Status::InvalidArgument(
        StrFormat("out-of-order timestamp %lld < %lld", static_cast<long long>(t),
                  static_cast<long long>(times_.back())));
  }
  times_.push_back(t);
  values_.push_back(v);
  return Status::OK();
}

void TimeSeries::AppendColumnRange(const Timestamp* ts, const double* vals,
                                   const uint8_t* tags, uint8_t skip_tag,
                                   size_t n) {
  assert(n == 0 || times_.empty() || ts[0] >= times_.back());
  size_t valid = 0;
  while (valid < n && tags[valid] != skip_tag && !std::isnan(vals[valid])) {
    ++valid;
  }
  times_.insert(times_.end(), ts, ts + valid);
  values_.insert(values_.end(), vals, vals + valid);
  for (size_t i = valid; i < n; ++i) {
    if (tags[i] == skip_tag || std::isnan(vals[i])) continue;
    times_.push_back(ts[i]);
    values_.push_back(vals[i]);
  }
}

double TimeSeries::Frequency() const {
  if (times_.size() < 2) return 0.0;
  const double span = static_cast<double>(times_.back() - times_.front());
  if (span <= 0.0) return 0.0;
  return static_cast<double>(times_.size()) / span;
}

TimeSeries TimeSeries::Slice(const TimeInterval& interval) const {
  auto lo = std::lower_bound(times_.begin(), times_.end(), interval.lower);
  auto hi = std::upper_bound(times_.begin(), times_.end(), interval.upper);
  const size_t b = static_cast<size_t>(lo - times_.begin());
  const size_t e = static_cast<size_t>(hi - times_.begin());
  TimeSeries out;
  out.times_.assign(times_.begin() + b, times_.begin() + e);
  out.values_.assign(values_.begin() + b, values_.begin() + e);
  return out;
}

double TimeSeries::InterpolateAt(Timestamp t) const {
  if (empty()) return 0.0;
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  auto it = std::lower_bound(times_.begin(), times_.end(), t);
  const size_t hi = static_cast<size_t>(it - times_.begin());
  if (times_[hi] == t) return values_[hi];
  const size_t lo = hi - 1;
  const double span = static_cast<double>(times_[hi] - times_[lo]);
  const double frac = span > 0 ? static_cast<double>(t - times_[lo]) / span : 0.0;
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

TimeSeries TimeSeries::Resample(size_t n) const {
  TimeSeries out;
  if (empty() || n == 0) return out;
  if (size() == 1 || times_.front() == times_.back()) {
    for (size_t i = 0; i < n; ++i) {
      out.times_.push_back(times_.front());
      out.values_.push_back(values_.front());
    }
    return out;
  }
  const double t0 = static_cast<double>(times_.front());
  const double t1 = static_cast<double>(times_.back());
  for (size_t i = 0; i < n; ++i) {
    const double frac = n == 1 ? 0.0 : static_cast<double>(i) / static_cast<double>(n - 1);
    const Timestamp t = static_cast<Timestamp>(std::llround(t0 + frac * (t1 - t0)));
    out.times_.push_back(t);
    out.values_.push_back(InterpolateAt(t));
  }
  return out;
}

void TimeSeries::ResampleValuesInto(size_t n, std::vector<double>* out) const {
  // Mirrors Resample exactly (same grid timestamps, same interpolation) minus
  // the timestamp vector and the TimeSeries temporary.
  if (empty() || n == 0) return;
  if (size() == 1 || times_.front() == times_.back()) {
    out->insert(out->end(), n, values_.front());
    return;
  }
  const double t0 = static_cast<double>(times_.front());
  const double t1 = static_cast<double>(times_.back());
  for (size_t i = 0; i < n; ++i) {
    const double frac = n == 1 ? 0.0 : static_cast<double>(i) / static_cast<double>(n - 1);
    const Timestamp t = static_cast<Timestamp>(std::llround(t0 + frac * (t1 - t0)));
    out->push_back(InterpolateAt(t));
  }
}

std::vector<double> TimeSeries::ZNormalizedValues() const {
  std::vector<double> out = values_;
  const double m = Mean(out);
  const double sd = StdDev(out);
  for (double& v : out) v = sd > 0 ? (v - m) / sd : 0.0;
  return out;
}

std::string TimeSeries::ToString(size_t max_points) const {
  std::string out = StrFormat("TimeSeries(n=%zu", size());
  const size_t n = std::min(max_points, size());
  for (size_t i = 0; i < n; ++i) {
    out += StrFormat(", (%lld,%.4g)", static_cast<long long>(times_[i]), values_[i]);
  }
  if (size() > n) out += ", ...";
  out += ")";
  return out;
}

}  // namespace exstream
