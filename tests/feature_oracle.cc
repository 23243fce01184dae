#include "feature_oracle.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "ts/aggregate.h"

namespace exstream {

Result<std::vector<Feature>> OracleFeatures(const FeatureRowSource& rows,
                                            const std::vector<FeatureSpec>& specs,
                                            const TimeInterval& interval) {
  // Each referenced type is read once; each (type, attribute) folded once.
  std::vector<std::pair<EventTypeId, std::vector<Event>>> scans;
  std::vector<std::pair<std::pair<EventTypeId, size_t>, TimeSeries>> raws;
  std::vector<Feature> out;
  out.reserve(specs.size());
  for (const FeatureSpec& spec : specs) {
    auto scan = std::find_if(scans.begin(), scans.end(),
                             [&](const auto& s) { return s.first == spec.type; });
    if (scan == scans.end()) {
      EXSTREAM_ASSIGN_OR_RETURN(std::vector<Event> events, rows(spec.type));
      scans.emplace_back(spec.type, std::move(events));
      scan = scans.end() - 1;
    }
    const std::pair<EventTypeId, size_t> key{spec.type, spec.attr_index};
    auto raw = std::find_if(raws.begin(), raws.end(),
                            [&](const auto& r) { return r.first == key; });
    if (raw == raws.end()) {
      TimeSeries series;
      for (const Event& e : scan->second) {
        if (e.ts < interval.lower || e.ts > interval.upper) continue;
        if (spec.attr_index >= e.values.size()) continue;
        EXSTREAM_RETURN_NOT_OK(series.Append(e.ts, e.values[spec.attr_index].AsDouble()));
      }
      raws.emplace_back(key, std::move(series));
      raw = raws.end() - 1;
    }
    const TimeSeries& series = raw->second;

    Feature f;
    f.spec = spec;
    if (spec.agg == AggregateKind::kRaw) {
      f.series = series;
    } else if (spec.agg == AggregateKind::kCount) {
      // Windows [lower + k * window, lower + (k + 1) * window) tile the
      // interval; each yields one sample stamped with its end, empty ones 0.
      // Every raw sample lies inside the interval, so it has a window.
      if (spec.window <= 0) return Status::InvalidArgument("window must be positive");
      const size_t num_windows =
          interval.upper < interval.lower
              ? 0
              : static_cast<size_t>((interval.upper - interval.lower) / spec.window) + 1;
      std::vector<size_t> counts(num_windows, 0);
      for (const Timestamp t : series.times()) {
        ++counts[static_cast<size_t>((t - interval.lower) / spec.window)];
      }
      for (size_t k = 0; k < num_windows; ++k) {
        const Timestamp end = interval.lower + static_cast<Timestamp>(k + 1) * spec.window;
        EXSTREAM_RETURN_NOT_OK(f.series.Append(end, static_cast<double>(counts[k])));
      }
    } else {
      EXSTREAM_ASSIGN_OR_RETURN(f.series,
                                ApplyWindowAggregate(series, spec.agg, spec.window));
    }
    out.push_back(std::move(f));
  }
  return out;
}

bool SameSeriesBits(const TimeSeries& a, const TimeSeries& b) {
  if (a.times() != b.times() || a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a.values()[i]) !=
        std::bit_cast<uint64_t>(b.values()[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace exstream
