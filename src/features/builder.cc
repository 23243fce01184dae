#include "features/builder.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "archive/tiers.h"
#include "common/strings.h"

namespace exstream {

namespace {

// Builds the raw (type, attribute) series straight off column spans: a walk
// over the pinned ts array and the attribute's contiguous numeric view, no
// Event materialization. Matches a per-row TimeSeries::Append fold bit for
// bit: a missing tag is a row with fewer values, skipped, and `nums` holds
// the AsDouble conversion (NaN for strings, which Append drops either way).
TimeSeries RawSeriesFromView(const ScanView& view, size_t attr_index) {
  TimeSeries out;
  out.Reserve(view.rows());
  for (const ScanView::Segment& seg : view.segments) {
    const ChunkColumns& cols = *seg.columns;
    if (attr_index >= cols.num_columns()) continue;
    const AttributeColumn& col = cols.attr(attr_index);
    // Segments arrive in time order with sorted ts columns, so the whole
    // range bulk-appends; missing tags and NaN (string) values are skipped
    // inside, matching Append's per-sample drops bit for bit.
    out.AppendColumnRange(cols.ts().data() + seg.begin,
                          col.nums.data() + seg.begin,
                          col.tags.data() + seg.begin, kMissingValueTag,
                          seg.end - seg.begin);
  }
  return out;
}

// Count (frequency) features are defined over the *query interval*, not the
// series' own span: a window with no events is a real observation (count 0).
// This is what lets a fully silent sensor (the supply-chain "missing
// monitoring" anomaly) produce a maximally separating frequency feature
// instead of an empty series.
Result<TimeSeries> CountOverInterval(const TimeSeries& raw, Timestamp window,
                                     const TimeInterval& interval) {
  if (window <= 0) return Status::InvalidArgument("window must be positive");
  TimeSeries out;
  // An empty (inverted) interval has no windows.
  if (interval.upper < interval.lower) return out;
  out.Reserve(static_cast<size_t>((interval.upper - interval.lower) / window) + 1);
  const auto& times = raw.times();
  size_t idx = 0;
  for (Timestamp wstart = interval.lower; wstart <= interval.upper; wstart += window) {
    const Timestamp wend = wstart + window;
    while (idx < times.size() && times[idx] < wstart) ++idx;
    size_t hi = idx;
    while (hi < times.size() && times[hi] < wend) ++hi;
    EXSTREAM_RETURN_NOT_OK(out.Append(wend, static_cast<double>(hi - idx)));
    idx = hi;
  }
  return out;
}

// One absolute-aligned aggregation window being folded from tier windows
// and/or raw rows. `count` counts numeric samples (matching what the raw
// series keeps: NaN and missing rows are excluded everywhere).
struct WindowPartial {
  Timestamp wend = 0;
  uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double sumsq = 0.0;
};

// Folds a tiered scan view into one spec's series: tier segments contribute
// pre-aggregated windows, raw segments (chunks without an aligned tier, the
// open tail) contribute rows, merged in chunk order via each segment's
// `order` stamp. Windows are absolute-aligned with length spec.window; a tier
// window nests entirely inside one aggregation window because its length
// divides the scan resolution, which divides every spec window of the type.
Result<TimeSeries> TieredAggregate(const ScanView& view, const FeatureSpec& spec,
                                   const TimeInterval& interval) {
  const Timestamp window = spec.window;
  if (window <= 0) return Status::InvalidArgument("window must be positive");
  std::vector<WindowPartial> partials;
  // Window ends arrive non-decreasing (rows are time-ordered within and
  // across chunks), so folding only ever extends or reuses the last partial.
  auto fold_into = [&partials](Timestamp wend) -> WindowPartial& {
    if (partials.empty() || partials.back().wend != wend) {
      partials.push_back(WindowPartial{wend});
    }
    return partials.back();
  };
  size_t ri = 0, ti = 0;
  while (ri < view.segments.size() || ti < view.tier_segments.size()) {
    const bool take_raw =
        ti >= view.tier_segments.size() ||
        (ri < view.segments.size() &&
         view.segments[ri].order < view.tier_segments[ti].order);
    if (take_raw) {
      const ScanView::Segment& seg = view.segments[ri++];
      const ChunkColumns& cols = *seg.columns;
      if (spec.attr_index >= cols.num_columns()) continue;
      const AttributeColumn& col = cols.attr(spec.attr_index);
      for (size_t i = seg.begin; i < seg.end; ++i) {
        const double v = col.nums[i];
        if (std::isnan(v)) continue;  // missing or string row
        WindowPartial& p = fold_into(TierWindowEnd(cols.ts()[i], window));
        if (p.count == 0) {
          p.min = p.max = v;
        } else {
          p.min = std::min(p.min, v);
          p.max = std::max(p.max, v);
        }
        p.sum += v;
        p.sumsq += v * v;
        ++p.count;
      }
    } else {
      const ScanView::TierSegment& seg = view.tier_segments[ti++];
      const TierColumns& tier = *seg.tier;
      if (spec.attr_index >= tier.attrs.size()) continue;
      const TierAttr& agg = tier.attrs[spec.attr_index];
      for (size_t i = seg.begin; i < seg.end; ++i) {
        if (agg.count[i] == 0) continue;  // no numeric sample in this window
        WindowPartial& p =
            fold_into(TierWindowEnd(tier.ts[i] - tier.window, window));
        if (p.count == 0) {
          p.min = agg.min[i];
          p.max = agg.max[i];
        } else {
          p.min = std::min(p.min, agg.min[i]);
          p.max = std::max(p.max, agg.max[i]);
        }
        p.sum += agg.sum[i];
        p.sumsq += agg.sumsq[i];
        p.count += agg.count[i];
      }
    }
  }

  std::vector<Timestamp> times;
  std::vector<double> vals;
  if (spec.agg == AggregateKind::kCount) {
    // Count features observe silence: every aligned window overlapping the
    // query interval emits a sample, zeros included (cf. CountOverInterval).
    size_t pi = 0;
    for (Timestamp wend = TierWindowEnd(interval.lower, window);
         wend - window <= interval.upper; wend += window) {
      while (pi < partials.size() && partials[pi].wend < wend) ++pi;
      const bool hit = pi < partials.size() && partials[pi].wend == wend;
      times.push_back(wend);
      vals.push_back(hit ? static_cast<double>(partials[pi].count) : 0.0);
    }
  } else {
    times.reserve(partials.size());
    vals.reserve(partials.size());
    for (const WindowPartial& p : partials) {
      if (p.count == 0) continue;
      const double n = static_cast<double>(p.count);
      double v = 0.0;
      switch (spec.agg) {
        case AggregateKind::kMean:
          v = p.sum / n;
          break;
        case AggregateKind::kSum:
          v = p.sum;
          break;
        case AggregateKind::kMin:
          v = p.min;
          break;
        case AggregateKind::kMax:
          v = p.max;
          break;
        case AggregateKind::kStdDev: {
          // Population stddev from moments; n < 2 is 0 by the repo-wide
          // convention (common/stats), and the max() guards the tiny negative
          // variance floating-point cancellation can produce.
          const double mean = p.sum / n;
          v = p.count < 2
                  ? 0.0
                  : std::sqrt(std::max(0.0, p.sumsq / n - mean * mean));
          break;
        }
        case AggregateKind::kRaw:
        case AggregateKind::kCount:
          break;  // unreachable: raw specs force the exact path, count above
      }
      times.push_back(p.wend);
      vals.push_back(v);
    }
  }
  TimeSeries out;
  out.AppendAggregatedSpan(times.data(), vals.data(), times.size());
  return out;
}

}  // namespace

Result<std::vector<Feature>> FeatureBuilder::Build(const std::vector<FeatureSpec>& specs,
                                                   const TimeInterval& interval,
                                                   ThreadPool* pool,
                                                   const CancelToken* cancel,
                                                   DegradationReport* degradation,
                                                   bool allow_tiers) const {
  // Stage 1: scan each referenced event type once (spilled chunks mean disk
  // I/O, so the scans themselves are worth parallelizing). Each slot gets its
  // own degradation report; the serial merge below keeps accumulation
  // deterministic.
  // Slot assignment is array-based rather than hashed: spec lists repeat a
  // handful of types, so a linear probe over the dedup list beats hashing,
  // and the per-spec slot vectors make the later stages straight lookups.
  // With tiering allowed, a type's specs split into two slots: raw specs (and
  // non-positive windows, which must reach the classic error path) share an
  // exact-rows scan, while fixed-window aggregates share a resolution-aware
  // scan that the archive may answer from downsampled tiers. The declared
  // resolution is the gcd of the aggregate windows, so any tier whose window
  // divides it nests into every spec's aggregation windows. Without tiering
  // the split is inert (every spec maps to the type's single exact slot).
  std::vector<EventTypeId> scan_types;
  std::vector<char> scan_wants_tier;  // parallel to scan_types
  std::vector<size_t> spec_scan(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const EventTypeId type = specs[i].type;
    const char tiered = allow_tiers && specs[i].agg != AggregateKind::kRaw &&
                        specs[i].window > 0;
    size_t slot = 0;
    while (slot < scan_types.size() &&
           (scan_types[slot] != type || scan_wants_tier[slot] != tiered)) {
      ++slot;
    }
    if (slot == scan_types.size()) {
      scan_types.push_back(type);
      scan_wants_tier.push_back(tiered);
    }
    spec_scan[i] = slot;
  }
  std::vector<Timestamp> scan_resolution(scan_types.size(), 0);
  for (size_t i = 0; i < specs.size(); ++i) {
    const size_t slot = spec_scan[i];
    if (scan_wants_tier[slot]) {
      scan_resolution[slot] = std::gcd(scan_resolution[slot], specs[i].window);
    }
  }
  std::vector<Result<ScanView>> views(scan_types.size(), ScanView{});
  std::vector<DegradationReport> scan_degradation(scan_types.size());
  const size_t scans_done = ParallelFor(
      pool, scan_types.size(),
      [&](size_t i) {
        DegradationReport* deg =
            degradation != nullptr ? &scan_degradation[i] : nullptr;
        if (recent_ != nullptr && scan_resolution[i] == 0) {
          // Exact-resolution scans may be served from the incremental tail
          // (cold prefixes backfill from the archive inside). Tiered slots
          // stay on the archive: a tier answer is not reproducible from the
          // raw tail without re-running the tier fold.
          views[i] = recent_->ScanWithBackfill(*archive_, scan_types[i],
                                               interval, deg, cancel);
        } else {
          views[i] = archive_->ScanColumns(scan_types[i], interval, deg, cancel,
                                           scan_resolution[i]);
        }
      },
      cancel);
  if (degradation != nullptr) {
    for (const DegradationReport& d : scan_degradation) degradation->Merge(d);
  }
  if (cancel != nullptr && cancel->Expired()) {
    return Status::DeadlineExceeded(
        StrFormat("feature build cancelled during archive scans (%zu/%zu types)",
                  scans_done, scan_types.size()));
  }
  for (const auto& view : views) EXSTREAM_RETURN_NOT_OK(view.status());
  // A slot is tiered iff at least one chunk actually answered from a tier;
  // otherwise the view is raw-only and the classic fold below stays
  // bit-identical to an allow_tiers=false build.
  std::vector<char> slot_tiered(scan_types.size(), 0);
  for (size_t s = 0; s < views.size(); ++s) {
    slot_tiered[s] = views[s]->tier_segments.empty() ? 0 : 1;
  }

  // Stage 2: derive each (type, attr) raw series once.
  std::vector<std::pair<size_t, size_t>> raw_pairs;  // (scan slot, attr)
  std::vector<size_t> spec_raw(specs.size());
  std::vector<std::vector<int64_t>> attr_slot(scan_types.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    std::vector<int64_t>& slots = attr_slot[spec_scan[i]];
    const size_t attr = specs[i].attr_index;
    if (attr >= slots.size()) slots.resize(attr + 1, -1);
    if (slots[attr] < 0) {
      slots[attr] = static_cast<int64_t>(raw_pairs.size());
      raw_pairs.emplace_back(spec_scan[i], attr);
    }
    spec_raw[i] = static_cast<size_t>(slots[attr]);
  }
  std::vector<TimeSeries> raws(raw_pairs.size());
  const size_t raws_done = ParallelFor(
      pool, raw_pairs.size(),
      [&](size_t i) {
        const auto& [s, attr] = raw_pairs[i];
        if (slot_tiered[s]) return;  // folded in stage 3
        raws[i] = RawSeriesFromView(*views[s], attr);
      },
      cancel);
  if (cancel != nullptr && cancel->Expired()) {
    return Status::DeadlineExceeded(
        StrFormat("feature build cancelled during raw-series derivation (%zu/%zu)",
                  raws_done, raw_pairs.size()));
  }

  // Stage 3: one aggregate per spec, into its own slot.
  std::vector<Result<Feature>> built(specs.size(), Feature{});
  const size_t built_done = ParallelFor(pool, specs.size(), [&](size_t i) {
    const FeatureSpec& s = specs[i];
    const TimeSeries& raw = raws[spec_raw[i]];
    Feature f;
    f.spec = s;
    if (slot_tiered[spec_scan[i]]) {
      // Tiered slots never carry raw specs (those pin the scan to exact
      // rows), so every spec here folds windows straight off the view.
      auto series = TieredAggregate(*views[spec_scan[i]], s, interval);
      if (!series.ok()) {
        built[i] = series.status();
        return;
      }
      f.series = std::move(*series);
      built[i] = std::move(f);
      return;
    }
    if (s.agg == AggregateKind::kRaw) {
      f.series = raw;
    } else if (s.agg == AggregateKind::kCount) {
      auto series = CountOverInterval(raw, s.window, interval);
      if (!series.ok()) {
        built[i] = series.status();
        return;
      }
      f.series = std::move(*series);
    } else {
      auto series = ApplyWindowAggregate(raw, s.agg, s.window);
      if (!series.ok()) {
        built[i] = series.status();
        return;
      }
      f.series = std::move(*series);
    }
    built[i] = std::move(f);
  }, cancel);
  if (cancel != nullptr && cancel->Expired()) {
    return Status::DeadlineExceeded(
        StrFormat("feature build cancelled during aggregation (%zu/%zu specs)",
                  built_done, specs.size()));
  }

  std::vector<Feature> out;
  out.reserve(specs.size());
  for (auto& b : built) {
    EXSTREAM_RETURN_NOT_OK(b.status());
    out.push_back(std::move(*b));
  }
  return out;
}

Result<Feature> FeatureBuilder::BuildOne(const FeatureSpec& spec,
                                         const TimeInterval& interval) const {
  EXSTREAM_ASSIGN_OR_RETURN(std::vector<Feature> feats,
                            Build(std::vector<FeatureSpec>{spec}, interval));
  return std::move(feats.front());
}

}  // namespace exstream
