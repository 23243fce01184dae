#include "features/builder.h"

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

}  // namespace

Result<std::vector<Feature>> FeatureBuilder::Build(const std::vector<FeatureSpec>& specs,
                                                   const TimeInterval& interval,
                                                   ThreadPool* pool,
                                                   const CancelToken* cancel,
                                                   DegradationReport* degradation,
                                                   ChunkPins* pins) const {
  // Stage 1: scan each referenced event type once (spilled chunks mean disk
  // I/O, so the scans themselves are worth parallelizing). Each slot gets its
  // own degradation report; the serial merge below keeps accumulation
  // deterministic.
  // Slot assignment is array-based rather than hashed: spec lists repeat a
  // handful of types, so a linear probe over the dedup list beats hashing,
  // and the per-spec slot vectors make the later stages straight lookups.
  std::vector<EventTypeId> scan_types;
  std::vector<size_t> spec_scan(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const EventTypeId type = specs[i].type;
    size_t slot = 0;
    while (slot < scan_types.size() && scan_types[slot] != type) ++slot;
    if (slot == scan_types.size()) scan_types.push_back(type);
    spec_scan[i] = slot;
  }
  std::vector<Result<ScanView>> views(scan_types.size(), ScanView{});
  std::vector<DegradationReport> scan_degradation(scan_types.size());
  const size_t scans_done = ParallelFor(
      pool, scan_types.size(),
      [&](size_t i) {
        DegradationReport* deg =
            degradation != nullptr ? &scan_degradation[i] : nullptr;
        // The incremental tail, when present, serves the scan (cold
        // prefixes backfill from the archive inside).
        views[i] = recent_ != nullptr
                       ? recent_->ScanWithBackfill(*archive_, scan_types[i],
                                                   interval, deg, cancel)
                       : archive_->ScanColumns(scan_types[i], interval, deg, cancel);
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
  if (pins != nullptr) {
    for (const auto& view : views) {
      for (const ScanView::Segment& seg : view->segments) {
        if (seg.spill_decode) pins->push_back(seg.columns);
      }
    }
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
