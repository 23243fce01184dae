#include "pipeline.h"

#include "common/stopwatch.h"
#include "explain/alignment.h"
#include "explain/predicate_builder.h"
#include "features/feature_space.h"
#include "harness.h"
#include "ts/aggregate.h"

namespace perfbench {

using namespace exstream;

// ---- DecomposedIngest ------------------------------------------------------

DecomposedIngest::DecomposedIngest(const EventTypeRegistry* registry,
                                   const XStreamConfig& config, SpanRecorder* trace)
    : trace_(trace),
      guard_(registry, config.guard),
      engine_(std::make_unique<CepEngine>(registry, config.ingest)),
      archive_(std::make_unique<EventArchive>(registry, config.archive)) {
  if (config.durability.wal_dir.has_value()) {
    WalOptions w;
    w.dir = *config.durability.wal_dir;
    w.segment_bytes = config.durability.wal_segment_bytes;
    w.fsync = config.durability.fsync;
    w.fsync_interval_ms = config.durability.fsync_interval_ms;
    auto wal = WriteAheadLog::Open(std::move(w));
    if (wal.ok()) {
      wal_ = std::move(*wal);
      next_seq_ = wal_->next_seq();
    }
  }
  if (config.serving.incremental_features) {
    tails_ = std::make_unique<IncrementalFeatureState>(
        registry, config.serving.incremental_retention);
  }
  detector_options_ = config.serving.detector;
}

Status DecomposedIngest::AddQuery(const std::string& text, const std::string& name) {
  EXSTREAM_ASSIGN_OR_RETURN(const QueryId id, engine_->AddQueryText(text, name));
  if (name == kMonitorQuery) monitor_query_ = id;
  if (name != kDetectQuery || !detector_options_.has_value()) return Status::OK();
  detect_query_ = id;
  // The system's BindDetector: the detector rides the match callback.
  EXSTREAM_ASSIGN_OR_RETURN(const size_t col,
                            engine_->match_table(id).ColumnIndex(kDetectColumn));
  detector_ = std::make_unique<StreamingDetector>(name, *detector_options_);
  StreamingDetector* detector = detector_.get();
  SpanRecorder* trace = trace_;
  engine_->SetMatchCallback([detector, id, col, trace](const MatchNotification& n) {
    if (n.query != id || col >= n.row.values.size()) return;
    ScopedSpan span(trace, "detect.observe");
    detector->Observe(n.partition, n.row.ts, n.row.values[col].AsDouble());
  });
  return Status::OK();
}

void DecomposedIngest::OnEventBatch(EventBatch batch, uint64_t request) {
  if (batch.empty()) return;
  EventBatch released;
  {
    ScopedSpan span(trace_, "guard.admit", request);
    released = guard_.Admit(std::move(batch));
  }
  Apply(std::move(released), request);
}

void DecomposedIngest::Flush(uint64_t request) {
  EventBatch released;
  {
    ScopedSpan span(trace_, "guard.admit", request);
    released = guard_.Drain();
  }
  Apply(std::move(released), request);
}

void DecomposedIngest::Apply(EventBatch batch, uint64_t request) {
  if (batch.empty()) return;
  if (wal_ != nullptr) {
    ScopedSpan span(trace_, "wal.append", request);
    (void)wal_->Append(next_seq_, batch);  // failures show in wal()->stats()
    next_seq_ = wal_->next_seq();
  } else {
    next_seq_ += batch.size();
  }
  {
    ScopedSpan span(trace_, "cep.ingest", request);
    engine_->IngestBatch(batch);
  }
  if (tails_ != nullptr) {
    ScopedSpan span(trace_, "tails.ingest", request);
    tails_->OnEventBatch(batch);
  }
  {
    ScopedSpan span(trace_, "archive.append", request);
    archive_->OnEventBatch(std::move(batch));
  }
  watermark_.store(next_seq_, std::memory_order_release);
}

std::vector<StreamAnomaly> DecomposedIngest::TakeAnomalies() {
  if (detector_ == nullptr) return {};
  return detector_->TakeReady();
}

SeriesProvider DecomposedIngest::MakeSeriesProvider() const {
  const CepEngine* engine = engine_.get();
  const QueryId query = monitor_query_;
  return [engine, query](const std::string& q,
                         const std::string& partition) -> Result<TimeSeries> {
    if (q != kMonitorQuery) return Status::NotFound("no monitored series for " + q);
    return engine->match_table(query).ExtractSeries(partition, kMonitorColumn);
  };
}

// ---- ShadowExplainer -------------------------------------------------------

namespace {

// FeatureBuilder's raw (type, attribute) series straight off column spans.
TimeSeries RawSeriesFromView(const ScanView& view, size_t attr_index) {
  TimeSeries out;
  out.Reserve(view.rows());
  for (const ScanView::Segment& seg : view.segments) {
    const ChunkColumns& cols = *seg.columns;
    if (attr_index >= cols.num_columns()) continue;
    const AttributeColumn& col = cols.attr(attr_index);
    out.AppendColumnRange(cols.ts().data() + seg.begin, col.nums.data() + seg.begin,
                          col.tags.data() + seg.begin, kMissingValueTag,
                          seg.end - seg.begin);
  }
  return out;
}

// FeatureBuilder's count feature: windows over the query interval, so an
// empty window is an observation of 0.
Result<TimeSeries> CountOverInterval(const TimeSeries& raw, Timestamp window,
                                     const TimeInterval& interval) {
  if (window <= 0) return Status::InvalidArgument("window must be positive");
  TimeSeries out;
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

ShadowExplainer::ShadowExplainer(const EventArchive* archive,
                                 const PartitionTable* partitions, SeriesProvider series,
                                 ExplainOptions options,
                                 const IncrementalFeatureState* tails, SpanRecorder* trace)
    : archive_(archive),
      partitions_(partitions),
      series_(std::move(series)),
      options_(std::move(options)),
      tails_(tails),
      trace_(trace),
      specs_(GenerateFeatureSpecs(archive->registry(), options_.feature_space)) {}

Result<std::vector<Feature>> ShadowExplainer::Build(const std::vector<FeatureSpec>& specs,
                                                    const TimeInterval& interval,
                                                    DegradationReport* degradation,
                                                    uint64_t request) const {
  std::vector<EventTypeId> scan_types;
  std::vector<size_t> spec_scan(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    size_t slot = 0;
    while (slot < scan_types.size() && scan_types[slot] != specs[i].type) ++slot;
    if (slot == scan_types.size()) scan_types.push_back(specs[i].type);
    spec_scan[i] = slot;
  }
  std::vector<ScanView> views(scan_types.size());
  for (size_t s = 0; s < scan_types.size(); ++s) {
    DegradationReport deg;
    Result<ScanView> view = ScanView{};
    {
      ScopedSpan span(trace_, "archive.scan", request);
      view = tails_ != nullptr
                 ? tails_->ScanWithBackfill(*archive_, scan_types[s], interval, &deg)
                 : archive_->ScanColumns(scan_types[s], interval, &deg);
    }
    if (degradation != nullptr) degradation->Merge(deg);
    EXSTREAM_RETURN_NOT_OK(view.status());
    views[s] = std::move(*view);
  }
  std::vector<std::pair<size_t, size_t>> raw_pairs;
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
  for (size_t i = 0; i < raw_pairs.size(); ++i) {
    raws[i] = RawSeriesFromView(views[raw_pairs[i].first], raw_pairs[i].second);
  }
  std::vector<Feature> out;
  out.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const FeatureSpec& s = specs[i];
    const TimeSeries& raw = raws[spec_raw[i]];
    Feature f;
    f.spec = s;
    if (s.agg == AggregateKind::kRaw) {
      f.series = raw;
    } else if (s.agg == AggregateKind::kCount) {
      EXSTREAM_ASSIGN_OR_RETURN(f.series, CountOverInterval(raw, s.window, interval));
    } else {
      EXSTREAM_ASSIGN_OR_RETURN(f.series, ApplyWindowAggregate(raw, s.agg, s.window));
    }
    out.push_back(std::move(f));
  }
  return out;
}

Result<ExplanationReport> ShadowExplainer::Explain(const AnomalyAnnotation& annotation,
                                                   uint64_t request) const {
  Stopwatch timer;
  ExplanationReport report;
  report.annotation = annotation;

  std::vector<Feature> fa;
  std::vector<Feature> fr;
  {
    ScopedSpan span(trace_, "explain.build_abn", request);
    EXSTREAM_ASSIGN_OR_RETURN(
        fa, Build(specs_, annotation.abnormal.range, &report.degradation, request));
  }
  {
    ScopedSpan span(trace_, "explain.build_ref", request);
    EXSTREAM_ASSIGN_OR_RETURN(
        fr, Build(specs_, annotation.reference.range, &report.degradation, request));
  }
  {
    ScopedSpan span(trace_, "explain.rank", request);
    report.ranked = RankFeatures(std::move(fa), std::move(fr), options_.min_support);
  }
  {
    ScopedSpan span(trace_, "explain.leap", request);
    report.after_leap = RewardLeapFilter(report.ranked, options_.leap);
  }
  if (options_.enable_validation && partitions_ != nullptr && series_) {
    EXSTREAM_RETURN_NOT_OK(Validate(annotation, &report, request));
  } else {
    for (const RankedFeature& f : report.after_leap) {
      ValidatedFeature v;
      v.feature = f;
      v.annotated_reward = f.reward();
      v.validated_reward = f.reward();
      v.kept = f.reward() >= options_.validation_min_reward;
      if (v.kept) report.after_validation.push_back(f);
      report.validation.push_back(std::move(v));
    }
  }
  if (options_.enable_clustering) {
    ScopedSpan span(trace_, "explain.cluster", request);
    report.clustering = CorrelationClusterFilter(report.after_validation, options_.correlation);
    report.final_features = report.clustering.representatives;
  } else {
    report.final_features = report.after_validation;
    report.clustering.cluster_labels.assign(report.after_validation.size(), 0);
    report.clustering.num_clusters = static_cast<int>(report.after_validation.size());
  }
  {
    ScopedSpan span(trace_, "explain.predicate", request);
    EXSTREAM_ASSIGN_OR_RETURN(report.explanation, BuildExplanation(report.final_features));
  }
  if (report.degradation.degraded()) {
    report.explanation.MarkDegraded(report.degradation.ToString());
  }
  report.duration_seconds = timer.ElapsedSeconds();
  return report;
}

Status ShadowExplainer::Validate(const AnomalyAnnotation& annotation,
                                 ExplanationReport* report, uint64_t request) const {
  std::vector<TimeInterval> abnormal_intervals = {annotation.abnormal.range};
  std::vector<TimeInterval> reference_intervals = {annotation.reference.range};

  // Alignment spans candidate gathering, which is not one block scope.
  const uint32_t align_span =
      trace_ != nullptr ? trace_->Begin("explain.validate.align", request) : 0;
  bool align_open = trace_ != nullptr;
  auto end_align = [&] {
    if (align_open) trace_->End(align_span);
    align_open = false;
  };
  auto annotated_rec =
      partitions_->Get(annotation.abnormal.query, annotation.abnormal.partition);
  if (annotated_rec.ok()) {
    auto abn_series_r = series_(annotation.abnormal.query, annotation.abnormal.partition);
    auto ref_series_r =
        series_(annotation.reference.query, annotation.reference.partition);
    if (abn_series_r.ok() && ref_series_r.ok()) {
      const TimeSeries& abn_series = *abn_series_r;
      const TimeSeries& ref_series = *ref_series_r;
      const CandidateInterval annotated_abnormal{annotation.abnormal.partition,
                                                 annotation.abnormal.range,
                                                 abn_series.Slice(annotation.abnormal.range)};
      const CandidateInterval annotated_reference{
          annotation.reference.partition, annotation.reference.range,
          ref_series.Slice(annotation.reference.range)};
      std::vector<CandidateInterval> candidates;
      {
        const std::vector<PartitionRecord> related =
            partitions_->FindRelated(*annotated_rec);
        report->num_related_partitions = related.size();
        const TimeInterval& ia = annotation.abnormal.range;
        std::vector<TimeInterval> remainders;
        if (!abn_series.empty()) {
          remainders.push_back({abn_series.start_time(), ia.lower - 1});
          remainders.push_back({ia.upper + 1, abn_series.end_time()});
        }
        for (TimeInterval rem : remainders) {
          if (annotation.reference.partition == annotation.abnormal.partition) {
            const TimeInterval& ir = annotation.reference.range;
            if (ir.lower <= rem.lower && ir.upper >= rem.upper) continue;
            if (ir.lower > rem.lower && ir.lower <= rem.upper) rem.upper = ir.lower - 1;
            if (ir.upper < rem.upper && ir.upper >= rem.lower) rem.lower = ir.upper + 1;
          }
          if (rem.upper <= rem.lower) continue;
          CandidateInterval cand;
          cand.partition = annotation.abnormal.partition;
          cand.range = rem;
          cand.series = abn_series.Slice(rem);
          if (cand.series.size() >= options_.min_support) {
            candidates.push_back(std::move(cand));
          }
        }
        for (const PartitionRecord& rel : related) {
          auto rel_series_r = series_(rel.query_name, rel.partition);
          if (!rel_series_r.ok()) continue;
          const TimeSeries& rel_series = *rel_series_r;
          for (const TimeInterval& src :
               {annotation.abnormal.range, annotation.reference.range}) {
            auto aligned =
                AlignAnnotation(*annotated_rec, abn_series, src, rel, rel_series);
            if (!aligned.ok()) continue;
            CandidateInterval cand;
            cand.partition = rel.partition;
            cand.range = aligned->range;
            cand.series = rel_series.Slice(aligned->range);
            if (cand.series.empty()) continue;
            candidates.push_back(std::move(cand));
          }
        }
      }
      end_align();
      if (!candidates.empty()) {
        ScopedSpan span(trace_, "explain.validate.label", request);
        EXSTREAM_ASSIGN_OR_RETURN(
            const std::vector<LabeledInterval> labeled,
            LabelIntervals(annotated_abnormal, annotated_reference, candidates,
                           options_.labeling));
        for (const LabeledInterval& li : labeled) {
          switch (li.label) {
            case IntervalLabel::kAbnormal:
              abnormal_intervals.push_back(li.candidate.range);
              ++report->num_labeled_abnormal;
              break;
            case IntervalLabel::kReference:
              reference_intervals.push_back(li.candidate.range);
              ++report->num_labeled_reference;
              break;
            case IntervalLabel::kDiscarded:
              ++report->num_discarded;
              break;
          }
        }
      }
    }
  }

  end_align();
  std::vector<FeatureSpec> survivor_specs;
  survivor_specs.reserve(report->after_leap.size());
  for (const RankedFeature& f : report->after_leap) survivor_specs.push_back(f.spec);
  std::vector<std::vector<double>> abnormal_pool(survivor_specs.size());
  std::vector<std::vector<double>> reference_pool(survivor_specs.size());
  {
    ScopedSpan span(trace_, "explain.validate.pool_build", request);
    for (const auto& [intervals, pool] :
         {std::pair{&abnormal_intervals, &abnormal_pool},
          std::pair{&reference_intervals, &reference_pool}}) {
      for (const TimeInterval& interval : *intervals) {
        EXSTREAM_ASSIGN_OR_RETURN(
            const std::vector<Feature> feats,
            Build(survivor_specs, interval, &report->degradation, request));
        for (size_t i = 0; i < feats.size(); ++i) {
          const auto& vals = feats[i].series.values();
          (*pool)[i].insert((*pool)[i].end(), vals.begin(), vals.end());
        }
      }
    }
  }
  ScopedSpan span(trace_, "explain.validate.rerank", request);
  for (size_t i = 0; i < report->after_leap.size(); ++i) {
    ValidatedFeature v;
    v.feature = report->after_leap[i];
    v.annotated_reward = v.feature.reward();
    v.feature.entropy = ComputeEntropyDistance(abnormal_pool[i], reference_pool[i]);
    v.validated_reward = v.feature.entropy.distance;
    v.kept = v.validated_reward >= options_.validation_min_reward;
    if (v.kept) report->after_validation.push_back(v.feature);
    report->validation.push_back(std::move(v));
  }
  return Status::OK();
}

ExplainResultCache::ResultPtr CachedShadowExplain(ExplainResultCache* cache,
                                                  const ShadowExplainer& shadow,
                                                  const AnomalyAnnotation& annotation,
                                                  QueryId query, uint64_t watermark,
                                                  SpanRecorder* trace, uint64_t request) {
  ScopedSpan span(trace, "cache.lookup", request);
  // The archive stays healthy in every workload (the run checks its fault
  // counters), so the degradation dimension of the key is constant.
  const std::string key = ExplainCacheKey(annotation, query, kMonitorColumn,
                                          BenchExplainOptions(), watermark, 0);
  return cache->GetOrCompute(key, [&] { return shadow.Explain(annotation, request); });
}

}  // namespace perfbench
