#include "explain/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "explain/alignment.h"
#include "explain/predicate_builder.h"

namespace exstream {

std::vector<std::string> ExplanationReport::SelectedFeatureNames() const {
  std::vector<std::string> out;
  out.reserve(final_features.size());
  for (const RankedFeature& f : final_features) out.push_back(f.spec.Name());
  return out;
}

ExplanationEngine::ExplanationEngine(const EventArchive* archive,
                                     const PartitionTable* partitions,
                                     SeriesProvider series_provider,
                                     ExplainOptions options,
                                     const IncrementalFeatureState* recent)
    : archive_(archive),
      partitions_(partitions),
      series_provider_(std::move(series_provider)),
      options_(std::move(options)),
      specs_(GenerateFeatureSpecs(archive->registry(), options_.feature_space)),
      builder_(archive, recent),
      pool_(options_.num_threads == 1
                ? nullptr
                : std::make_unique<ThreadPool>(options_.num_threads)) {}

Result<ExplanationReport> ExplanationEngine::Explain(
    const AnomalyAnnotation& annotation) const {
  Stopwatch timer;
  ExplanationReport report;
  report.annotation = annotation;

  // Deadline token for this call; polled inside every parallel stage so a
  // runaway analysis yields DeadlineExceeded instead of stalling monitoring.
  const CancelToken token = options_.deadline_ms > 0
                                ? CancelToken::AfterMillis(options_.deadline_ms)
                                : CancelToken();
  const CancelToken* cancel = options_.deadline_ms > 0 ? &token : nullptr;

  // Rank every feature in the space by entropy reward over (I_A, I_R).
  EXSTREAM_ASSIGN_OR_RETURN(
      report.ranked, ComputeFeatureRewards(builder_, specs_, annotation.abnormal.range,
                                           annotation.reference.range,
                                           options_.min_support, pool_.get(), cancel,
                                           &report.degradation,
                                           options_.tiered_reference_scans));

  // Step 1: reward-leap filtering.
  report.after_leap = RewardLeapFilter(report.ranked, options_.leap);
  if (cancel != nullptr && cancel->Expired()) {
    return Status::DeadlineExceeded(
        StrFormat("deadline exceeded after reward ranking (%zu ranked, %zu after "
                  "leap filter)",
                  report.ranked.size(), report.after_leap.size()));
  }

  // Step 2: false-positive filtering on related partitions.
  if (options_.enable_validation && partitions_ != nullptr && series_provider_) {
    EXSTREAM_RETURN_NOT_OK(RunValidation(annotation, &report, cancel));
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

  // Step 3: correlation clustering.
  if (options_.enable_clustering) {
    report.clustering =
        CorrelationClusterFilter(report.after_validation, options_.correlation);
    report.final_features = report.clustering.representatives;
  } else {
    report.final_features = report.after_validation;
    report.clustering.cluster_labels.assign(report.after_validation.size(), 0);
    report.clustering.num_clusters =
        static_cast<int>(report.after_validation.size());
  }

  EXSTREAM_ASSIGN_OR_RETURN(report.explanation,
                            BuildExplanation(report.final_features));
  if (report.degradation.degraded()) {
    report.explanation.MarkDegraded(report.degradation.ToString());
  }
  report.duration_seconds = timer.ElapsedSeconds();
  return report;
}

Status ExplanationEngine::RunValidation(const AnomalyAnnotation& annotation,
                                        ExplanationReport* report,
                                        const CancelToken* cancel) const {
  // Gather the labeled interval pools, starting with the annotations.
  std::vector<TimeInterval> abnormal_intervals = {annotation.abnormal.range};
  std::vector<TimeInterval> reference_intervals = {annotation.reference.range};

  auto annotated_rec =
      partitions_->Get(annotation.abnormal.query, annotation.abnormal.partition);
  if (annotated_rec.ok()) {
    auto abn_series_r = series_provider_(annotation.abnormal.query,
                                         annotation.abnormal.partition);
    auto ref_series_r = series_provider_(annotation.reference.query,
                                         annotation.reference.partition);
    if (abn_series_r.ok() && ref_series_r.ok()) {
      const TimeSeries& abn_series = *abn_series_r;
      const TimeSeries& ref_series = *ref_series_r;

      CandidateInterval annotated_abnormal{annotation.abnormal.partition,
                                           annotation.abnormal.range,
                                           abn_series.Slice(annotation.abnormal.range)};
      CandidateInterval annotated_reference{
          annotation.reference.partition, annotation.reference.range,
          ref_series.Slice(annotation.reference.range)};

      const std::vector<PartitionRecord> related =
          partitions_->FindRelated(*annotated_rec);
      report->num_related_partitions = related.size();

      std::vector<CandidateInterval> candidates;

      // The non-annotated parts of the abnormal partition are labeling
      // candidates too (Sec. 2.1: the reference "can be inferred by XStream
      // as the non-annotated parts of the partition"). Their labels anchor
      // time-monotone false positives (e.g. uptime) from both sides.
      {
        const TimeInterval& ia = annotation.abnormal.range;
        std::vector<TimeInterval> remainders;
        if (!abn_series.empty()) {
          remainders.push_back({abn_series.start_time(), ia.lower - 1});
          remainders.push_back({ia.upper + 1, abn_series.end_time()});
        }
        for (TimeInterval rem : remainders) {
          // Clip away the explicitly annotated reference when it lives in the
          // same partition.
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
      }

      // Align the annotation onto every related partition. Each partition's
      // series fetch, alignment, and slicing are independent, so they fan out
      // over the pool; merging slot-by-slot keeps the candidate order (and
      // hence labeling and all downstream output) identical to the serial run.
      std::vector<std::vector<CandidateInterval>> per_related(related.size());
      ParallelFor(pool_.get(), related.size(), [&](size_t r) {
        if (cancel != nullptr && cancel->Expired()) return;
        const PartitionRecord& rel = related[r];
        auto rel_series_r = series_provider_(rel.query_name, rel.partition);
        if (!rel_series_r.ok()) return;
        const TimeSeries& rel_series = *rel_series_r;
        for (const TimeInterval& src :
             {annotation.abnormal.range, annotation.reference.range}) {
          auto aligned = AlignAnnotation(*annotated_rec, abn_series, src, rel,
                                         rel_series);
          if (!aligned.ok()) continue;
          CandidateInterval cand;
          cand.partition = rel.partition;
          cand.range = aligned->range;
          cand.series = rel_series.Slice(aligned->range);
          if (cand.series.empty()) continue;
          per_related[r].push_back(std::move(cand));
        }
      });
      for (auto& cands : per_related) {
        for (auto& cand : cands) candidates.push_back(std::move(cand));
      }
      if (cancel != nullptr && cancel->Expired()) {
        return Status::DeadlineExceeded(StrFormat(
            "deadline exceeded during related-partition alignment "
            "(%zu candidates from %zu partitions)",
            candidates.size(), related.size()));
      }

      if (!candidates.empty()) {
        EXSTREAM_ASSIGN_OR_RETURN(
            const std::vector<LabeledInterval> labeled,
            LabelIntervals(annotated_abnormal, annotated_reference, candidates,
                           options_.labeling));
        if (GetLogLevel() <= LogLevel::kDebug) {
          for (const LabeledInterval& li : labeled) {
            EXSTREAM_LOG(Debug)
                << "label " << li.candidate.partition << " ["
                << li.candidate.range.lower << "," << li.candidate.range.upper
                << "] -> " << IntervalLabelToString(li.label) << " (d_abn="
                << IntervalDistance(li.candidate.series, annotated_abnormal.series,
                                    options_.labeling)
                << " d_ref="
                << IntervalDistance(li.candidate.series,
                                    annotated_reference.series, options_.labeling)
                << ")";
          }
        }
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

  // Re-evaluate every Step-1 survivor on the pooled labeled data.
  std::vector<FeatureSpec> survivor_specs;
  survivor_specs.reserve(report->after_leap.size());
  for (const RankedFeature& f : report->after_leap) survivor_specs.push_back(f.spec);

  std::vector<std::vector<double>> abnormal_pool(survivor_specs.size());
  std::vector<std::vector<double>> reference_pool(survivor_specs.size());
  auto accumulate = [&](const std::vector<TimeInterval>& intervals,
                        std::vector<std::vector<double>>* value_pool,
                        bool allow_tiers) -> Status {
    // Materialize the survivor features of every labeled interval in
    // parallel, then merge in interval order so each feature's pooled value
    // sequence matches the serial run exactly. With a single interval the
    // parallelism moves inside Build instead.
    std::vector<Result<std::vector<Feature>>> per_interval(intervals.size(),
                                                           std::vector<Feature>{});
    if (intervals.size() == 1) {
      per_interval[0] = builder_.Build(survivor_specs, intervals[0], pool_.get(),
                                       cancel, &report->degradation, allow_tiers);
    } else {
      // Each parallel Build gets a private degradation slot; merged in order
      // below so the report stays deterministic.
      std::vector<DegradationReport> per_degradation(intervals.size());
      ParallelFor(pool_.get(), intervals.size(), [&](size_t k) {
        per_interval[k] = builder_.Build(survivor_specs, intervals[k], nullptr,
                                         cancel, &per_degradation[k], allow_tiers);
      }, cancel);
      for (const DegradationReport& d : per_degradation) {
        report->degradation.Merge(d);
      }
    }
    for (auto& feats_r : per_interval) {
      EXSTREAM_RETURN_NOT_OK(feats_r.status());
      const std::vector<Feature>& feats = *feats_r;
      for (size_t i = 0; i < feats.size(); ++i) {
        const auto& vals = feats[i].series.values();
        (*value_pool)[i].insert((*value_pool)[i].end(), vals.begin(), vals.end());
      }
    }
    return Status::OK();
  };
  // Abnormal pools always fold exact rows (the explanation's abnormal side
  // must be bit-identical to raw); reference pools may take the tiered path.
  EXSTREAM_RETURN_NOT_OK(accumulate(abnormal_intervals, &abnormal_pool, false));
  EXSTREAM_RETURN_NOT_OK(accumulate(reference_intervals, &reference_pool,
                                    options_.tiered_reference_scans));
  if (cancel != nullptr && cancel->Expired()) {
    return Status::DeadlineExceeded(StrFormat(
        "deadline exceeded while pooling labeled intervals (%zu abnormal, "
        "%zu reference)",
        abnormal_intervals.size(), reference_intervals.size()));
  }

  std::vector<ValidatedFeature> validated(report->after_leap.size());
  const size_t executed =
      ParallelFor(pool_.get(), report->after_leap.size(), [&](size_t i) {
    ValidatedFeature& v = validated[i];
    v.feature = report->after_leap[i];
    v.annotated_reward = v.feature.reward();
    v.feature.entropy = ComputeEntropyDistance(abnormal_pool[i], reference_pool[i]);
    v.validated_reward = v.feature.entropy.distance;
    v.kept = v.validated_reward >= options_.validation_min_reward;
  }, cancel);
  if (cancel != nullptr && cancel->Expired()) {
    return Status::DeadlineExceeded(
        StrFormat("deadline exceeded during validation re-ranking (%zu/%zu "
                  "features re-evaluated)",
                  executed, report->after_leap.size()));
  }
  for (ValidatedFeature& v : validated) {
    if (v.kept) report->after_validation.push_back(v.feature);
    report->validation.push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace exstream
