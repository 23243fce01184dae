// ExplanationEngine: the end-to-end pipeline of Sec. 5 (Fig. 19b).
//
//   annotated intervals
//     -> feature generation (Sec. 3)
//     -> entropy reward ranking (Sec. 4)
//     -> Step 1: reward-leap filtering (Sec. 5.1)
//     -> Step 2: false-positive filtering via related partitions (Sec. 5.2)
//     -> Step 3: correlation clustering (Sec. 5.3)
//     -> CNF explanation (Sec. 5.4)

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "explain/annotation.h"
#include "explain/correlation_filter.h"
#include "explain/explanation.h"
#include "explain/labeling.h"
#include "explain/leap_filter.h"
#include "explain/partition_table.h"
#include "explain/reward.h"
#include "features/feature_space.h"

namespace exstream {

/// \brief Supplies the monitored (query-result) series of a partition, used
/// for alignment and interval labeling. Typically backed by the engine's
/// MatchTable (see XStreamSystem).
using SeriesProvider =
    std::function<Result<TimeSeries>(const std::string& query_name,
                                     const std::string& partition)>;

/// \brief Tuning knobs for the explanation pipeline.
struct ExplainOptions {
  FeatureSpaceOptions feature_space;
  LeapFilterOptions leap;
  LabelingOptions labeling;
  CorrelationFilterOptions correlation;
  /// Step 2: keep a feature iff its reward on the augmented labeled set is at
  /// least this (Fig. 12's "Reward (all)" column).
  double validation_min_reward = 0.5;
  /// Features with fewer samples than this in either interval get reward 0.
  size_t min_support = 5;
  /// Disable Step 2 (used when no archive history exists).
  bool enable_validation = true;
  /// Disable Step 3 — this is the paper's plain "XStream" variant; enabled is
  /// "XStream-cluster" (Fig. 14/15).
  bool enable_clustering = true;
  /// Worker threads for the analysis hot paths (feature materialization,
  /// entropy rewards, Step-2 candidate alignment and interval pooling).
  /// 1 = fully serial; 0 = one worker per hardware thread. Results are
  /// bit-identical across thread counts. With num_threads != 1 the
  /// SeriesProvider must be safe to call from multiple threads.
  size_t num_threads = 1;
  /// Wall-clock budget for one Explain call, in milliseconds (0 = unbounded).
  /// The deadline is checked cooperatively inside every ParallelFor stage
  /// (feature build, reward ranking, validation); on expiry Explain returns
  /// Status::DeadlineExceeded whose message names the stage reached, and the
  /// worker pool is left idle and reusable.
  double deadline_ms = 0.0;
  /// Let *reference-side* feature scans (the reference interval of the
  /// reward ranking and Step 2's reference-labeled pools) be answered from
  /// the archive's downsampled tiers when a tier window divides the feature
  /// windows — wide reference intervals then skip spill reads and per-row
  /// folding entirely. Abnormal-interval scans always read exact rows, so
  /// the explanation's abnormal-side features stay bit-identical; reference
  /// aggregates switch to absolute-aligned windows (a resolution the caller
  /// opted into, not a degradation). Off by default.
  bool tiered_reference_scans = false;
};

/// \brief Step-2 detail for one feature (paper Fig. 12).
struct ValidatedFeature {
  RankedFeature feature;  ///< entropy refreshed on the pooled labeled data
  double annotated_reward = 0.0;
  double validated_reward = 0.0;
  bool kept = false;
};

/// \brief Full pipeline output with per-step diagnostics.
struct ExplanationReport {
  AnomalyAnnotation annotation;
  std::vector<RankedFeature> ranked;            ///< all features, reward-sorted
  std::vector<RankedFeature> after_leap;        ///< Step 1 survivors
  std::vector<ValidatedFeature> validation;     ///< Step 2 detail
  std::vector<RankedFeature> after_validation;  ///< Step 2 survivors
  CorrelationFilterResult clustering;           ///< Step 3 structure
  std::vector<RankedFeature> final_features;    ///< explanation features
  Explanation explanation;

  size_t num_related_partitions = 0;
  size_t num_labeled_abnormal = 0;   ///< candidates labeled abnormal
  size_t num_labeled_reference = 0;  ///< candidates labeled reference
  size_t num_discarded = 0;
  double duration_seconds = 0.0;

  /// What the archive scans behind this explanation could not read. When
  /// degraded() is true the explanation was computed from incomplete data
  /// (and `explanation` itself carries the same flag).
  DegradationReport degradation;

  std::vector<std::string> SelectedFeatureNames() const;
};

/// \brief Generates optimal explanations for annotated anomalies.
class ExplanationEngine {
 public:
  /// \param archive the event archive to replay features from
  /// \param partitions partition table for related-partition discovery; may
  ///        be nullptr (Step 2 then degrades to annotated-only validation)
  /// \param series_provider monitored-series accessor; may be empty (Step 2
  ///        is skipped entirely)
  /// \param recent incremental recent-interval tails; when non-null,
  ///        exact-resolution feature scans covered by the tails skip the
  ///        archive (bit-identical rows; see features/incremental.h).
  ExplanationEngine(const EventArchive* archive, const PartitionTable* partitions,
                    SeriesProvider series_provider, ExplainOptions options = {},
                    const IncrementalFeatureState* recent = nullptr);

  /// Runs the full pipeline for one annotation.
  Result<ExplanationReport> Explain(const AnomalyAnnotation& annotation) const;

  const ExplainOptions& options() const { return options_; }
  const std::vector<FeatureSpec>& feature_specs() const { return specs_; }

 private:
  Status RunValidation(const AnomalyAnnotation& annotation,
                       ExplanationReport* report, const CancelToken* cancel) const;

  const EventArchive* archive_;       // not owned
  const PartitionTable* partitions_;  // not owned, may be null
  SeriesProvider series_provider_;
  ExplainOptions options_;
  std::vector<FeatureSpec> specs_;
  FeatureBuilder builder_;
  std::unique_ptr<ThreadPool> pool_;  // null when options_.num_threads == 1
};

}  // namespace exstream
