// Interval labeling via hierarchical clustering (paper Sec. 5.2).
//
// "XStream assigns labels through hierarchical clustering: a period that is
//  placed in the same cluster as the annotated anomaly is labeled as
//  abnormal. The clustering uses two distance functions: entropy-based, and
//  normalized difference of frequencies. ... Periods that cannot be assigned
//  with certainty are discarded."

#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "event/event.h"
#include "ts/clustering.h"
#include "ts/time_series.h"

namespace exstream {

/// \brief A candidate interval to be labeled: the aligned annotation mapped
/// into a related partition, with the monitored series restricted to it.
struct CandidateInterval {
  std::string partition;
  TimeInterval range;
  TimeSeries series;  ///< monitored (query-result) series inside `range`
};

/// \brief Label assigned to a candidate.
enum class IntervalLabel : uint8_t {
  kAbnormal = 0,
  kReference,
  kDiscarded,  ///< could not be assigned with certainty
};

std::string_view IntervalLabelToString(IntervalLabel label);

/// \brief A labeled candidate.
struct LabeledInterval {
  CandidateInterval candidate;
  IntervalLabel label = IntervalLabel::kDiscarded;
};

struct LabelingOptions {
  /// Agglomerative-clustering cut threshold on the combined distance.
  double cut_threshold = 0.35;
  /// Weight of the entropy-based value-distribution distance.
  double entropy_weight = 0.5;
  /// Weight of the normalized frequency difference.
  double frequency_weight = 0.5;
};

/// \brief Combined interval distance: entropy-based separation of the two
/// intervals' value distributions plus the normalized difference of their
/// sampling frequencies. Ranges over [0, 1].
double IntervalDistance(const TimeSeries& a, const TimeSeries& b,
                        const LabelingOptions& options = {});

/// \brief IntervalDistance between every pair of `series`, equal cell for
/// cell to calling it pairwise; each series is sorted once, not once per pair.
DistanceMatrix IntervalDistances(const std::vector<const TimeSeries*>& series,
                                 const LabelingOptions& options = {});

/// \brief Clusters {annotated abnormal, annotated reference, candidates} and
/// labels each candidate by the cluster it shares with an annotated interval.
///
/// Degenerate case: if the two annotated intervals land in the same cluster,
/// nothing can be labeled with certainty and every candidate is discarded.
Result<std::vector<LabeledInterval>> LabelIntervals(
    const CandidateInterval& annotated_abnormal,
    const CandidateInterval& annotated_reference,
    const std::vector<CandidateInterval>& candidates,
    const LabelingOptions& options = {});

}  // namespace exstream
