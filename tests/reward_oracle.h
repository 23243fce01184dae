// RewardOracle: the reference semantics of the entropy reward (paper Sec. 4.3)
// and of interval labeling (Sec. 5.2).
//
// OracleEntropyDistance is the straightest route to Eq. 1-4: both classes'
// values go into one array of {value, class} points, one sort orders them,
// a pass groups equal values (a value owned by both classes is mixed), and a
// second pass merges groups of equal ownership into segments.
// ComputeEntropyDistance sorts each class on its own and builds the segments
// in one merge walk; it must reproduce the oracle bit for bit.
//
// OracleLabelIntervals fills the distance matrix by calling IntervalDistance
// on every pair, then clusters and labels it as LabelIntervals does.
// LabelIntervals sorts each series once for all of its pairs; it must return
// the same labels.

#pragma once

#include <vector>

#include "common/result.h"
#include "explain/labeling.h"
#include "ts/clustering.h"
#include "ts/entropy_distance.h"

namespace exstream {

/// \brief The entropy distance of the two value sets, by one struct sort and
/// a group pass.
EntropyDistanceResult OracleEntropyDistance(const std::vector<double>& abnormal,
                                            const std::vector<double>& reference);

/// \brief IntervalDistance on every pair of `series`.
DistanceMatrix OraclePairwiseDistances(const std::vector<const TimeSeries*>& series,
                                       const LabelingOptions& options);

/// \brief LabelIntervals over the pairwise IntervalDistance matrix.
Result<std::vector<LabeledInterval>> OracleLabelIntervals(
    const CandidateInterval& annotated_abnormal,
    const CandidateInterval& annotated_reference,
    const std::vector<CandidateInterval>& candidates, const LabelingOptions& options);

}  // namespace exstream
