// Entropy-based single-feature reward (paper Sec. 4.3).
//
// The reward of a feature f for explaining an anomaly is
//
//     D(f) = H_class(f) / H+_segmentation(f)          (paper Eq. 4)
//
// where H_class is the entropy of the abnormal/reference class distribution
// (Eq. 1), and H+_segmentation is the entropy of the value-ordered class
// segmentation (Eq. 2) regularized by a worst-case penalty for mixed segments
// (Eq. 3). D(f) = 1 iff the feature's values perfectly separate the two
// intervals; heavy mixing drives D(f) toward 0.

#pragma once

#include <span>
#include <string>
#include <vector>

#include "ts/time_series.h"

namespace exstream {

/// \brief Ownership of a run of consecutive sorted values.
enum class SegmentClass : uint8_t {
  kAbnormalOnly = 0,  ///< red in Fig. 10
  kReferenceOnly,     ///< yellow in Fig. 10
  kMixed,             ///< blue in Fig. 10
};

std::string_view SegmentClassToString(SegmentClass c);

/// \brief One maximal run of same-ownership values in the sorted merge.
struct Segment {
  SegmentClass cls = SegmentClass::kMixed;
  double min_value = 0;  ///< smallest value in the segment
  double max_value = 0;  ///< largest value in the segment
  size_t abnormal_points = 0;
  size_t reference_points = 0;

  size_t TotalPoints() const { return abnormal_points + reference_points; }
};

/// \brief Full decomposition of a feature's reward, exposed for tests,
/// Fig. 10-style visualization, and predicate construction (Sec. 5.4).
struct EntropyDistanceResult {
  double class_entropy = 0.0;              ///< H_class, Eq. 1
  double segmentation_entropy = 0.0;       ///< H_segmentation, Eq. 2
  double regularized_entropy = 0.0;        ///< H+_segmentation, Eq. 3
  double distance = 0.0;                   ///< D(f), Eq. 4; in [0, 1]
  std::vector<Segment> segments;           ///< value-ordered segmentation
  size_t abnormal_count = 0;
  size_t reference_count = 0;

  /// True if the feature separates the classes perfectly (D == 1).
  bool PerfectSeparation() const { return distance >= 1.0 - 1e-12; }
};

/// \brief Half-open description of a value range that is abnormal-only.
///
/// Used to build predicates: a range with only an upper bound becomes
/// `f <= upper`; with both bounds `f >= lower AND f <= upper`.
struct AbnormalRange {
  bool has_lower = false;
  bool has_upper = false;
  double lower = 0.0;
  double upper = 0.0;
};

/// \brief Computes the entropy distance of a feature given its abnormal- and
/// reference-interval value samples.
///
/// Ordering of samples is irrelevant (set-based measure). Returns distance 0
/// when either side is empty (no class contrast exists).
EntropyDistanceResult ComputeEntropyDistance(const std::vector<double>& abnormal_values,
                                             const std::vector<double>& reference_values);

/// \brief ComputeEntropyDistance over values already sorted ascending (by
/// `operator<`): the same result without sorting. Callers that score one
/// series against many others (interval labeling) sort each series once.
EntropyDistanceResult ComputeEntropyDistanceSorted(std::span<const double> abnormal,
                                                   std::span<const double> reference);

/// \brief Convenience overload on the two interval time series of a feature.
EntropyDistanceResult ComputeEntropyDistance(const TimeSeries& abnormal,
                                             const TimeSeries& reference);

/// \brief Extracts the abnormal value ranges from a segmentation.
///
/// Boundaries between an abnormal segment and its neighbor are placed at the
/// midpoint between the adjacent segment edge values (the classic cut-point
/// placement of entropy discretization [11]). A leading/trailing abnormal
/// segment yields an unbounded side, producing `f <= c` / `f >= c` predicates.
/// Mixed segments are treated as non-abnormal (they carry no separating
/// power).
///
/// Abnormal segments carrying fewer than `min_points` points or less than
/// `min_fraction` of all abnormal points are noise (a couple of samples
/// landing between reference values) and produce no range.
std::vector<AbnormalRange> ExtractAbnormalRanges(const EntropyDistanceResult& result,
                                                 double min_fraction = 0.05,
                                                 size_t min_points = 2);

}  // namespace exstream
