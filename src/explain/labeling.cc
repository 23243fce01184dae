#include "explain/labeling.h"

#include <algorithm>
#include <cmath>

#include "ts/entropy_distance.h"

namespace exstream {

std::string_view IntervalLabelToString(IntervalLabel label) {
  switch (label) {
    case IntervalLabel::kAbnormal:
      return "abnormal";
    case IntervalLabel::kReference:
      return "reference";
    case IntervalLabel::kDiscarded:
      return "discarded";
  }
  return "?";
}

namespace {

// IntervalDistance from its parts: the entropy distance of the two value sets
// and the two sampling frequencies.
double CombineDistance(double d_entropy, double fa, double fb,
                       const LabelingOptions& options) {
  const double d_freq =
      std::max(fa, fb) > 0 ? std::fabs(fa - fb) / std::max(fa, fb) : 0.0;
  const double wsum = options.entropy_weight + options.frequency_weight;
  if (wsum <= 0) return 0.0;
  return (options.entropy_weight * d_entropy + options.frequency_weight * d_freq) /
         wsum;
}

}  // namespace

double IntervalDistance(const TimeSeries& a, const TimeSeries& b,
                        const LabelingOptions& options) {
  if (a.empty() || b.empty()) return 1.0;
  // Entropy distance: D == 1 means the two intervals' monitored values are
  // perfectly separable (very different behavior); D near 0 means mixed
  // (similar behavior). This is exactly an inter-interval distance.
  const double d_entropy = ComputeEntropyDistance(a.values(), b.values()).distance;
  return CombineDistance(d_entropy, a.Frequency(), b.Frequency(), options);
}

DistanceMatrix IntervalDistances(const std::vector<const TimeSeries*>& series,
                                 const LabelingOptions& options) {
  // Every series meets every other one: sort each once, not once per pair.
  const size_t n = series.size();
  std::vector<std::vector<double>> sorted(n);
  std::vector<double> freq(n);
  for (size_t i = 0; i < n; ++i) {
    sorted[i] = series[i]->values();
    std::sort(sorted[i].begin(), sorted[i].end());
    freq[i] = series[i]->Frequency();
  }
  DistanceMatrix dist(n);  // one flat allocation, not n+1 row vectors
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (sorted[i].empty() || sorted[j].empty()) {
        dist.Set(i, j, 1.0);
        continue;
      }
      const double d_entropy = ComputeEntropyDistanceSorted(sorted[i], sorted[j]).distance;
      dist.Set(i, j, CombineDistance(d_entropy, freq[i], freq[j], options));
    }
  }
  return dist;
}

Result<std::vector<LabeledInterval>> LabelIntervals(
    const CandidateInterval& annotated_abnormal,
    const CandidateInterval& annotated_reference,
    const std::vector<CandidateInterval>& candidates, const LabelingOptions& options) {
  // Items: [0] = annotated abnormal, [1] = annotated reference, then
  // candidates.
  std::vector<const TimeSeries*> series;
  series.push_back(&annotated_abnormal.series);
  series.push_back(&annotated_reference.series);
  for (const auto& c : candidates) series.push_back(&c.series);

  const DistanceMatrix dist = IntervalDistances(series, options);
  EXSTREAM_ASSIGN_OR_RETURN(const ClusteringResult clusters,
                            AgglomerativeCluster(dist, options.cut_threshold));

  const int abnormal_cluster = clusters.labels[0];
  const int reference_cluster = clusters.labels[1];
  std::vector<LabeledInterval> out;
  out.reserve(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    LabeledInterval li;
    li.candidate = candidates[c];
    const int cluster = clusters.labels[c + 2];
    if (abnormal_cluster == reference_cluster) {
      li.label = IntervalLabel::kDiscarded;  // no certainty possible
    } else if (cluster == abnormal_cluster) {
      li.label = IntervalLabel::kAbnormal;
    } else if (cluster == reference_cluster) {
      li.label = IntervalLabel::kReference;
    } else {
      // A cluster containing neither annotation: per the paper, intervals
      // whose cluster is far from the anomaly cluster are reference, but
      // ambiguous ones are discarded. Use the distance to the two annotated
      // intervals to decide, requiring a clear margin.
      const double d_abn = dist.at(c + 2, 0);
      const double d_ref = dist.at(c + 2, 1);
      if (d_ref < d_abn * 0.8) {
        li.label = IntervalLabel::kReference;
      } else if (d_abn < d_ref * 0.8) {
        li.label = IntervalLabel::kAbnormal;
      } else {
        li.label = IntervalLabel::kDiscarded;
      }
    }
    out.push_back(std::move(li));
  }
  return out;
}

}  // namespace exstream
