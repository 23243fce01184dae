#include "reward_oracle.h"

#include <algorithm>
#include <cmath>

namespace exstream {

namespace {

constexpr double kLog2 = 0.6931471805599453;  // ln(2)

double PLog(double p) {
  if (p <= 0.0) return 0.0;
  return -p * std::log(p) / kLog2;
}

// Worst-case (uniform interleaving) entropy of a mixed segment: minority
// singletons split the majority into as-even-as-possible chunks.
double WorstCaseMixedEntropy(size_t abnormal, size_t reference, size_t total_points) {
  const size_t minority = std::min(abnormal, reference);
  const size_t majority = std::max(abnormal, reference);
  const double total = static_cast<double>(total_points);
  double h = static_cast<double>(minority) * PLog(1.0 / total);
  const size_t chunks = (majority == minority) ? minority : minority + 1;
  if (chunks == 0) return h;
  const size_t base = majority / chunks;
  const size_t extra = majority % chunks;
  for (size_t i = 0; i < chunks; ++i) {
    const size_t sz = base + (i < extra ? 1 : 0);
    if (sz > 0) h += PLog(static_cast<double>(sz) / total);
  }
  return h;
}

}  // namespace

EntropyDistanceResult OracleEntropyDistance(const std::vector<double>& abnormal,
                                            const std::vector<double>& reference) {
  EntropyDistanceResult out;
  out.abnormal_count = abnormal.size();
  out.reference_count = reference.size();
  const size_t total = out.abnormal_count + out.reference_count;
  if (out.abnormal_count == 0 || out.reference_count == 0) return out;

  const double pa = static_cast<double>(out.abnormal_count) / static_cast<double>(total);
  const double pr = static_cast<double>(out.reference_count) / static_cast<double>(total);
  out.class_entropy = PLog(pa) + PLog(pr);

  struct Point {
    double value;
    bool abnormal;
  };
  std::vector<Point> points;
  points.reserve(total);
  for (double v : abnormal) points.push_back({v, true});
  for (double v : reference) points.push_back({v, false});
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a.value < b.value; });

  struct Group {
    double value;
    size_t abnormal;
    size_t reference;
    SegmentClass cls() const {
      if (abnormal > 0 && reference > 0) return SegmentClass::kMixed;
      return abnormal > 0 ? SegmentClass::kAbnormalOnly : SegmentClass::kReferenceOnly;
    }
  };
  std::vector<Group> groups;
  for (const Point& p : points) {
    if (!groups.empty() && groups.back().value == p.value) {
      ++(p.abnormal ? groups.back().abnormal : groups.back().reference);
    } else {
      groups.push_back({p.value, p.abnormal ? size_t{1} : size_t{0},
                        p.abnormal ? size_t{0} : size_t{1}});
    }
  }

  for (const Group& g : groups) {
    const SegmentClass cls = g.cls();
    if (!out.segments.empty() && out.segments.back().cls == cls) {
      Segment& s = out.segments.back();
      s.max_value = g.value;
      s.abnormal_points += g.abnormal;
      s.reference_points += g.reference;
    } else {
      out.segments.push_back(Segment{cls, g.value, g.value, g.abnormal, g.reference});
    }
  }

  double h_seg = 0.0;
  double penalty = 0.0;
  for (const Segment& s : out.segments) {
    h_seg += PLog(static_cast<double>(s.TotalPoints()) / static_cast<double>(total));
    if (s.cls == SegmentClass::kMixed) {
      penalty += WorstCaseMixedEntropy(s.abnormal_points, s.reference_points, total);
    }
  }
  out.segmentation_entropy = h_seg;
  out.regularized_entropy = h_seg + penalty;
  out.distance = out.regularized_entropy > 0.0
                     ? std::min(1.0, out.class_entropy / out.regularized_entropy)
                     : 0.0;
  return out;
}

DistanceMatrix OraclePairwiseDistances(const std::vector<const TimeSeries*>& series,
                                       const LabelingOptions& options) {
  DistanceMatrix dist(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    for (size_t j = i + 1; j < series.size(); ++j) {
      dist.Set(i, j, IntervalDistance(*series[i], *series[j], options));
    }
  }
  return dist;
}

Result<std::vector<LabeledInterval>> OracleLabelIntervals(
    const CandidateInterval& annotated_abnormal,
    const CandidateInterval& annotated_reference,
    const std::vector<CandidateInterval>& candidates, const LabelingOptions& options) {
  std::vector<const TimeSeries*> series{&annotated_abnormal.series,
                                        &annotated_reference.series};
  for (const auto& c : candidates) series.push_back(&c.series);
  const DistanceMatrix dist = OraclePairwiseDistances(series, options);
  EXSTREAM_ASSIGN_OR_RETURN(const ClusteringResult clusters,
                            AgglomerativeCluster(dist, options.cut_threshold));
  const int abnormal_cluster = clusters.labels[0];
  const int reference_cluster = clusters.labels[1];
  std::vector<LabeledInterval> out;
  for (size_t c = 0; c < candidates.size(); ++c) {
    LabeledInterval li;
    li.candidate = candidates[c];
    const int cluster = clusters.labels[c + 2];
    if (abnormal_cluster == reference_cluster) {
      li.label = IntervalLabel::kDiscarded;
    } else if (cluster == abnormal_cluster) {
      li.label = IntervalLabel::kAbnormal;
    } else if (cluster == reference_cluster) {
      li.label = IntervalLabel::kReference;
    } else {
      // Neither annotation's cluster: the nearer annotation wins by a clear
      // margin, or the candidate is discarded.
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
