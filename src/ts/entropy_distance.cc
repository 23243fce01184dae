#include "ts/entropy_distance.h"

#include <algorithm>
#include <cmath>

namespace exstream {

namespace {

constexpr double kLog2 = 0.6931471805599453;  // ln(2)

// p * log2(1/p), with the 0 * log(1/0) = 0 convention.
double PLog(double p) {
  if (p <= 0.0) return 0.0;
  return -p * std::log(p) / kLog2;
}

// Entropy contribution of the worst-case (uniform interleaving) ordering of a
// mixed segment: the minority class spreads as singletons, splitting the
// majority class into as-even-as-possible chunks (paper: 3N+2A ->
// (N,A,N,A,N)). Sub-segment probabilities are relative to the whole feature's
// point count, consistent with Eq. 2.
double WorstCaseMixedEntropy(size_t abnormal, size_t reference, size_t total_points) {
  const size_t minority = std::min(abnormal, reference);
  const size_t majority = std::max(abnormal, reference);
  const double total = static_cast<double>(total_points);
  double h = 0.0;
  // Minority singletons.
  h += static_cast<double>(minority) * PLog(1.0 / total);
  // Majority chunks: if counts are equal, strict alternation gives `minority`
  // majority chunks of size 1; otherwise minority singletons cut the majority
  // into minority + 1 chunks.
  const size_t chunks = (majority == minority) ? minority : minority + 1;
  if (chunks == 0) return h;
  const size_t base = majority / chunks;
  const size_t extra = majority % chunks;  // first `extra` chunks get one more
  for (size_t i = 0; i < chunks; ++i) {
    const size_t sz = base + (i < extra ? 1 : 0);
    if (sz > 0) h += PLog(static_cast<double>(sz) / total);
  }
  return h;
}

}  // namespace

std::string_view SegmentClassToString(SegmentClass c) {
  switch (c) {
    case SegmentClass::kAbnormalOnly:
      return "abnormal";
    case SegmentClass::kReferenceOnly:
      return "reference";
    case SegmentClass::kMixed:
      return "mixed";
  }
  return "unknown";
}

EntropyDistanceResult ComputeEntropyDistanceSorted(std::span<const double> abnormal,
                                                   std::span<const double> reference) {
  EntropyDistanceResult out;
  out.abnormal_count = abnormal.size();
  out.reference_count = reference.size();
  const size_t total = out.abnormal_count + out.reference_count;
  if (out.abnormal_count == 0 || out.reference_count == 0) {
    // No contrast between classes; reward is zero by definition.
    return out;
  }

  // Class entropy (Eq. 1).
  const double pa = static_cast<double>(out.abnormal_count) / static_cast<double>(total);
  const double pr = static_cast<double>(out.reference_count) / static_cast<double>(total);
  out.class_entropy = PLog(pa) + PLog(pr);

  // Merge walk over the two sorted classes. Each step takes the smallest
  // remaining value and consumes its equal run on both sides: a distinct value
  // owned by both classes is mixed. Consecutive values with the same
  // ownership extend one maximal segment.
  const size_t na = abnormal.size();
  const size_t nr = reference.size();
  size_t i = 0;
  size_t j = 0;
  while (i < na || j < nr) {
    const bool from_abnormal = j == nr || (i < na && !(reference[j] < abnormal[i]));
    const double v = from_abnormal ? abnormal[i] : reference[j];
    // The value that picked the step is always consumed, so the walk ends
    // even on values that compare unequal to themselves.
    size_t ca = from_abnormal ? 1 : 0;
    size_t cr = from_abnormal ? 0 : 1;
    i += ca;
    j += cr;
    for (; i < na && abnormal[i] == v; ++i) ++ca;
    for (; j < nr && reference[j] == v; ++j) ++cr;
    const SegmentClass cls = ca > 0 && cr > 0 ? SegmentClass::kMixed
                             : ca > 0         ? SegmentClass::kAbnormalOnly
                                              : SegmentClass::kReferenceOnly;
    if (!out.segments.empty() && out.segments.back().cls == cls) {
      Segment& s = out.segments.back();
      s.max_value = v;
      s.abnormal_points += ca;
      s.reference_points += cr;
    } else {
      out.segments.push_back(Segment{cls, v, v, ca, cr});
    }
  }

  // Segmentation entropy (Eq. 2) and mixed-segment penalties (Eq. 3).
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

  // Distance (Eq. 4). H+ >= H_class always holds for non-degenerate inputs;
  // clamp defensively for floating-point wiggle.
  out.distance = out.regularized_entropy > 0.0
                     ? std::min(1.0, out.class_entropy / out.regularized_entropy)
                     : 0.0;
  return out;
}

EntropyDistanceResult ComputeEntropyDistance(
    const std::vector<double>& abnormal_values,
    const std::vector<double>& reference_values) {
  // One buffer, each class sorted in its own half.
  std::vector<double> sorted;
  sorted.reserve(abnormal_values.size() + reference_values.size());
  sorted.insert(sorted.end(), abnormal_values.begin(), abnormal_values.end());
  sorted.insert(sorted.end(), reference_values.begin(), reference_values.end());
  const auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(abnormal_values.size());
  std::sort(sorted.begin(), mid);
  std::sort(mid, sorted.end());
  const std::span<const double> all(sorted);
  return ComputeEntropyDistanceSorted(all.first(abnormal_values.size()),
                                      all.subspan(abnormal_values.size()));
}

EntropyDistanceResult ComputeEntropyDistance(const TimeSeries& abnormal,
                                             const TimeSeries& reference) {
  return ComputeEntropyDistance(abnormal.values(), reference.values());
}

std::vector<AbnormalRange> ExtractAbnormalRanges(const EntropyDistanceResult& result,
                                                 double min_fraction,
                                                 size_t min_points) {
  std::vector<AbnormalRange> ranges;
  const auto& segs = result.segments;
  const size_t required = std::max(
      min_points, static_cast<size_t>(min_fraction *
                                      static_cast<double>(result.abnormal_count)));
  for (size_t i = 0; i < segs.size(); ++i) {
    if (segs[i].cls != SegmentClass::kAbnormalOnly) continue;
    if (segs[i].abnormal_points < required) continue;  // noise blip
    AbnormalRange r;
    if (i > 0) {
      r.has_lower = true;
      r.lower = (segs[i - 1].max_value + segs[i].min_value) / 2.0;
    }
    if (i + 1 < segs.size()) {
      r.has_upper = true;
      r.upper = (segs[i].max_value + segs[i + 1].min_value) / 2.0;
    }
    ranges.push_back(r);
  }
  return ranges;
}

}  // namespace exstream
