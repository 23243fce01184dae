#include "explain/reward.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace exstream {

std::vector<RankedFeature> RankFeatures(std::vector<Feature> abnormal,
                                        std::vector<Feature> reference,
                                        size_t min_support, ThreadPool* pool,
                                        const CancelToken* cancel) {
  const size_t n = std::min(abnormal.size(), reference.size());
  std::vector<RankedFeature> out(n);
  // Each feature's entropy distance is independent; slot-indexed writes keep
  // the pre-sort order (and thus the stable sort below) deterministic. The
  // inputs are owned, so the series move instead of copying.
  ParallelFor(pool, n, [&](size_t i) {
    RankedFeature& rf = out[i];
    rf.spec = abnormal[i].spec;
    rf.abnormal_series = std::move(abnormal[i].series);
    rf.reference_series = std::move(reference[i].series);
    if (rf.abnormal_series.size() >= min_support &&
        rf.reference_series.size() >= min_support) {
      rf.entropy = ComputeEntropyDistance(rf.abnormal_series, rf.reference_series);
    }
  }, cancel);
  // Reward descending; ties break toward larger sample support (a perfect
  // separation over 400 points is stronger evidence than one over 40), then
  // stably toward spec order for determinism.
  std::stable_sort(out.begin(), out.end(),
                   [](const RankedFeature& a, const RankedFeature& b) {
                     if (a.reward() != b.reward()) return a.reward() > b.reward();
                     return FeatureSupport(a) > FeatureSupport(b);
                   });
  return out;
}

Result<std::vector<RankedFeature>> ComputeFeatureRewards(
    const FeatureBuilder& builder, const std::vector<FeatureSpec>& specs,
    const TimeInterval& abnormal, const TimeInterval& reference,
    size_t min_support, ThreadPool* pool, const CancelToken* cancel,
    DegradationReport* degradation, ChunkPins* pins) {
  EXSTREAM_ASSIGN_OR_RETURN(
      std::vector<Feature> fa,
      builder.Build(specs, abnormal, pool, cancel, degradation, pins));
  EXSTREAM_ASSIGN_OR_RETURN(
      std::vector<Feature> fr,
      builder.Build(specs, reference, pool, cancel, degradation, pins));
  std::vector<RankedFeature> ranked =
      RankFeatures(std::move(fa), std::move(fr), min_support, pool, cancel);
  if (cancel != nullptr && cancel->Expired()) {
    return Status::DeadlineExceeded(
        StrFormat("reward ranking cancelled (%zu features materialized)",
                  ranked.size()));
  }
  return ranked;
}

}  // namespace exstream
