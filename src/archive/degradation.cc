#include "archive/degradation.h"

#include "common/strings.h"

namespace exstream {

void DegradationReport::Merge(const DegradationReport& other) {
  skipped.insert(skipped.end(), other.skipped.begin(), other.skipped.end());
  events_lost_estimate += other.events_lost_estimate;
  for (const auto& [type, cov] : other.coverage) {
    TypeCoverage& mine = coverage[type];
    mine.chunks_total += cov.chunks_total;
    mine.chunks_skipped += cov.chunks_skipped;
  }
  events_shed += other.events_shed;
  events_rejected += other.events_rejected;
}

std::string DegradationReport::ToString() const {
  if (!degraded()) return "no degradation";
  std::string out = StrFormat("%zu chunk%s skipped (~%zu events lost", skipped.size(),
                              skipped.size() == 1 ? "" : "s", events_lost_estimate);
  for (const auto& [type, cov] : coverage) {
    if (cov.chunks_skipped == 0) continue;
    out += StrFormat("; type %u coverage %.2f", type, cov.fraction());
  }
  if (events_shed > 0) out += StrFormat("; %zu events shed at ingest", events_shed);
  if (events_rejected > 0) {
    out += StrFormat("; %zu malformed events rejected", events_rejected);
  }
  out += ")";
  return out;
}

}  // namespace exstream
