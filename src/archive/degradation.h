// DegradationReport: what a degraded-mode archive scan could NOT read.
//
// When a spill file is unreadable (and retries are exhausted), the scan
// quarantines the chunk and keeps going with the healthy ones instead of
// failing the whole analysis. The report carries exactly what was skipped so
// downstream consumers — and ultimately the Explanation — can flag results
// computed from incomplete data.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "event/event.h"

namespace exstream {

/// \brief Per-scan account of skipped chunks and estimated data loss.
struct DegradationReport {
  /// One chunk the scan had to skip.
  struct SkippedChunk {
    EventTypeId type = 0;
    std::string spill_path;   ///< original path (on disk it is now `.quarantine`)
    size_t events_lost = 0;   ///< events the chunk held when sealed
    std::string reason;       ///< terminal error, e.g. the corruption status
  };

  /// Per-type chunk coverage of the scanned interval.
  struct TypeCoverage {
    size_t chunks_total = 0;    ///< chunks overlapping the interval
    size_t chunks_skipped = 0;  ///< of those, skipped as unreadable

    /// Fraction of overlapping chunks that contributed data (1.0 = full).
    double fraction() const {
      return chunks_total == 0
                 ? 1.0
                 : 1.0 - static_cast<double>(chunks_skipped) /
                             static_cast<double>(chunks_total);
    }
  };

  std::vector<SkippedChunk> skipped;
  size_t events_lost_estimate = 0;
  std::map<EventTypeId, TypeCoverage> coverage;
  /// Valid events dropped by ingest backpressure (bounded-queue shedding)
  /// before this analysis ran — the archive/match tables are missing them.
  size_t events_shed = 0;
  /// Malformed events the ingest guard rejected (quarantined, not analyzed).
  /// Informational: rejects are invalid data, so they do not by themselves
  /// mark the analysis degraded.
  size_t events_rejected = 0;
  bool degraded() const { return !skipped.empty() || events_shed > 0; }
  size_t chunks_skipped() const { return skipped.size(); }

  /// Folds another report (e.g. a second interval's scan) into this one.
  void Merge(const DegradationReport& other);

  /// One-line summary, e.g.
  /// "2 chunks skipped (~8192 events lost; type 3 coverage 0.75)".
  std::string ToString() const;
};

}  // namespace exstream
