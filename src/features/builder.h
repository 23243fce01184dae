// FeatureBuilder: materializes features over an interval from the archive
// (the "feature generation" stage of the explanation module, Fig. 19b).

#pragma once

#include <memory>
#include <vector>

#include "archive/archive.h"
#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "features/feature.h"
#include "features/incremental.h"

namespace exstream {

/// \brief Spill decodes a caller keeps alive across several Builds. While
/// they are held, later scans of the same spilled chunks reuse the archive's
/// decode instead of reading the files again (see EventArchive::ScanColumns).
using ChunkPins = std::vector<std::shared_ptr<const ChunkColumns>>;

/// \brief Builds feature time series by replaying archived events.
///
/// Events of each (type, attribute) pair are scanned once per interval and
/// shared across all aggregates/windows derived from that pair, so the
/// archive read amplification is independent of the feature-space size.
///
/// Scans go through the archive's columnar ScanView path: raw series are
/// folded straight off pinned ts/value column spans, with no per-event
/// materialization. The test-only reference oracle (tests/feature_oracle.h)
/// folds materialized rows instead and must agree bit for bit.
///
/// With `recent` set, scans are answered from the incremental in-memory tail
/// when it covers the interval (archive scans remain the backfill for cold
/// prefixes). Rows are byte-identical either way, so features — and the
/// explanations built from them — do not change.
class FeatureBuilder {
 public:
  explicit FeatureBuilder(const EventArchive* archive,
                          const IncrementalFeatureState* recent = nullptr)
      : archive_(archive), recent_(recent) {}

  /// \brief Materializes each spec over `interval`.
  ///
  /// Features whose underlying attribute produced no samples in the interval
  /// are still returned (with an empty series); downstream reward computation
  /// treats empty-vs-nonempty contrast via count features.
  ///
  /// When `pool` is non-null, the three stages (archive scans, raw-series
  /// derivation, per-spec aggregation) each fan out over the pool. Every
  /// stage writes into index-addressed slots, so the output is identical to
  /// the serial run regardless of thread count.
  ///
  /// `cancel`, when non-null, is polled cooperatively inside and between the
  /// stages; an expired token makes Build return Status::DeadlineExceeded
  /// with the stage reached. `degradation`, when non-null, accumulates what
  /// the underlying archive scans had to skip (quarantined chunks). `pins`,
  /// when non-null, receives the spill decodes the scans read, so the caller
  /// can keep them alive for its next Builds.
  Result<std::vector<Feature>> Build(const std::vector<FeatureSpec>& specs,
                                     const TimeInterval& interval,
                                     ThreadPool* pool = nullptr,
                                     const CancelToken* cancel = nullptr,
                                     DegradationReport* degradation = nullptr,
                                     ChunkPins* pins = nullptr) const;

  /// \brief Materializes one spec over `interval`.
  Result<Feature> BuildOne(const FeatureSpec& spec, const TimeInterval& interval) const;

 private:
  const EventArchive* archive_;  // not owned
  const IncrementalFeatureState* recent_ = nullptr;  // not owned, may be null
};

}  // namespace exstream
