// IncrementalFeatureState: the in-memory recent-interval tail that lets
// FeatureBuilder answer sliding-window feature requests without archive
// scans (ROADMAP "close the loop": continuous explanation serving).
//
// As batches apply, each event type's recent events accumulate in a columnar
// tail. A feature build over an interval whose lower bound is at or above the
// tail's coverage floor is served entirely from memory; an interval that
// starts earlier backfills the cold prefix from the archive and takes the
// tail for the rest. Both paths produce byte-identical rows to a full
// archive scan (same append order, same columnar fold), so explanations are
// bit-identical whichever path answered; the feature property test checks
// both against the row-folding reference oracle (tests/feature_oracle.h).

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "archive/archive.h"
#include "archive/columns.h"
#include "common/result.h"
#include "event/event.h"
#include "event/registry.h"

namespace exstream {

/// \brief Per-event-type recent columnar tails with coverage accounting.
///
/// Thread model: one applying thread calls OnEventBatch; any number
/// of explanation threads call ScanRecent/ScanWithBackfill concurrently.
/// State is sharded per type with one mutex each, so an Explain snapshotting
/// one type's tail never stalls ingest of another type.
class IncrementalFeatureState {
 public:
  /// \param retention keep at most this much trailing time per type (0 =
  ///        unbounded). Evicted rows lower nothing but the coverage floor:
  ///        requests reaching below it transparently backfill from the
  ///        archive.
  explicit IncrementalFeatureState(const EventTypeRegistry* registry,
                                   Timestamp retention = 0);

  /// Ingest hook (applying thread). Must see exactly the events the archive
  /// sees, in the same order — XStreamSystem::ApplyBatch feeds both.
  void OnEventBatch(const EventBatch& batch);

  /// \brief Declares that the archive holds data this state never saw
  /// (checkpoint restore). The next event of each type then establishes a
  /// conservative coverage floor *above* its own timestamp, because archived
  /// external events may share it.
  void MarkExternalData();

  /// Drops all tails and coverage floors (Recover on a fresh system).
  void Reset();

  /// \brief Serves `interval` for `type` from the tail when covered,
  /// backfilling the cold prefix from `archive` otherwise.
  ///
  /// The returned view's rows are byte-identical, in order, to
  /// `archive.ScanColumns(type, interval, ...)`: the tail holds the same
  /// events in the same append order, and the cold scan covers strictly
  /// earlier timestamps than the tail segment appended after it.
  Result<ScanView> ScanWithBackfill(const EventArchive& archive, EventTypeId type,
                                    const TimeInterval& interval,
                                    DegradationReport* degradation = nullptr,
                                    const CancelToken* cancel = nullptr) const;

  Timestamp retention() const { return retention_; }

  /// Serving counters (monitoring / bench surface).
  struct Stats {
    uint64_t full_hits = 0;      ///< scans served entirely from memory
    uint64_t partial_hits = 0;   ///< scans that mixed tail + archive backfill
    uint64_t misses = 0;         ///< scans that fell through to the archive
    uint64_t events_buffered = 0;///< events currently held across all tails
    uint64_t events_evicted = 0; ///< rows dropped by retention (lifetime)
    uint64_t disorder_resets = 0;///< tails poisoned by out-of-order events
  };
  Stats stats() const;

 private:
  /// One event type's tail. `cols` rows [start, rows) are live; rows before
  /// `start` were evicted by retention and ignored (they sit below `floor`,
  /// so scans never reach them). Invariant: when `has_floor`, the live rows
  /// are exactly the archived events of this type with ts >= floor, in
  /// archive append order, with non-decreasing ts.
  struct TypeTail {
    mutable std::mutex mu;
    ChunkColumns cols;
    size_t start = 0;
    bool has_floor = false;
    Timestamp floor = 0;
    /// Largest event timestamp ever observed for the type (poison target:
    /// after an out-of-order event the tail restarts above everything seen).
    Timestamp max_ts_seen = 0;
  };

  void Ingest(TypeTail* tail, const Event& event);
  void EvictLocked(TypeTail* tail);

  const EventTypeRegistry* registry_;  // not owned
  Timestamp retention_ = 0;
  /// Set by MarkExternalData: types without a floor yet must start theirs
  /// one past their first event (equal-timestamp external rows may exist).
  std::atomic<bool> external_data_{false};
  std::vector<std::unique_ptr<TypeTail>> tails_;  // indexed by EventTypeId

  mutable std::atomic<uint64_t> full_hits_{0};
  mutable std::atomic<uint64_t> partial_hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> events_buffered_{0};
  std::atomic<uint64_t> events_evicted_{0};
  std::atomic<uint64_t> disorder_resets_{0};
};

}  // namespace exstream
