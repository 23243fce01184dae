// Chunk: a bounded run of same-type events, the archive's storage unit
// (Appendix B: "events of the same type are chopped into smaller chunk files
// on disk; an index of the time range for each chunk is built").

#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "archive/columns.h"
#include "archive/tiers.h"
#include "common/result.h"
#include "event/event.h"

namespace exstream {

/// \brief A contiguous, time-ordered run of events of one type, stored as
/// columns (one sorted ts column + typed per-attribute columns).
///
/// A chunk is open while events accumulate, sealed once it reaches the
/// configured capacity, and may then be spilled to a binary file. Spilled
/// chunks keep their time range in memory (the index entry) and reload their
/// columns on demand.
///
/// Columns live behind a shared_ptr so that scan views can pin a sealed
/// chunk's data without copying it: spilling swaps the pointer out rather
/// than mutating the columns, and any view holding the old handle keeps
/// reading consistent data. All other mutation (Append/Seal/SpillTo) must be
/// externally synchronized with snapshot-taking (the archive's shard locks).
class Chunk {
 public:
  /// `schema` (optional, not owned, must outlive the chunk) pre-declares one
  /// column per attribute so appends never need to widen the column set.
  Chunk(EventTypeId type, size_t capacity, const EventSchema* schema = nullptr)
      : type_(type),
        capacity_(capacity),
        columns_(std::make_shared<ChunkColumns>(type, schema)) {
    columns_->Reserve(capacity);
  }

  EventTypeId type() const { return type_; }
  size_t size() const { return count_; }
  bool sealed() const { return sealed_; }
  bool spilled() const { return spilled_; }
  bool full() const { return count_ >= capacity_; }
  bool quarantined() const { return quarantined_.load(std::memory_order_acquire); }

  /// True once tier-0 retention dropped the raw spill file. The chunk's index
  /// entry, tiers, and sidecar survive; only exact-row reads are gone.
  bool raw_evicted() const { return raw_evicted_; }

  Timestamp min_ts() const { return min_ts_; }
  Timestamp max_ts() const { return max_ts_; }

  /// True if the chunk's time range intersects [interval.lower, interval.upper].
  bool Overlaps(const TimeInterval& interval) const {
    return count_ > 0 && min_ts_ <= interval.upper && max_ts_ >= interval.lower;
  }

  /// \brief Appends an event (same type, non-decreasing ts) to the columns.
  /// Fails when sealed.
  Status Append(const Event& event);

  /// Marks the chunk immutable and shrinks its column storage.
  void Seal() {
    sealed_ = true;
    columns_->SealStorage();
  }

  /// \brief Builds the chunk's downsampled tiers from its resident columns
  /// (one tier per positive window). Requires sealed, not yet spilled.
  /// Deterministic, so a restored chunk rebuilds identical tiers.
  void BuildTiers(const std::vector<Timestamp>& windows);

  /// Checkpoint restore: attaches tiers loaded from a sidecar.
  void AdoptTiers(std::shared_ptr<const ChunkTiers> tiers) {
    if (tiers != nullptr && !tiers->empty()) tiers_ = std::move(tiers);
  }

  /// The chunk's downsampled tiers (ascending window); null when none were
  /// built. Immutable once published, shareable with scan views.
  std::shared_ptr<const ChunkTiers> tiers() const { return tiers_; }

  /// Writes the columns to `path` and drops the in-memory copy. Requires
  /// sealed. Also writes the tier sidecar (`path.tiers`, best-effort — tiers
  /// stay resident regardless, and restore can rebuild them from the spill).
  Status SpillTo(const std::string& path);

  /// \brief Tier-0 retention: deletes the raw spill file, keeping the index
  /// entry, tiers, and sidecar. Requires spilled; quarantined chunks are left
  /// alone (their renamed file is triage evidence). Idempotent.
  Status EvictRaw();

  /// \brief Marks the chunk's spill file unreadable and retires it: the file
  /// is renamed to `<path>.quarantine` (preserved for offline triage) and
  /// future scans skip the chunk instead of retrying it.
  ///
  /// Thread-safe and idempotent: scans race to quarantine a chunk they both
  /// failed to read, exactly one caller wins (and gets `true` back); the
  /// rename happens once.
  bool MarkQuarantined();

  /// Shared handle to the resident columns; null once spilled. For sealed
  /// chunks the pointee is immutable, so the handle stays valid (and
  /// race-free) even after a later SpillTo drops the chunk's own reference.
  std::shared_ptr<const ChunkColumns> resident_columns() const {
    return spilled_ ? nullptr : std::shared_ptr<const ChunkColumns>(columns_);
  }

  /// In-memory columns (empty once spilled). Only meaningful under the same
  /// external synchronization as Append (the open-tail snapshot path).
  const ChunkColumns& columns() const { return *columns_; }

  /// Spill-file path; empty until spilled.
  const std::string& spill_path() const { return spill_path_; }

  /// \brief Checkpoint restore: rebuilds an open or resident-sealed chunk
  /// around deserialized columns. `sealed` false leaves the chunk appendable
  /// (the shard's tail chunk).
  static std::shared_ptr<Chunk> AdoptResident(EventTypeId type, size_t capacity,
                                              const EventSchema* schema,
                                              ChunkColumns columns, bool sealed);

  /// \brief Checkpoint restore: rebuilds the index entry of a chunk whose
  /// data lives in its (already durable) spill file. `raw_evicted` restores a
  /// chunk whose raw file was dropped by tier-0 retention (tiers only).
  static std::shared_ptr<Chunk> AdoptSpilled(EventTypeId type, size_t capacity,
                                             size_t count, Timestamp min_ts,
                                             Timestamp max_ts, std::string spill_path,
                                             bool quarantined,
                                             bool raw_evicted = false);

 private:
  EventTypeId type_;
  size_t capacity_;
  std::shared_ptr<ChunkColumns> columns_;
  std::shared_ptr<const ChunkTiers> tiers_;
  size_t count_ = 0;
  Timestamp min_ts_ = 0;
  Timestamp max_ts_ = 0;
  bool sealed_ = false;
  bool spilled_ = false;
  bool raw_evicted_ = false;
  std::atomic<bool> quarantined_{false};
  std::string spill_path_;
};

}  // namespace exstream
