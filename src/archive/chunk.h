// Chunk: a bounded run of same-type events, the archive's storage unit
// (Appendix B: "events of the same type are chopped into smaller chunk files
// on disk; an index of the time range for each chunk is built").

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "archive/columns.h"
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
///
/// A spilled chunk also remembers its last decode through a weak handle:
/// while any holder (a scan view, an Explain's pin list) keeps those columns
/// alive, later scans reuse them instead of reading the file again. The
/// handle has its own per-chunk lock, held only to load or store it (never
/// across the file read), so neither appends nor other scans wait on I/O.
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

  /// Writes the columns to `path` and drops the in-memory copy. Requires
  /// sealed.
  Status SpillTo(const std::string& path);

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

  /// The last decode of the spill file if some holder still keeps it alive,
  /// else null. Thread-safe.
  std::shared_ptr<const ChunkColumns> live_decode() const;
  /// Records a fresh decode of the spill file and returns the decode later
  /// scans will share: one another scan stored meanwhile, if it is still
  /// alive, else `decoded`. Thread-safe.
  std::shared_ptr<const ChunkColumns> ShareDecode(
      std::shared_ptr<const ChunkColumns> decoded);

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
  /// data lives in its (already durable) spill file.
  static std::shared_ptr<Chunk> AdoptSpilled(EventTypeId type, size_t capacity,
                                             size_t count, Timestamp min_ts,
                                             Timestamp max_ts, std::string spill_path,
                                             bool quarantined);

 private:
  EventTypeId type_;
  size_t capacity_;
  std::shared_ptr<ChunkColumns> columns_;
  size_t count_ = 0;
  Timestamp min_ts_ = 0;
  Timestamp max_ts_ = 0;
  bool sealed_ = false;
  bool spilled_ = false;
  std::atomic<bool> quarantined_{false};
  std::string spill_path_;
  mutable std::mutex decode_mu_;
  std::weak_ptr<const ChunkColumns> last_decode_;  // guarded by decode_mu_
};

}  // namespace exstream
