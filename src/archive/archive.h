// EventArchive: the archive module of the XStream architecture (Fig. 18/19a).
//
// Stores all input-stream events, partitioned by event type into bounded
// chunks with a per-chunk time-range index, so that explanation analysis can
// read back exactly the events of an annotated interval without scanning
// unrelated data. Sealed chunks can be spilled to disk and reloaded lazily.

#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "archive/chunk.h"
#include "archive/degradation.h"
#include "common/bytes.h"
#include "common/result.h"
#include "common/retry.h"
#include "event/event.h"
#include "event/registry.h"
#include "event/stream.h"

namespace exstream {

/// \brief Configuration for the archive.
struct ArchiveOptions {
  /// Events per chunk; the paper's index-size vs read-amplification tradeoff.
  size_t chunk_capacity = 4096;
  /// If set, sealed chunks beyond `max_resident_chunks` spill here.
  std::optional<std::string> spill_dir;
  /// Resident sealed-chunk budget per event type before spilling (FIFO).
  size_t max_resident_chunks = 64;
  /// Downsampled-tier windows built per sealed chunk (ascending; empty
  /// disables tiering). A resolution-aware scan whose resolution is a
  /// multiple of a tier window is answered from that tier without touching
  /// the raw rows (or the disk, for spilled chunks).
  std::vector<Timestamp> tier_windows = {60, 3600};
  /// Tier-0 (raw) retention: keep at most this many spilled chunks' raw
  /// files per event type; older raw files are deleted, leaving the chunk's
  /// aggregate tiers (and sidecar) to answer coarse scans. 0 = keep all raw
  /// data forever. Raw files are only dropped for chunks that have tiers;
  /// quarantined files are never touched (triage evidence).
  size_t tier0_retention_chunks = 0;
  /// Backoff schedule for transient spill I/O errors (reads and writes).
  /// Corruption/truncation is permanent and never retried.
  RetryPolicy spill_retry;
  /// Cap on `*.quarantine` files kept in `spill_dir`; when a new quarantine
  /// pushes the count past this, the oldest are deleted (triage keeps the
  /// newest evidence, disk usage stays bounded).
  size_t max_quarantine_files = 64;
  /// Test-only: invoked by Scan once per spill-file read, after the shard
  /// lock is released and before the disk read. Lets tests prove that slow
  /// spill I/O cannot block concurrent Appends.
  std::function<void()> spill_read_hook_for_testing;
};

/// \brief Chunked, time-indexed store of all archived events.
///
/// Thread-safe: the CEP data source appends from the ingest thread while the
/// explanation engine scans from worker threads. Locking is sharded per event
/// type, and scans only hold the shard lock long enough to snapshot chunk
/// handles — chunk loading, spill-file reads, and range filtering all run
/// outside the lock, so a scan never stalls appends (even of its own type)
/// on disk I/O.
class EventArchive : public EventSink {
 public:
  EventArchive(const EventTypeRegistry* registry, ArchiveOptions options = {});

  /// EventSink: archives one event. Errors are counted and logged, not thrown.
  void OnEvent(const Event& event) override;

  /// \brief EventSink: archives a batch, taking each touched type's shard
  /// lock once per batch instead of once per event, and moving the events
  /// into their chunks (the batch is owned). Errors are counted and logged.
  void OnEventBatch(EventBatch batch) override;

  /// Appends with error reporting (preferred in non-streaming code). Takes
  /// the event by value: rvalue callers move, lvalue callers copy as before.
  Status Append(Event event);

  /// \brief Zero-copy columnar scan: every chunk of `type` overlapping
  /// [interval.lower, interval.upper], as pinned column segments in time
  /// order (the interval is resolved by binary search on each chunk's ts
  /// column). Sealed resident chunks are shared without copying; spilled
  /// chunks deserialize straight into view-owned columns; only the mutable
  /// open tail is copied. This is the explanation hot path's entry point.
  ///
  /// Degrades rather than fails on unreadable spill files: transient I/O
  /// errors are retried per `ArchiveOptions::spill_retry`; a chunk that still
  /// cannot be read is quarantined (file renamed to `<path>.quarantine`,
  /// chunk excluded from future scans) and the view carries every healthy
  /// chunk. When `degradation` is non-null it receives exactly what was
  /// skipped; pass nullptr to ignore (skips are still logged).
  ///
  /// `cancel`, when non-null, bounds the retry backoff: an Explain running
  /// against a deadline must not sleep past it waiting on a flaky disk. An
  /// expired token stops further retry sleeps (the chunk quarantines as if
  /// the retries were exhausted); it does not abort reads already in flight.
  ///
  /// `resolution` declares the coarsest time granularity the caller can fold
  /// (e.g. the gcd of its aggregation windows). 0 means exact rows are
  /// required: the scan never substitutes tiers, and a chunk whose raw data
  /// was evicted by tier-0 retention is reported as resolution-degraded in
  /// `degradation` rather than silently approximated. With resolution > 0, a
  /// sealed chunk carrying a tier whose window divides the resolution is
  /// answered as a TierSegment (pre-aggregated, no disk read); chunks
  /// without a suitable tier still contribute raw rows, and only an evicted
  /// chunk with no suitable tier degrades the scan.
  Result<ScanView> ScanColumns(EventTypeId type, const TimeInterval& interval,
                               DegradationReport* degradation = nullptr,
                               const CancelToken* cancel = nullptr,
                               Timestamp resolution = 0) const;

  /// \brief All events of `type` with ts in the interval, in time order, as
  /// materialized rows. Row-materializing wrapper over ScanColumns: each event is
  /// rebuilt from the column segments (same degradation contract).
  Result<std::vector<Event>> Scan(EventTypeId type, const TimeInterval& interval,
                                  DegradationReport* degradation,
                                  const CancelToken* cancel = nullptr) const;
  Result<std::vector<Event>> Scan(EventTypeId type, const TimeInterval& interval) const {
    return Scan(type, interval, nullptr);
  }

  /// One event type's rows from a ScanAll.
  struct TypeScan {
    EventTypeId type = kInvalidEventType;
    std::vector<Event> events;
  };

  /// \brief Scan across every event type, in type-id order. Types with zero
  /// in-range events are skipped entirely (no empty placeholder entries);
  /// each returned entry carries its type id.
  Result<std::vector<TypeScan>> ScanAll(
      const TimeInterval& interval, DegradationReport* degradation = nullptr,
      const CancelToken* cancel = nullptr) const;

  /// Total archived events of a type.
  size_t CountEvents(EventTypeId type) const;

  /// Total archived events.
  size_t TotalEvents() const;

  /// Number of chunks (resident + spilled) for a type.
  size_t NumChunks(EventTypeId type) const;

  /// Number of append errors swallowed by OnEvent (out-of-order etc.).
  size_t append_errors() const { return append_errors_.load(std::memory_order_relaxed); }

  /// Spill reads re-attempted after a transient I/O error.
  size_t spill_read_retries() const {
    return spill_read_retries_.load(std::memory_order_relaxed);
  }
  /// Spill writes re-attempted after a transient I/O error.
  size_t spill_write_retries() const {
    return spill_write_retries_.load(std::memory_order_relaxed);
  }
  /// Chunks quarantined as unreadable (lifetime total).
  size_t quarantined_chunks() const {
    return quarantined_chunks_.load(std::memory_order_relaxed);
  }
  /// Spill writes that failed even after retries (chunk stayed resident).
  size_t spill_write_failures() const {
    return spill_write_failures_.load(std::memory_order_relaxed);
  }
  /// Scans that returned with at least one chunk skipped.
  size_t degraded_scans() const {
    return degraded_scans_.load(std::memory_order_relaxed);
  }
  /// Quarantine files deleted to enforce `max_quarantine_files`.
  size_t quarantine_evictions() const {
    return quarantine_evictions_.load(std::memory_order_relaxed);
  }
  /// Raw spill files deleted by tier-0 retention (lifetime total).
  size_t tier0_evictions() const {
    return tier0_evictions_.load(std::memory_order_relaxed);
  }
  /// Chunks answered from a downsampled tier instead of raw rows.
  size_t tier_segments_served() const {
    return tier_segments_served_.load(std::memory_order_relaxed);
  }

  /// \brief Checkpoint support: appends the archive's chunk index to `out`
  /// and writes every resident chunk's columns under `dir` (file per chunk).
  /// Spilled chunks are referenced by their spill path, so the checkpoint
  /// stores only their index entry; `spill_dir` is synced once before return
  /// to make their renames durable. Must not run concurrently with appends
  /// (scans are fine).
  ///
  /// Chunk files carry a per-checkpoint epoch (`chunk_<epoch>_<type>_<i>.col`,
  /// epoch = 1 + the highest epoch already in `dir`), so re-checkpointing into
  /// the same directory never overwrites files a previous MANIFEST still
  /// references. Returns the epoch used; once the caller has durably
  /// installed the new MANIFEST it passes that epoch to
  /// RemoveStaleCheckpointChunks to reclaim the superseded files.
  Result<uint64_t> CheckpointTo(const std::string& dir, BytesWriter* out) const;

  /// \brief Deletes checkpoint chunk files in `dir` whose epoch differs from
  /// `keep_epoch`. Call only after the MANIFEST referencing `keep_epoch` is
  /// durably in place — until then the stale files back the previous
  /// checkpoint. Best-effort; returns the first deletion error, if any.
  static Status RemoveStaleCheckpointChunks(const std::string& dir,
                                            uint64_t keep_epoch);

  /// \brief Restores a CheckpointTo snapshot into a freshly constructed
  /// archive (same registry, no events appended yet).
  Status RestoreFrom(BytesReader* in);

  const EventTypeRegistry& registry() const { return *registry_; }

 private:
  /// One event type's chunk list plus its lock. The shard vector itself is
  /// sized at construction and never resized, so shards can be addressed
  /// without any global lock.
  struct Shard {
    mutable std::mutex mu;
    std::vector<std::shared_ptr<Chunk>> chunks;
    size_t resident_sealed = 0;  ///< count of unspilled sealed chunks
    size_t spill_cursor = 0;     ///< next chunk index to consider spilling
    /// Consecutive failed spill attempts; backs off the per-seal retry storm
    /// a full disk would otherwise cause.
    size_t spill_failures_in_a_row = 0;
    /// Seals to skip before the next spill attempt (set after a failure).
    size_t spill_cooldown = 0;
  };

  /// A scan's view of one overlapping chunk, captured under the shard lock.
  /// Exactly one of resident / spilled / open_tail / tiers is populated.
  struct ChunkSnapshot {
    std::shared_ptr<const ChunkColumns> resident;  ///< sealed, in memory (pinned)
    std::shared_ptr<Chunk> spilled;  ///< sealed, on disk (read outside the lock)
    std::shared_ptr<const ChunkColumns> open_tail;  ///< open chunk: in-range rows, copied
    std::shared_ptr<const ChunkTiers> tiers;  ///< sealed, answered from a tier
    int tier_index = -1;                      ///< which tier of `tiers`
  };

  Status AppendLocked(Shard* shard, const Event& event);
  /// Spill housekeeping after a seal. Never fails the caller: a failed spill
  /// keeps the chunk resident, counts the failure, and arms a cooldown so a
  /// dead disk is not retried on every subsequent seal.
  void MaybeSpillLocked(Shard* shard, EventTypeId type);
  /// Tier-0 retention: drops the oldest spilled chunks' raw files beyond
  /// `tier0_retention_chunks`, keeping their tiers. Runs under the shard lock
  /// after spill housekeeping.
  void EnforceTierRetentionLocked(Shard* shard);
  /// Reads one spilled chunk's columns with retries; on terminal failure
  /// quarantines it and records the loss in `degradation`. Appends the
  /// in-range segment to `view` on success.
  void ReadSpillOrQuarantine(const std::shared_ptr<Chunk>& chunk,
                             const TimeInterval& interval, ScanView* view,
                             DegradationReport* degradation,
                             const CancelToken* cancel, size_t order) const;

  const EventTypeRegistry* registry_;  // not owned
  ArchiveOptions options_;
  std::vector<Shard> shards_;  // one per event type, fixed at construction
  std::atomic<size_t> append_errors_{0};
  std::atomic<size_t> spill_file_seq_{0};
  mutable std::atomic<size_t> spill_read_retries_{0};
  std::atomic<size_t> spill_write_retries_{0};
  mutable std::atomic<size_t> quarantined_chunks_{0};
  std::atomic<size_t> spill_write_failures_{0};
  mutable std::atomic<size_t> degraded_scans_{0};
  mutable std::atomic<size_t> quarantine_evictions_{0};
  std::atomic<size_t> tier0_evictions_{0};
  mutable std::atomic<size_t> tier_segments_served_{0};
};

}  // namespace exstream
