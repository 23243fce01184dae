// Write-ahead log for the ingest path (the durability half of the Fig. 1c
// front end).
//
// Accepted event batches are appended — before they reach the CEP engine or
// the archive — as CRC32-framed records in append-only segment files. After a
// crash, XStreamSystem::Recover restores the latest checkpoint and replays
// the WAL tail, making recovered match tables and archive contents
// bit-identical to an uncrashed run (wal_recovery_test).
//
// On-disk layout (`<dir>/wal-<base_seq, zero-padded>.seg`):
//
//   segment header:  u32 magic "EXWL", u32 version (1), u64 base_seq
//   record:          u32 magic "WREC", u64 first_seq, u32 event count,
//                    u32 payload length, u32 CRC32(payload), payload
//
// The payload is SerializeEvents(batch) — the archive's own v4 compressed
// columnar codec (with its v2 row fallback for mixed-type batches), so WAL
// bytes and spill bytes share one deserializer. A torn final record (crash mid-append)
// is detected by the frame bounds/CRC and tolerated; corruption before the
// tail is reported as data loss.
//
// Group-commit fsync policies trade durability for throughput:
//   kNone       — rely on OS writeback (fastest; loses the page cache on
//                 power failure, nothing on process crash).
//   kInterval   — a background flusher thread fsyncs every fsync_interval_ms
//                 (bounded loss window). The fsync happens off the append
//                 path — a disk flush takes milliseconds and must not stall
//                 producers — so Append never blocks on the disk. Flusher
//                 fsync failures surface through stats().sync_failures and
//                 the log, not through an Append status.
//   kEveryBatch — fsync per append (no loss window; slowest).
//
// One writer thread; Append/Sync/TruncateThrough are mutually serialized.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "event/event.h"

namespace exstream {

enum class WalFsyncPolicy { kNone, kInterval, kEveryBatch };

struct WalOptions {
  std::string dir;
  /// Rotation threshold: a segment that has grown past this starts a new one.
  size_t segment_bytes = 4u << 20;
  WalFsyncPolicy fsync = WalFsyncPolicy::kInterval;
  /// Group-commit window for kInterval.
  int64_t fsync_interval_ms = 50;
};

/// \brief Outcome of scanning one segment buffer (also the fuzzer surface).
struct WalSegmentScanStats {
  size_t records = 0;
  size_t events = 0;
  bool torn = false;        ///< scan stopped at an incomplete/corrupt frame
  std::string torn_error;   ///< what stopped it (empty when !torn)
};

/// \brief Scans the records of one segment buffer (header included), calling
/// `apply(first_seq, batch)` for each intact record. Stops at the first torn
/// or corrupt frame — everything before it is trusted (CRC-verified),
/// everything after is not.
WalSegmentScanStats ScanWalSegmentBuffer(
    std::string_view data,
    const std::function<void(uint64_t first_seq, EventBatch batch)>& apply);

/// \brief Whole-log replay statistics.
struct WalReplayStats {
  size_t segments = 0;
  size_t records = 0;
  size_t events_applied = 0;
  size_t events_skipped = 0;  ///< already covered by the checkpoint
  uint64_t next_seq = 0;      ///< first sequence number after the replayed tail
  bool torn_tail = false;     ///< a torn record (crash mid-append) was
                              ///< discarded; the replayed stream has no gap
};

/// \brief The append-only event-batch log.
class WriteAheadLog {
 public:
  /// Opens (creating if needed) the log directory. Existing segments are
  /// scanned to find the next sequence number; new appends always start a
  /// fresh segment (old segments are never rewritten).
  static Result<std::unique_ptr<WriteAheadLog>> Open(WalOptions options);

  ~WriteAheadLog();

  /// \brief Appends one batch as a single record. `first_seq` is the global
  /// sequence number of batch[0]; it must not run backwards. Honors injected
  /// write faults (ENOSPC, torn writes) via the global FaultInjector.
  Status Append(uint64_t first_seq, const EventBatch& events);

  /// Forces an fsync of the active segment (and any sealed segments still
  /// awaiting their background fsync) regardless of policy.
  Status Sync();

  /// \brief Deletes closed segments whose records all have seq < `seq`
  /// (i.e. are fully covered by a checkpoint). The active segment survives,
  /// and so does anything at or past the replication pin (SetTruncatePin).
  /// Returns the number of segments deleted.
  Result<size_t> TruncateThrough(uint64_t seq);

  /// \brief Replication pin: segments containing records with seq >= `seq`
  /// survive TruncateThrough even when a checkpoint covers them, so a
  /// downstream parent that has not acknowledged them can still be served a
  /// resume from this log after a crash. UINT64_MAX (the initial state after
  /// ClearTruncatePin) pins nothing.
  void SetTruncatePin(uint64_t seq);
  void ClearTruncatePin();

  /// \brief Replays every record with events at seq >= `from_seq`, in order.
  /// Records partially below `from_seq` are sliced. A torn tail on the final
  /// segment is tolerated; a torn/corrupt frame on an earlier segment is a
  /// Corruption error (there would be a gap in the replayed stream).
  static Result<WalReplayStats> Replay(
      const std::string& dir, uint64_t from_seq,
      const std::function<void(EventBatch batch)>& apply);

  /// Same, but the callback also receives the sequence number of batch[0]
  /// (after any slicing) — recovery paths that rebuild replication state need
  /// to know where each replayed batch sits in the global stream.
  static Result<WalReplayStats> ReplayWithSeq(
      const std::string& dir, uint64_t from_seq,
      const std::function<void(uint64_t first_seq, EventBatch batch)>& apply);

  /// First unused sequence number, per the segment scan at Open time.
  uint64_t next_seq() const { return next_seq_; }

  struct Stats {
    uint64_t records_appended = 0;
    uint64_t events_appended = 0;
    uint64_t bytes_appended = 0;
    uint64_t append_failures = 0;
    uint64_t syncs = 0;
    uint64_t sync_failures = 0;
    uint64_t rotations = 0;
    uint64_t segments_deleted = 0;
  };
  Stats stats() const;

  const std::string& dir() const { return options_.dir; }

 private:
  explicit WriteAheadLog(WalOptions options) : options_(std::move(options)) {}

  Status RotateLocked(uint64_t base_seq);
  Status SyncLocked();
  void FlusherLoop();

  WalOptions options_;
  mutable std::mutex mu_;
  FILE* file_ = nullptr;            // active segment (null until first append)
  /// A torn/short append left garbage at the active segment's tail; the next
  /// append rotates to a fresh segment instead of writing after it.
  bool active_poisoned_ = false;
  std::string active_path_;
  uint64_t active_base_seq_ = 0;
  size_t active_bytes_ = 0;
  int64_t last_sync_ms_ = 0;        // steady-clock ms of the last fsync
  uint64_t next_seq_ = 0;
  /// TruncateThrough clamp (SetTruncatePin); UINT64_MAX pins nothing.
  uint64_t truncate_pin_ = UINT64_MAX;
  /// Closed + active segments, as (base_seq, path), ascending.
  std::vector<std::pair<uint64_t, std::string>> segments_;
  Stats stats_;
  /// Bytes appended since the last fsync (tells the flusher to skip idle
  /// intervals).
  bool dirty_ = false;
  /// Sealed segments whose fsync+close is owed to the flusher (kInterval
  /// rotation does not pay for the old segment's fsync inline).
  std::vector<std::pair<std::string, FILE*>> sealed_pending_;
  /// Group-commit flusher (kInterval only; see FlusherLoop).
  std::thread flusher_;
  std::condition_variable flusher_cv_;
  bool stop_flusher_ = false;
  /// True while FlusherLoop is fsyncing snapshotted FILE*s with mu_
  /// released. Sync()/TruncateThrough wait for the pass to finish before
  /// closing any handle, so the flusher never touches a closed FILE*.
  bool flusher_inflight_ = false;
  std::condition_variable flusher_done_cv_;
};

}  // namespace exstream
