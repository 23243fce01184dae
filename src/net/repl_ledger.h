// ReplLedger: the per-(tenant, child) durable watermark ledger behind the
// multi-child ReplicationReceiver.
//
// Each child session owns its own seq space; the ledger records, per
// (tenant, child) identity:
//
//   applied      events applied to the tenant's system from this child
//   gap_events   events the child shed before they reached the parent
//   quota_shed   events the parent shed over the tenant's ingest quota
//
// and the identity's resume watermark is the sum of the three — "the next
// seq of yours I have accounted for", whether the accounting was an apply or
// a disclosed loss.
//
// Crash consistency (the sync-then-ack contract): before a frame's events are
// applied, the ledger persists a *pending* marker {child, count} for the
// tenant; after the tenant's WAL fsyncs, the ledger persists the advanced
// `applied` and clears the marker — and only then may the ACK leave the
// parent. Every persist is WriteFileAtomic (temp + fsync + rename + directory
// fsync), so the file on disk always reflects a state at or before the last
// ACK sent. On recovery, ReconcileTenant compares the tenant system's
// recovered seq S against the ledger sum L: a pending marker resolves to
// "landed" iff S == L + count (one frame is one atomic WAL record, so there
// is no in-between), surplus S - L is parked as an unclaimed pool the
// tenant's next child HELLO absorbs, and a deficit only clamps `applied`
// down — the un-acked events are still spooled at the child and will be
// re-applied.
//
// File format v2 ("EXRG" magic, version, CRC32 body): per-entry
// tenant/child/applied/gap/quota rows plus pending markers. Any other
// version, including the retired 12-byte v1 single-child file, fails Load.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/result.h"

namespace exstream {

class ReplLedger {
 public:
  struct Entry {
    uint64_t applied = 0;
    uint64_t gap_events = 0;
    uint64_t quota_shed = 0;
    /// Next seq of this child not yet accounted for.
    uint64_t watermark() const { return applied + gap_events + quota_shed; }
  };

  /// Sets the backing file (nullopt = memory only). Call once, before Load().
  void Configure(std::optional<std::string> path);

  /// Loads the backing file if it exists. A missing file is a fresh ledger.
  Status Load();

  /// Snapshot of one identity's entry (zero entry when unknown).
  Entry Get(const std::string& tenant, const std::string& child) const;

  /// All entries, sorted by (tenant, child).
  std::vector<std::tuple<std::string, std::string, Entry>> Snapshot() const;

  /// Sum of every identity's watermark plus unclaimed pools — the aggregate
  /// watermark (exact for single-child receivers).
  uint64_t AggregateWatermark() const;

  /// Lifetime disclosed losses for `tenant`: child gaps + parent quota sheds.
  /// Drives restart-time AddExternalShed deltas.
  uint64_t TenantShedTotal(const std::string& tenant) const;

  /// \brief Opens (tenant, child) at HELLO time: creates the entry if absent
  /// and folds the tenant's unclaimed pool of recovered-but-unattributed
  /// applied events into it — the first child to connect inherits them,
  /// which is exactly the single-child semantics the pool came from. Returns
  /// the identity's resume watermark.
  uint64_t Open(const std::string& tenant, const std::string& child);

  /// Records `events` the child skipped past (child-shed); persisted.
  Status AddGap(const std::string& tenant, const std::string& child,
                uint64_t events);

  /// Records `events` shed by the parent over the tenant's quota; persisted.
  /// The watermark advances past them so the child never retries a frame the
  /// parent has chosen to drop.
  Status AddQuotaShed(const std::string& tenant, const std::string& child,
                      uint64_t events);

  /// Persists a pending-apply marker for the tenant (fsynced) — must succeed
  /// before the frame's events reach the tenant system.
  Status BeginPending(const std::string& tenant, const std::string& child,
                      uint64_t count);

  /// Advances `applied` and clears the pending marker in memory; the durable
  /// write is CommitDurable(), after the WAL fsync.
  void MarkApplied(const std::string& tenant, const std::string& child,
                   uint64_t count);

  /// Persists the current state if anything changed since the last persist.
  /// The caller must not ACK until this returns OK.
  Status CommitDurable();

  struct ReconcileResult {
    bool pending_landed = false;   ///< pending marker resolved as applied
    uint64_t unclaimed = 0;        ///< recovered events no child entry claims
    uint64_t clamped = 0;          ///< ledger rolled back to the recovered seq
  };

  /// Reconciles the ledger against `recovered_seq`, the tenant system's
  /// next_seq() after recovery. See the file comment for the algorithm.
  ReconcileResult ReconcileTenant(const std::string& tenant,
                                  uint64_t recovered_seq);

 private:
  using Key = std::pair<std::string, std::string>;  // (tenant, child)

  Entry& GetLocked(const std::string& tenant, const std::string& child);
  Status PersistLocked();
  std::string EncodeLocked() const;

  mutable std::mutex mu_;
  std::optional<std::string> path_;
  std::map<Key, Entry> entries_;
  /// At most one in-flight apply per tenant (the tenant apply lock serializes
  /// sessions), so one marker per tenant suffices.
  std::map<std::string, std::pair<std::string, uint64_t>> pending_;
  /// Recovered-but-unattributed applied events, per tenant; folded into the
  /// first child to Open().
  std::map<std::string, uint64_t> unclaimed_applied_;
  bool dirty_ = false;
};

}  // namespace exstream
