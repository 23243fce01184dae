// IngestGuard: the front-end hardening layer between the data source and the
// durable ingest pipeline (WAL -> engine + archive).
//
// A hostile or buggy producer must not be able to wedge monitoring: malformed
// events (unknown type, wrong arity, string-vs-number confusion, non-finite
// doubles, sentinel timestamps) are rejected into a bounded `*.quarantine`
// event log with per-reason counters, instead of corrupting the archive or
// aborting ingestion. Mildly out-of-order streams are tolerated via a
// lateness watermark: events are held back up to `lateness_slack` ticks and
// released in timestamp order; events arriving later than that are rejected
// as late (they can no longer be emitted in order).
//
// Everything released by the guard is orderly and well-formed — exactly the
// stream the WAL logs and a recovery replays.

#pragma once

#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "event/event.h"
#include "event/registry.h"

namespace exstream {

/// \brief Why the guard rejected an event.
enum class RejectReason {
  kUnknownType,
  kArityMismatch,
  kValueKindMismatch,  ///< string value on a numeric attribute or vice versa
  kNonFiniteValue,     ///< NaN/Inf double on a declared-double attribute
  kInvalidTimestamp,   ///< INT64_MIN/MAX sentinel (the "NaN timestamp")
  kLate,               ///< older than the lateness watermark allows
};

/// \brief Per-reason reject counters (the ingest-health surface).
struct RejectReport {
  size_t unknown_type = 0;
  size_t arity_mismatch = 0;
  size_t value_kind_mismatch = 0;
  size_t non_finite = 0;
  size_t invalid_timestamp = 0;
  size_t late = 0;
  size_t reject_files_written = 0;   ///< `rejects-*.quarantine` files emitted
  size_t reject_file_evictions = 0;  ///< of those, later evicted by the cap

  size_t total() const {
    return unknown_type + arity_mismatch + value_kind_mismatch + non_finite +
           invalid_timestamp + late;
  }
  std::string ToString() const;
};

struct IngestGuardOptions {
  /// Validate events against the registry schema (off = trust the producer).
  bool validate = true;
  /// Out-of-order tolerance: hold events up to this many ticks behind the
  /// maximum seen timestamp and release them sorted. nullopt = no reordering
  /// (events pass through in arrival order, like the pre-guard pipeline).
  std::optional<Timestamp> lateness_slack;
  /// Where rejected events are logged (`rejects-<n>.quarantine`, readable by
  /// ReadEventsFile). nullopt = count only.
  std::optional<std::string> reject_dir;
  /// Cap on quarantine files in `reject_dir` (oldest-first eviction).
  size_t max_reject_files = 64;
  /// Rejected events buffered before a quarantine file is cut.
  size_t reject_file_events = 1024;
};

/// \brief Validating, reordering admission filter. One producer thread calls
/// Admit/Drain; the report is readable from any thread.
class IngestGuard {
 public:
  IngestGuard(const EventTypeRegistry* registry, IngestGuardOptions options);
  ~IngestGuard();

  /// \brief Filters (and, with a lateness slack, reorders) one batch.
  /// Returns the events released for processing — with reordering active
  /// they come back in non-decreasing timestamp order, possibly including
  /// events from earlier batches and withholding recent ones.
  EventBatch Admit(EventBatch batch);

  /// Releases everything still buffered (stream end / checkpoint), sorted,
  /// and flushes any partial reject log.
  EventBatch Drain();

  /// Events currently held back by the watermark.
  size_t buffered() const { return buffer_.size(); }

  RejectReport report() const;

  /// Checkpoint support: watermark state + held-back events + counters.
  void SaveState(BytesWriter* out) const;
  Status RestoreState(BytesReader* in);

 private:
  /// Schema validation only (no lateness); `why` set on failure.
  bool Validate(const Event& event, RejectReason* why) const;
  void Reject(const Event& event, RejectReason why);
  void FlushRejectLogLocked();

  const EventTypeRegistry* registry_;  // not owned
  IngestGuardOptions options_;

  // Reject bookkeeping (mu_ guards it: Explain reads the report from worker
  // threads while the producer keeps rejecting).
  mutable std::mutex mu_;
  RejectReport report_;
  std::vector<Event> reject_buffer_;
  size_t reject_file_seq_ = 0;

  // Lateness machinery; producer-thread only.
  EventBatch buffer_;
  Timestamp watermark_ = std::numeric_limits<Timestamp>::min();
  Timestamp last_released_ = std::numeric_limits<Timestamp>::min();
};

}  // namespace exstream
