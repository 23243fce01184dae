// ReplicationSender: the child half of parent/child replication.
//
// A child XStreamSystem feeds every WAL-durable batch into the sender
// (OnBatch). The sender spools events in sequence order, seals the spool into
// *replication chunks* of `chunk_events` events, and streams them — plus the
// unsealed spool tail — to the parent's ReplicationReceiver over the EXRP
// frame protocol (net/frame.h). Replication chunks are deliberately the raw
// seq-contiguous event stream, not the archive's per-type chunks: the parent
// applies them through its own OnEventBatch in arrival order, so its engine,
// archive, and Explain results are bit-identical to a single-node run over
// the same stream.
//
// Delivery contract:
//  - Acked data is exactly-once: the parent's ACK cursor (`ack_seq`) is a
//    durable watermark; on reconnect the HELLOACK resume watermark trims
//    everything below it and the parent dedupes any overlap by seq.
//  - Unacked data is at-least-once: chunks are retransmitted after every
//    reconnect until acked.
//  - The pending-chunk queue is bounded (`max_pending_chunks`); during a long
//    parent outage the oldest unacked chunks are shed (counted in stats(),
//    surfaced through fault_stats() and the parent's DegradationReport via
//    the seq gap the parent observes).
//
// Crash-resume: pin_seq() — max(acked watermark, shed floor) — is installed
// as the WAL's truncate pin before every checkpoint truncation, so the WAL
// keeps every segment the parent might still need. After a child crash,
// XStreamSystem::Recover replays the surviving WAL from its oldest record
// back into OnBatch, rebuilding the spool/pending state; the parent's resume
// watermark then discards whatever it already has.
//
// The sender runs one background thread: connect (decorrelated-jitter
// backoff, common/retry), HELLO/HELLOACK handshake, stream frames, poll ACKs.
// A dead or partitioned parent never blocks ingest — OnBatch only ever takes
// the spool mutex, and total sender memory is bounded by
// max_pending_chunks + chunk_events.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "event/event.h"
#include "net/frame.h"
#include "net/socket.h"

namespace exstream {

struct ReplicationSenderOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Tenant label; the receiver rejects a HELLO for a different tenant.
  std::string tenant = "default";
  /// This child's identity in HELLO frames (logs/debugging).
  std::string node_id = "child";
  /// Spool seal threshold: events per replication chunk.
  size_t chunk_events = 256;
  /// Bounded pending queue: unacked sealed chunks beyond this shed oldest.
  size_t max_pending_chunks = 64;
  int connect_timeout_ms = 1000;
  /// Recv timeout for the HELLOACK and for ACK polling while idle.
  int io_timeout_ms = 2000;
  /// Idle ACK-poll interval; also bounds how fast the thread notices Stop().
  int idle_poll_ms = 20;
  /// Reconnect backoff (decorrelated jitter; max_attempts is ignored — the
  /// sender retries until stopped).
  RetryPolicy reconnect{/*max_attempts=*/0, /*base_backoff_ms=*/10.0,
                        /*max_backoff_ms=*/500.0,
                        BackoffMode::kDecorrelatedJitter};
};

class ReplicationSender {
 public:
  explicit ReplicationSender(ReplicationSenderOptions options);
  ~ReplicationSender();

  ReplicationSender(const ReplicationSender&) = delete;
  ReplicationSender& operator=(const ReplicationSender&) = delete;

  /// Starts the background sender thread (idempotent).
  void Start();
  /// Stops and joins the thread. Spooled-but-unacked data stays in memory
  /// (and in the WAL, via the truncate pin) for the next session.
  void Stop();

  /// \brief Feeds one WAL-durable batch. `first_seq` is the global sequence
  /// number of batch[0]; calls must be in order on one thread (the system's
  /// applying thread). Batches at or below the already-spooled cursor are
  /// deduped — WAL replay after recovery can safely re-feed everything.
  void OnBatch(uint64_t first_seq, const EventBatch& batch);

  /// \brief Lowest sequence number the parent might still need from this
  /// child: max(acked watermark, shed floor). The WAL must keep segments at
  /// or past this (WriteAheadLog::SetTruncatePin).
  uint64_t pin_seq() const;

  /// Blocks until everything spooled so far is acked by the parent (or the
  /// timeout passes). Returns true on full drain.
  bool WaitForDrain(int timeout_ms);

  struct Stats {
    uint64_t chunks_sealed = 0;
    uint64_t chunks_sent = 0;     ///< CHUNK frames put on the wire (retries count)
    uint64_t tail_frames_sent = 0;
    uint64_t events_spooled = 0;
    uint64_t acked_seq = 0;       ///< parent durable cursor
    uint64_t shed_chunks = 0;     ///< sealed chunks dropped by the bounded queue
    uint64_t shed_events = 0;
    uint64_t reconnects = 0;      ///< sessions torn down by link errors
    uint64_t connect_failures = 0;
    uint64_t hello_rejects = 0;   ///< HELLOACKs with accepted=false
    bool connected = false;
  };
  Stats stats() const;

 private:
  /// One sealed, unacked replication chunk.
  struct PendingChunk {
    uint64_t chunk_id = 0;
    uint64_t first_seq = 0;
    uint32_t count = 0;
    std::string payload;  ///< SerializeEvents(events)
    bool sent = false;    ///< sent in the current session (reset on reconnect)
  };

  void SenderLoop();
  /// Connects and completes the HELLO/HELLOACK handshake; on success applies
  /// the resume watermark and returns the connected socket.
  Result<TcpSocket> ConnectAndHandshake(FrameDecoder* decoder);
  /// Reads frames until an ACK arrives or `timeout_ms` passes. DeadlineExceeded
  /// means "no data" (the session stays up); other errors end the session.
  Status PollAcks(TcpSocket* sock, FrameDecoder* decoder, int timeout_ms);
  void ApplyAckLocked(const AckFrame& ack);
  void SealLocked();
  /// Interruptible sleep; returns false when Stop() was requested.
  bool SleepUnlessStopped(double ms);

  const ReplicationSenderOptions options_;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  std::deque<PendingChunk> pending_;
  std::vector<Event> spool_;       ///< unsealed tail, seq-contiguous
  uint64_t spool_first_seq_ = 0;   ///< seq of spool_[0]
  uint64_t next_expected_ = 0;     ///< seq after the last spooled event
  bool spool_initialized_ = false;
  uint64_t next_chunk_id_ = 1;
  uint64_t acked_seq_ = 0;
  uint64_t shed_floor_ = 0;        ///< seq after the last shed chunk
  uint64_t tail_sent_seq_ = 0;     ///< spool end covered by the last WALTAIL
  Stats stats_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace exstream
