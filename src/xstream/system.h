// XStreamSystem: the integrated architecture of Fig. 1(c) / Fig. 18.
//
//   data source -> ingest guard -> WAL -> CEP engine -> visualization
//                                      -> archive    -> explanation engine
//
// Events stream through OnEvent into both the CEP engine and the archive;
// per-event processing latency is tracked so the Appendix-C efficiency
// experiments can quantify how much a concurrently running explanation
// analysis delays monitoring.
//
// Durability (all opt-in, off by default so the hot path is unchanged):
//  - an IngestGuard validates/reorders the raw stream and quarantines
//    malformed events instead of aborting;
//  - a write-ahead log records every released batch before it is applied, so
//    a crash loses at most the tail the fsync policy allows;
//  - Checkpoint() snapshots engine + archive + partition state and truncates
//    the WAL; Recover() restores the snapshot and replays the WAL tail,
//    reproducing the uncrashed state bit-for-bit;
//  - a bounded ingest queue with Block/ShedOldest/ShedNewest backpressure
//    decouples producers from processing; shed counts surface in
//    fault_stats() and in the DegradationReport of later explanations.

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "archive/archive.h"
#include "cep/engine.h"
#include "common/histogram.h"
#include "detect/streaming_detector.h"
#include "explain/engine.h"
#include "explain/explain_cache.h"
#include "explain/partition_table.h"
#include "event/stream.h"
#include "features/incremental.h"
#include "io/wal.h"
#include "net/replication_sender.h"
#include "xstream/ingest_guard.h"

namespace exstream {

/// \brief What to do when the bounded ingest queue is full.
enum class BackpressurePolicy {
  kBlock,      ///< wait up to `block_deadline_ms`, then shed the new batch
  kShedOldest, ///< drop queued batches until the new one fits
  kShedNewest, ///< drop the incoming batch
};

/// \brief Write-ahead-log configuration (wal_dir unset = no WAL).
struct DurabilityOptions {
  /// Directory for WAL segments; unset disables logging entirely.
  std::optional<std::string> wal_dir;
  WalFsyncPolicy fsync = WalFsyncPolicy::kInterval;
  int64_t fsync_interval_ms = 50;
  size_t wal_segment_bytes = 4u << 20;
};

/// \brief Bounded ingest queue configuration (capacity 0 = synchronous
/// ingest on the caller's thread, no queue, no shedding).
struct OverloadOptions {
  size_t queue_capacity = 0;  ///< max queued batches
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// kBlock only: longest a producer may stall on a full queue before the
  /// incoming batch is shed anyway (overload must not become deadlock).
  int64_t block_deadline_ms = 100;
};

/// \brief Continuous-serving layer: streaming detection, incremental
/// features, and the keyed Explain result cache (all opt-in; everything off
/// keeps the pre-serving behavior bit for bit).
struct ServingOptions {
  /// Maintain per-type in-memory tails as batches apply, so Explains over
  /// recent intervals skip archive scans (cold prefixes still backfill).
  bool incremental_features = false;
  /// Trailing time kept per type in the incremental tails (0 = unbounded).
  Timestamp incremental_retention = 0;
  /// Completed Explain reports cached, keyed by (annotation, query, column,
  /// options fingerprint, data watermark, degradation state) with
  /// single-flight dedup. 0 disables the cache.
  size_t explain_cache_capacity = 0;
  /// Online z-score/EWMA detection over the monitored series (set = on).
  std::optional<StreamingDetectorOptions> detector;
  /// Query the detector monitors (name passed to AddQuery); empty = the
  /// first query added.
  std::string detect_query;
  /// Match-table column the detector observes (the visualized attribute).
  std::string detect_column;
  /// Auto-run Explain on every finalized detector anomaly, on a background
  /// worker (results via TakeAutoExplanations). Requires `detector`.
  bool auto_explain = false;
  /// Bounded queue between detector and the auto-explain worker; overflow
  /// drops the oldest pending anomaly (counted).
  size_t auto_queue_capacity = 16;
  /// Completed auto-explanations retained (oldest dropped beyond this).
  size_t max_auto_explanations = 32;
};

/// \brief System-level configuration.
struct XStreamConfig {
  ArchiveOptions archive;
  /// Explanation pipeline knobs; `explain.num_threads` sizes the worker pool
  /// every Explain/ExplainAsync call analyzes with (1 = serial).
  ExplainOptions explain;
  /// CEP engine options (cep/engine.h).
  CepEngineOptions ingest;
  /// Front-end validation / lateness tolerance / reject quarantine.
  IngestGuardOptions guard;
  /// Write-ahead logging (off unless wal_dir is set).
  DurabilityOptions durability;
  /// Bounded-queue overload protection (off unless queue_capacity > 0).
  OverloadOptions overload;
  /// Parent/child replication: when set, every WAL-durable batch also streams
  /// to the parent node at replication->host:port (net/replication_sender.h).
  std::optional<ReplicationSenderOptions> replication;
  /// Continuous explanation serving (detection, incremental features, result
  /// cache) — all off by default.
  ServingOptions serving;
  /// Latency histogram range (seconds).
  double latency_histogram_max = 0.1;
};

/// \brief The full CEP-monitoring + explanation system.
class XStreamSystem : public EventSink {
 public:
  XStreamSystem(const EventTypeRegistry* registry, XStreamConfig config = {});
  ~XStreamSystem() override;

  /// Registers a monitoring query (Fig. 3 syntax).
  Result<QueryId> AddQuery(std::string_view text, std::string name);

  /// EventSink: a batch of one through OnEventBatch.
  void OnEvent(const Event& event) override;

  /// \brief EventSink: the batched throughput path. The guard filters the
  /// batch, the WAL logs what survived, then the engine evaluates it and
  /// the archive takes ownership
  /// of the events — no per-event copy. Latency histograms record the
  /// per-event average of each batch.
  void OnEventBatch(EventBatch batch) override;

  /// EventSink: flushes the lateness buffer and drains the ingest queue.
  void OnStreamEnd() override;

  /// \brief Releases everything the guard holds and waits for the ingest
  /// queue to drain. After Flush() the engine/archive reflect every event
  /// admitted so far. This is a visibility barrier, not a durability point:
  /// the WAL fsyncs on its own policy schedule (and on shutdown/Checkpoint),
  /// so callers that need bytes on disk use Checkpoint() or wal()->Sync().
  void Flush();

  /// \brief Snapshots the complete monitoring state (engine runs, interners,
  /// match tables, archive chunks, partition records, guard watermarks) into
  /// `dir`, then truncates WAL segments the snapshot covers.
  ///
  /// The manifest is written atomically, so a crash mid-checkpoint leaves
  /// the previous checkpoint (and the full WAL) intact. Must not race with
  /// ingestion: callers pause producers first (Flush() is implied).
  Status Checkpoint(const std::string& dir);

  struct RecoveryReport {
    bool manifest_loaded = false;    ///< a valid checkpoint manifest was found
    uint64_t checkpoint_seq = 0;     ///< WAL sequence the manifest covers
    WalReplayStats wal;              ///< replay of the tail past the manifest
  };

  /// \brief Restores a Checkpoint() snapshot from `dir` (pass "" to recover
  /// from the WAL alone) and replays the WAL tail. The system must be fresh:
  /// same queries added in the same order, no events ingested.
  Result<RecoveryReport> Recover(const std::string& checkpoint_dir);

  CepEngine& engine() { return engine_; }
  const CepEngine& engine() const { return engine_; }
  EventArchive& archive() { return archive_; }
  PartitionTable& partitions() { return partitions_; }

  /// The guard's reject counters (malformed / late events).
  RejectReport reject_report() const { return guard_.report(); }

  /// WAL handle for stats inspection; nullptr when durability is off.
  const WriteAheadLog* wal() const { return wal_.get(); }

  /// Fsyncs the WAL now (no-op without one). The replication receiver calls
  /// this before acking so an ACK is a durability promise.
  Status SyncWal() { return wal_ != nullptr ? wal_->Sync() : Status::OK(); }

  /// Replication sender handle for stats/drain; nullptr when replication is
  /// off.
  ReplicationSender* replication() { return repl_sender_.get(); }

  /// Sequence number of the next event to release — the count of events
  /// admitted so far (and, with a WAL, the WAL's cursor).
  uint64_t next_seq() const { return next_seq_; }

  /// Valid events dropped by queue shedding so far.
  size_t shed_events() const { return shed_events_.load(); }

  /// \brief Records events lost *upstream* of this system — a child node
  /// shed them before they could replicate here. They join the shed count so
  /// every later Explain discloses the incomplete coverage in its
  /// DegradationReport, exactly like locally shed events.
  void AddExternalShed(size_t events) { shed_events_ += events; }

  /// Rebuilds partition-table records from a query's match table.
  Status IndexPartitions(QueryId query, std::map<std::string, std::string> dimensions);

  /// Monitored-series provider over one query's match table.
  SeriesProvider MakeSeriesProvider(QueryId query, std::string column) const;

  /// \brief Runs the explanation pipeline synchronously.
  ///
  /// If ingest shed or rejected events before the analysis, the counts are
  /// folded into the report's DegradationReport (shedding marks the
  /// explanation degraded; rejects are informational).
  ///
  /// \param annotation the user's I_A / I_R annotation
  /// \param monitor_query the query whose visualization was annotated
  /// \param column the visualized derived attribute
  Result<ExplanationReport> Explain(const AnomalyAnnotation& annotation,
                                    QueryId monitor_query, const std::string& column);

  /// Same, on a background thread — monitoring keeps running (Appendix C).
  std::future<Result<ExplanationReport>> ExplainAsync(
      const AnomalyAnnotation& annotation, QueryId monitor_query,
      const std::string& column);

  /// True while at least one explanation is executing.
  bool explanation_active() const { return explanations_running_.load() > 0; }

  /// Incremental feature tails; nullptr when serving.incremental_features is
  /// off. Read-only surface for stats and direct FeatureBuilder use.
  const IncrementalFeatureState* incremental() const { return incremental_.get(); }

  /// Explain result cache; nullptr when serving.explain_cache_capacity == 0.
  ExplainResultCache* explain_cache() { return explain_cache_.get(); }
  const ExplainResultCache* explain_cache() const { return explain_cache_.get(); }

  /// Streaming detector; nullptr until the detect query is added (or when
  /// serving.detector is unset).
  StreamingDetector* detector() { return detector_.get(); }
  const StreamingDetector* detector() const { return detector_.get(); }

  /// \brief Count of events applied so far, published by the applying thread
  /// after each batch lands in engine + archive. This is the cache key's data
  /// version: any advance invalidates previously cached explanations. Under
  /// concurrent ingest a reader may observe the pre-batch value for the
  /// in-flight batch (one-batch staleness; quiesce with Flush() for exact
  /// reads).
  uint64_t data_watermark() const {
    return data_watermark_.load(std::memory_order_acquire);
  }

  /// \brief One completed auto-triggered explanation.
  struct AutoExplanation {
    StreamAnomaly anomaly;
    std::shared_ptr<const Result<ExplanationReport>> report;
  };

  /// Drains completed auto-explanations (serving.auto_explain).
  std::vector<AutoExplanation> TakeAutoExplanations();

  /// Auto-explanations completed since start.
  size_t auto_explains_completed() const { return auto_explains_completed_.load(); }
  /// Detector anomalies dropped by the bounded auto-explain queue.
  size_t auto_anomalies_dropped() const { return auto_anomalies_dropped_.load(); }

  /// \brief Blocks until every detector anomaly emitted so far has been
  /// auto-explained (no-op without auto-explain). Call after Flush() so the
  /// detector has seen the full stream.
  void DrainAutoExplains();

  /// \brief Closes every detector excursion still open and forwards the
  /// resulting anomalies to the auto-explain worker. An excursion whose
  /// series stays elevated through the last event never sees the cooldown
  /// that normally closes it; this is the end-of-stream hook that flushes
  /// those incidents. Call after the final Flush() and before
  /// DrainAutoExplains(); not part of DrainAutoExplains itself because
  /// draining is legal mid-stream, where force-closing live excursions would
  /// split one incident into several. Returns the number of excursions
  /// closed (no-op returning 0 without a detector).
  size_t FinalizeDetector();

  /// Per-event processing latency while no explanation was running.
  const Histogram& idle_latency() const { return idle_latency_; }
  /// Per-event processing latency while an explanation was running.
  const Histogram& busy_latency() const { return busy_latency_; }

  /// \brief Resilience counters across the ingest front-end, WAL, and
  /// archive — the system's fault-health metrics surface.
  struct FaultStats {
    size_t spill_read_retries = 0;   ///< transient read faults retried away
    size_t spill_write_retries = 0;  ///< transient write faults retried away
    size_t spill_write_failures = 0; ///< spills abandoned (chunk kept resident)
    size_t quarantined_chunks = 0;   ///< chunks renamed *.quarantine
    size_t degraded_scans = 0;       ///< scans that returned partial data
    size_t quarantine_evictions = 0; ///< quarantine files evicted by the cap
    size_t rejected_events = 0;      ///< malformed/late events quarantined
    size_t shed_events = 0;          ///< valid events dropped by backpressure
    size_t shed_batches = 0;         ///< batches those events arrived in
    size_t wal_append_failures = 0;  ///< WAL appends that failed (I/O)
    size_t wal_sync_failures = 0;    ///< fsyncs that failed
    size_t repl_shed_events = 0;     ///< events dropped by the bounded
                                     ///< replication queue (parent outage)
    size_t repl_shed_chunks = 0;     ///< replication chunks those events filled
    size_t repl_reconnects = 0;      ///< replication sessions torn down by
                                     ///< link faults
  };
  FaultStats fault_stats() const;

 private:
  /// The processing stage: engine + archive + latency histograms. Runs on
  /// the caller with no queue, on the worker thread otherwise.
  void ApplyBatch(EventBatch batch);
  /// WAL-logs a released batch and hands it to the queue or ApplyBatch.
  void Dispatch(EventBatch released);
  void Enqueue(EventBatch batch);
  void WorkerLoop();
  /// Blocks until the queue is empty and the worker idle.
  void DrainQueue();
  /// The uncached pipeline body (what Explain wraps with the result cache).
  Result<ExplanationReport> ExplainUncached(const AnomalyAnnotation& annotation,
                                            QueryId monitor_query,
                                            const std::string& column);
  /// Folds the scan-health counters into the cache key's degradation state.
  uint64_t DegradationStateFingerprint() const;
  /// Installs the streaming detector on the engine's match callback.
  void BindDetector(QueryId query, const std::string& name);
  /// Moves finalized detector anomalies into the auto-explain queue.
  void ForwardDetectorAnomalies();
  void AutoExplainLoop();

  const EventTypeRegistry* registry_;  // not owned
  XStreamConfig config_;
  EventArchive archive_;
  CepEngine engine_;
  PartitionTable partitions_;
  IngestGuard guard_;
  std::unique_ptr<WriteAheadLog> wal_;
  /// Child half of parent/child replication (null when off). Fed by
  /// ApplyBatch with WAL-durable batches; its pin_seq() clamps WAL
  /// truncation at Checkpoint time.
  std::unique_ptr<ReplicationSender> repl_sender_;
  /// True while Recover() replays the WAL tail: replayed batches are already
  /// on disk, so ApplyBatch must not re-append them to the live log (that
  /// would duplicate the tail and desync the sequence cursor).
  std::atomic<bool> replaying_{false};
  /// Sequence number of the next event to release (== events released so
  /// far); WAL records are stamped with it. Producer-thread only.
  uint64_t next_seq_ = 0;
  /// Query texts in AddQuery order, for checkpoint-manifest validation.
  std::vector<std::pair<std::string, std::string>> query_texts_;

  // Bounded ingest queue (only used when overload.queue_capacity > 0).
  std::mutex queue_mu_;
  std::condition_variable queue_push_cv_;  ///< space available / drained
  std::condition_variable queue_pop_cv_;   ///< work available / stopping
  std::deque<EventBatch> queue_;
  bool worker_busy_ = false;
  bool stopping_ = false;
  std::thread worker_;
  std::atomic<size_t> shed_events_{0};
  std::atomic<size_t> shed_batches_{0};

  std::atomic<int> explanations_running_{0};
  Histogram idle_latency_;
  Histogram busy_latency_;

  // Continuous-serving state (all null/idle unless config_.serving opts in).
  std::unique_ptr<IncrementalFeatureState> incremental_;
  std::unique_ptr<ExplainResultCache> explain_cache_;
  std::unique_ptr<StreamingDetector> detector_;
  QueryId detect_query_id_ = 0;
  int detect_column_index_ = -1;
  /// Data version for cache keys; published by the applying thread after
  /// each batch is visible in engine + archive.
  std::atomic<uint64_t> data_watermark_{0};

  // Auto-explain worker (runs only with serving.auto_explain + detector).
  std::mutex auto_mu_;
  std::condition_variable auto_cv_;       ///< work available / stopping
  std::condition_variable auto_done_cv_;  ///< queue drained + worker idle
  std::deque<StreamAnomaly> auto_queue_;
  bool auto_busy_ = false;
  bool auto_stopping_ = false;
  std::vector<AutoExplanation> auto_results_;
  std::thread auto_worker_;
  std::atomic<size_t> auto_explains_completed_{0};
  std::atomic<size_t> auto_anomalies_dropped_{0};
};

}  // namespace exstream
