#include "xstream/system.h"

#include <unistd.h>

#include <chrono>
#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "io/file_util.h"

namespace exstream {

namespace {

constexpr uint32_t kManifestMagic = 0x45584350;  // "EXCP"
// v3: the engine snapshot holds one record per merge group and one per
// physical match table, where v2 repeated both per member query. v1 and v2
// manifests are rejected rather than misparsed.
constexpr uint32_t kManifestVersion = 3;

}  // namespace

XStreamSystem::XStreamSystem(const EventTypeRegistry* registry, XStreamConfig config)
    : registry_(registry),
      config_(std::move(config)),
      archive_(registry, config_.archive),
      engine_(registry, config_.ingest),
      guard_(registry, config_.guard),
      idle_latency_(0.0, config_.latency_histogram_max, 64),
      busy_latency_(0.0, config_.latency_histogram_max, 64) {
  if (config_.durability.wal_dir.has_value()) {
    WalOptions wopts;
    wopts.dir = *config_.durability.wal_dir;
    wopts.segment_bytes = config_.durability.wal_segment_bytes;
    wopts.fsync = config_.durability.fsync;
    wopts.fsync_interval_ms = config_.durability.fsync_interval_ms;
    auto wal = WriteAheadLog::Open(std::move(wopts));
    if (wal.ok()) {
      wal_ = std::move(*wal);
      next_seq_ = wal_->next_seq();
    } else {
      // Monitoring availability beats durability: keep ingesting without a
      // log rather than refusing to start. The failure stays visible here
      // and through wal() == nullptr.
      EXSTREAM_LOG(Error) << "WAL disabled: cannot open "
                          << *config_.durability.wal_dir << ": "
                          << wal.status().ToString();
    }
  }
  if (config_.replication.has_value()) {
    repl_sender_ = std::make_unique<ReplicationSender>(*config_.replication);
    repl_sender_->Start();
  }
  if (config_.serving.incremental_features) {
    incremental_ = std::make_unique<IncrementalFeatureState>(
        registry_, config_.serving.incremental_retention);
  }
  if (config_.serving.explain_cache_capacity > 0) {
    explain_cache_ = std::make_unique<ExplainResultCache>(
        config_.serving.explain_cache_capacity);
  }
  data_watermark_.store(next_seq_, std::memory_order_release);
  if (config_.overload.queue_capacity > 0) {
    worker_ = std::thread(&XStreamSystem::WorkerLoop, this);
  }
}

XStreamSystem::~XStreamSystem() {
  if (auto_worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(auto_mu_);
      auto_stopping_ = true;
    }
    auto_cv_.notify_all();
    auto_worker_.join();
  }
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stopping_ = true;
    }
    queue_pop_cv_.notify_all();
    queue_push_cv_.notify_all();
    worker_.join();
  }
  // After the worker: the last applied batches must reach the sender's spool
  // before its thread stops. Unacked data is not lost — the WAL keeps it
  // (truncate pin) for the next run's resume.
  if (repl_sender_ != nullptr) repl_sender_->Stop();
}

Result<QueryId> XStreamSystem::AddQuery(std::string_view text, std::string name) {
  EXSTREAM_ASSIGN_OR_RETURN(const QueryId id,
                            engine_.AddQueryText(text, std::string(name)));
  if (config_.serving.detector.has_value() && detector_ == nullptr &&
      (config_.serving.detect_query.empty() ||
       config_.serving.detect_query == name)) {
    BindDetector(id, name);
  }
  query_texts_.emplace_back(std::string(text), std::move(name));
  return id;
}

void XStreamSystem::BindDetector(QueryId query, const std::string& name) {
  // Empty detect_column follows the visualization default: the last derived
  // column of the match table (what the CLI charts).
  if (config_.serving.detect_column.empty()) {
    const auto& names = engine_.match_table(query).column_names();
    if (names.empty()) return;
    config_.serving.detect_column = names.back();
  }
  const auto column_index =
      engine_.match_table(query).ColumnIndex(config_.serving.detect_column);
  if (!column_index.ok()) {
    EXSTREAM_LOG(Error) << "streaming detector disabled: query '" << name
                        << "' has no column '" << config_.serving.detect_column
                        << "': " << column_index.status().ToString();
    return;
  }
  detect_query_id_ = query;
  detect_column_index_ = static_cast<int>(*column_index);
  detector_ =
      std::make_unique<StreamingDetector>(name, *config_.serving.detector);
  StreamingDetector* detector = detector_.get();
  const size_t col = *column_index;
  // Fires on the applying thread, after each batch, in deterministic
  // (event, query) order — so detection is reproducible for a fixed stream.
  // Only the monitored query is subscribed, so no other query's notes are
  // built; `query` was just registered, so the subscription cannot fail.
  const QueryId subscribed[] = {query};
  (void)engine_.SetMatchCallback(
      subscribed, [detector, col](const MatchNotification& n) {
        if (col >= n.row.values.size()) return;
        detector->Observe(n.partition, n.row.ts, n.row.values[col].AsDouble());
      });
  if (config_.serving.auto_explain) {
    auto_worker_ = std::thread(&XStreamSystem::AutoExplainLoop, this);
  }
}

void XStreamSystem::OnEvent(const Event& event) { OnEventBatch(EventBatch{event}); }

void XStreamSystem::OnEventBatch(EventBatch batch) {
  if (batch.empty()) return;
  Dispatch(guard_.Admit(std::move(batch)));
}

void XStreamSystem::Dispatch(EventBatch released) {
  if (released.empty()) return;
  if (config_.overload.queue_capacity > 0) {
    Enqueue(std::move(released));
  } else {
    ApplyBatch(std::move(released));
  }
}

void XStreamSystem::Enqueue(EventBatch batch) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  const size_t cap = config_.overload.queue_capacity;
  if (queue_.size() >= cap || stopping_) {
    switch (stopping_ ? BackpressurePolicy::kShedNewest : config_.overload.policy) {
      case BackpressurePolicy::kBlock: {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(config_.overload.block_deadline_ms);
        queue_push_cv_.wait_until(
            lock, deadline, [&] { return queue_.size() < cap || stopping_; });
        if (queue_.size() >= cap || stopping_) {
          // Overload must not become deadlock: past the deadline the batch
          // is shed and the producer keeps running.
          shed_events_ += batch.size();
          ++shed_batches_;
          return;
        }
        break;
      }
      case BackpressurePolicy::kShedOldest:
        while (queue_.size() >= cap) {
          shed_events_ += queue_.front().size();
          ++shed_batches_;
          queue_.pop_front();
        }
        break;
      case BackpressurePolicy::kShedNewest:
        shed_events_ += batch.size();
        ++shed_batches_;
        return;
    }
  }
  queue_.push_back(std::move(batch));
  queue_pop_cv_.notify_one();
}

void XStreamSystem::WorkerLoop() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  for (;;) {
    queue_pop_cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
    if (queue_.empty() && stopping_) return;
    EventBatch batch = std::move(queue_.front());
    queue_.pop_front();
    worker_busy_ = true;
    queue_push_cv_.notify_all();
    lock.unlock();
    ApplyBatch(std::move(batch));
    lock.lock();
    worker_busy_ = false;
    queue_push_cv_.notify_all();
  }
}

void XStreamSystem::DrainQueue() {
  if (!worker_.joinable()) return;
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_push_cv_.wait(lock, [&] { return queue_.empty() && !worker_busy_; });
}

void XStreamSystem::ApplyBatch(EventBatch batch) {
  if (batch.empty()) return;
  // The WAL append rides on the applying thread, just before the engine sees
  // the batch. Log-before-apply keeps recovery exact (anything in engine or
  // archive state is replayable), and with a bounded ingest queue the
  // serialize+CRC+write runs on the worker, overlapped with the producer's
  // validation of the next batch. Appending after the queue also means shed
  // batches never reach the log, so replay cannot resurrect events the
  // overload policy dropped.
  const uint64_t first_seq = next_seq_;
  // Replication follows durability: only batches the WAL holds (or, without
  // a WAL, every applied batch) feed the sender, so the replicated seq
  // stream matches what crash recovery can rebuild. During WAL replay the
  // sender is fed directly by Recover() with the original seqs.
  bool replicate =
      repl_sender_ != nullptr && !replaying_.load(std::memory_order_relaxed);
  if (wal_ != nullptr && !replaying_.load(std::memory_order_relaxed)) {
    const Status st = wal_->Append(next_seq_, batch);
    if (!st.ok()) {
      EXSTREAM_LOG(Error) << "WAL append failed (events stay in memory but "
                             "will not survive a crash): "
                          << st.ToString();
      // A batch the log lost must not replicate either: the next successful
      // append reuses these sequence numbers for different events.
      replicate = false;
    }
    // Mirror the WAL's own cursor: a failed append does not advance it, so
    // the on-disk stream stays contiguous and replayable.
    next_seq_ = wal_->next_seq();
  } else {
    next_seq_ += batch.size();
  }
  if (replicate) repl_sender_->OnBatch(first_seq, batch);
  Stopwatch timer;
  const size_t n = batch.size();
  engine_.IngestBatch(batch);
  // The incremental tails must see exactly the archive's event order, so the
  // feed sits between engine evaluation and the archive taking ownership.
  if (incremental_ != nullptr) incremental_->OnEventBatch(batch);
  archive_.OnEventBatch(std::move(batch));
  // One histogram sample per event, at the batch's per-event average, so the
  // Appendix-C latency accounting keeps its per-event denominator.
  const double per_event = timer.ElapsedSeconds() / static_cast<double>(n);
  Histogram& hist = explanations_running_.load(std::memory_order_relaxed) > 0
                        ? busy_latency_
                        : idle_latency_;
  hist.AddN(per_event, n);
  // Publish the new data version only after the batch is visible everywhere;
  // cache keys built from it then name state that actually exists.
  data_watermark_.store(next_seq_, std::memory_order_release);
  if (detector_ != nullptr) ForwardDetectorAnomalies();
}

void XStreamSystem::OnStreamEnd() { Flush(); }

void XStreamSystem::Flush() {
  // A visibility barrier, not a durability point: the WAL keeps its own
  // fsync schedule (policy / background flusher / shutdown sync). Callers
  // that need bytes on disk take a Checkpoint or call wal()->Sync().
  Dispatch(guard_.Drain());
  DrainQueue();
}

Status XStreamSystem::Checkpoint(const std::string& dir) {
  // The snapshot must capture a quiescent pipeline: everything dispatched is
  // applied first. The guard's lateness buffer is NOT released — it is saved
  // verbatim so recovery resumes with the same watermark state.
  DrainQueue();
  EXSTREAM_RETURN_NOT_OK(EnsureDir(dir));
  BytesWriter w;
  w.Put<uint32_t>(0);  // CRC of everything after it, patched below
  w.Put<uint32_t>(kManifestMagic);
  w.Put<uint32_t>(kManifestVersion);
  w.Put<uint64_t>(next_seq_);
  w.Put<uint32_t>(static_cast<uint32_t>(query_texts_.size()));
  for (const auto& [text, name] : query_texts_) {
    w.PutString(text);
    w.PutString(name);
  }
  guard_.SaveState(&w);
  engine_.SaveState(&w);
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t chunk_epoch,
                            archive_.CheckpointTo(dir, &w));
  partitions_.SaveState(&w);
  std::string manifest = w.Take();
  const uint32_t crc = Crc32(manifest.data() + sizeof(uint32_t),
                             manifest.size() - sizeof(uint32_t));
  std::memcpy(manifest.data(), &crc, sizeof(crc));
  EXSTREAM_RETURN_NOT_OK(WriteFileAtomic(dir + "/MANIFEST", std::move(manifest)));
  // The superseded epoch's chunk files become garbage only now that the new
  // manifest is durably in place; until the rename they backed the previous
  // checkpoint. Reclamation is best-effort — leaked files are retried by the
  // next checkpoint's sweep.
  const Status gc = EventArchive::RemoveStaleCheckpointChunks(dir, chunk_epoch);
  if (!gc.ok()) {
    EXSTREAM_LOG(Warn) << "checkpoint chunk GC in " << dir
                       << " incomplete: " << gc.ToString();
  }
  if (wal_ != nullptr) {
    // Only after the manifest is durably in place may the WAL drop segments
    // it covers; a crash anywhere above leaves the previous checkpoint plus
    // the full log, which recovery handles. With replication, segments the
    // parent has not acked survive even though the checkpoint covers them —
    // they are the resume source after a child crash.
    if (repl_sender_ != nullptr) {
      wal_->SetTruncatePin(repl_sender_->pin_seq());
    }
    EXSTREAM_RETURN_NOT_OK(wal_->Sync());
    EXSTREAM_RETURN_NOT_OK(wal_->TruncateThrough(next_seq_).status());
  }
  return Status::OK();
}

Result<XStreamSystem::RecoveryReport> XStreamSystem::Recover(
    const std::string& checkpoint_dir) {
  if (engine_.events_processed() != 0 || archive_.TotalEvents() != 0) {
    return Status::InvalidArgument(
        "Recover requires a fresh system: no events ingested yet");
  }
  RecoveryReport rep;
  uint64_t from_seq = 0;
  const std::string manifest_path =
      checkpoint_dir.empty() ? std::string() : checkpoint_dir + "/MANIFEST";
  if (!manifest_path.empty() && ::access(manifest_path.c_str(), F_OK) == 0) {
    EXSTREAM_ASSIGN_OR_RETURN(const std::string framed,
                              ReadFileToString(manifest_path));
    BytesReader fr(framed);
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t stored_crc, fr.Get<uint32_t>());
    const std::string_view payload =
        std::string_view(framed).substr(sizeof(uint32_t));
    if (Crc32(payload.data(), payload.size()) != stored_crc) {
      return Status::Corruption("checkpoint manifest checksum mismatch: " +
                                manifest_path);
    }
    BytesReader in(payload);
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t magic, in.Get<uint32_t>());
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t version, in.Get<uint32_t>());
    if (magic != kManifestMagic) {
      return Status::Corruption("unrecognized checkpoint manifest header in " +
                                manifest_path);
    }
    if (version != kManifestVersion) {
      return Status::Corruption(StrFormat(
          "checkpoint manifest %s is version %u; this build reads version %u",
          manifest_path.c_str(), version, kManifestVersion));
    }
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t seq, in.Get<uint64_t>());
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_queries, in.Get<uint32_t>());
    if (n_queries != query_texts_.size()) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint has %u queries, this system has %zu: add the same "
          "queries in the same order before Recover",
          n_queries, query_texts_.size()));
    }
    for (uint32_t i = 0; i < n_queries; ++i) {
      EXSTREAM_ASSIGN_OR_RETURN(const std::string text, in.GetString());
      EXSTREAM_ASSIGN_OR_RETURN(const std::string name, in.GetString());
      if (text != query_texts_[i].first || name != query_texts_[i].second) {
        return Status::InvalidArgument(
            StrFormat("checkpoint query %u ('%s') does not match this "
                      "system's query %u ('%s')",
                      i, name.c_str(), i, query_texts_[i].second.c_str()));
      }
    }
    EXSTREAM_RETURN_NOT_OK(guard_.RestoreState(&in));
    EXSTREAM_RETURN_NOT_OK(engine_.RestoreState(&in));
    EXSTREAM_RETURN_NOT_OK(archive_.RestoreFrom(&in));
    EXSTREAM_RETURN_NOT_OK(partitions_.RestoreState(&in));
    rep.manifest_loaded = true;
    rep.checkpoint_seq = seq;
    from_seq = seq;
  }
  if (incremental_ != nullptr) {
    incremental_->Reset();
    if (rep.manifest_loaded) {
      // The restored archive holds events the incremental tails never saw;
      // coverage floors must start strictly above the first replayed event
      // (checkpoint boundaries can split equal timestamps).
      incremental_->MarkExternalData();
    }
  }
  if (config_.durability.wal_dir.has_value()) {
    // The replayed batches are already in the log: flag the replay so
    // ApplyBatch skips the WAL append (re-appending would duplicate the tail
    // into new segments and run the sequence cursor past the live WAL's,
    // making the first post-recovery append fail and a second crash replay
    // the same events twice).
    replaying_.store(true, std::memory_order_relaxed);
    // With replication, replay from the WAL's oldest surviving record — not
    // just the checkpoint tail. Segments below the checkpoint survive only
    // because the truncate pin held them back for an unacked parent, and
    // they rebuild the sender's spool/pending state here. The engine/archive
    // still apply only the tail past the checkpoint.
    const uint64_t replay_from = repl_sender_ != nullptr ? 0 : from_seq;
    auto replay = WriteAheadLog::ReplayWithSeq(
        *config_.durability.wal_dir, replay_from,
        [this, from_seq](uint64_t first_seq, EventBatch batch) {
          if (repl_sender_ != nullptr) {
            repl_sender_->OnBatch(first_seq, batch);
          }
          if (first_seq + batch.size() <= from_seq) return;  // checkpointed
          if (first_seq < from_seq) {
            batch.erase(batch.begin(),
                        batch.begin() +
                            static_cast<ptrdiff_t>(from_seq - first_seq));
          }
          ApplyBatch(std::move(batch));
        });
    replaying_.store(false, std::memory_order_relaxed);
    EXSTREAM_RETURN_NOT_OK(replay.status());
    rep.wal = std::move(*replay);
    next_seq_ = std::max(from_seq, rep.wal.next_seq);
    if (wal_ != nullptr) {
      // Resume from the live WAL's own cursor (it scanned the same segments
      // at Open) so the next Append continues the on-disk stream exactly.
      next_seq_ = std::max(next_seq_, wal_->next_seq());
    }
  } else {
    next_seq_ = from_seq;
  }
  // No explanation computed before the restore may survive it: the cache's
  // watermark dimension cannot distinguish a pre-crash sequence space from
  // the recovered one.
  if (explain_cache_ != nullptr) explain_cache_->Clear();
  data_watermark_.store(next_seq_, std::memory_order_release);
  return rep;
}

Status XStreamSystem::IndexPartitions(QueryId query,
                                      std::map<std::string, std::string> dimensions) {
  const MatchTable& matches = engine_.match_table(query);
  const std::string& query_name = engine_.compiled(query).query().name;
  for (const std::string& partition : matches.Partitions()) {
    const std::vector<MatchRow> rows = matches.Rows(partition);
    if (rows.empty()) continue;
    PartitionRecord rec;
    rec.query_name = query_name;
    rec.partition = partition;
    rec.dimensions = dimensions;
    rec.start_ts = rows.front().ts;
    rec.end_ts = rows.back().ts;
    rec.num_points = rows.size();
    partitions_.Upsert(std::move(rec));
  }
  return Status::OK();
}

SeriesProvider XStreamSystem::MakeSeriesProvider(QueryId query,
                                                 std::string column) const {
  const CepEngine* engine_ptr = &engine_;
  const std::string query_name = engine_.compiled(query).query().name;
  return [engine_ptr, query, query_name, column](
             const std::string& q, const std::string& partition) -> Result<TimeSeries> {
    if (q != query_name) {
      return Status::NotFound("no monitored series for query '" + q + "'");
    }
    return engine_ptr->match_table(query).ExtractSeries(partition, column);
  };
}

Result<ExplanationReport> XStreamSystem::Explain(const AnomalyAnnotation& annotation,
                                                 QueryId monitor_query,
                                                 const std::string& column) {
  if (explain_cache_ != nullptr) {
    const std::string key =
        ExplainCacheKey(annotation, monitor_query, column, config_.explain,
                        data_watermark(), DegradationStateFingerprint());
    const ExplainResultCache::ResultPtr result = explain_cache_->GetOrCompute(
        key, [&] { return ExplainUncached(annotation, monitor_query, column); });
    return *result;
  }
  return ExplainUncached(annotation, monitor_query, column);
}

uint64_t XStreamSystem::DegradationStateFingerprint() const {
  // Any change here must miss the cache: a scan after a quarantine can
  // return different (degraded) data for the same interval, and
  // shed/rejected counts are folded into every report.
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(archive_.quarantined_chunks());
  mix(shed_events_.load());
  mix(guard_.report().total());
  return h;
}

Result<ExplanationReport> XStreamSystem::ExplainUncached(
    const AnomalyAnnotation& annotation, QueryId monitor_query,
    const std::string& column) {
  ExplanationEngine explainer(&archive_, &partitions_,
                              MakeSeriesProvider(monitor_query, column),
                              config_.explain, incremental_.get());
  explanations_running_.fetch_add(1);
  auto result = explainer.Explain(annotation);
  explanations_running_.fetch_sub(1);
  if (result.ok()) {
    // Ingest-side losses make the analyzed data incomplete in ways the
    // archive scans cannot see; fold them into the degradation accounting.
    const size_t shed = shed_events_.load();
    const size_t rejected = guard_.report().total();
    if (shed > 0 || rejected > 0) {
      result->degradation.events_shed += shed;
      result->degradation.events_rejected += rejected;
      if (result->degradation.degraded()) {
        result->explanation.MarkDegraded(result->degradation.ToString());
      }
    }
  }
  return result;
}

std::future<Result<ExplanationReport>> XStreamSystem::ExplainAsync(
    const AnomalyAnnotation& annotation, QueryId monitor_query,
    const std::string& column) {
  return std::async(std::launch::async, [this, annotation, monitor_query, column] {
    return Explain(annotation, monitor_query, column);
  });
}

void XStreamSystem::ForwardDetectorAnomalies() {
  // Only the auto-explain worker consumes through here; without it, callers
  // drain detector()->TakeReady() themselves.
  if (!auto_worker_.joinable()) return;
  std::vector<StreamAnomaly> ready = detector_->TakeReady();
  if (ready.empty()) return;
  {
    std::lock_guard<std::mutex> lock(auto_mu_);
    for (StreamAnomaly& anomaly : ready) {
      auto_queue_.push_back(std::move(anomaly));
      while (auto_queue_.size() > config_.serving.auto_queue_capacity) {
        // Ingest must never block on explanation throughput: overflow drops
        // the oldest pending anomaly (the newest describes the live incident).
        auto_queue_.pop_front();
        auto_anomalies_dropped_.fetch_add(1);
      }
    }
  }
  auto_cv_.notify_one();
}

void XStreamSystem::AutoExplainLoop() {
  std::unique_lock<std::mutex> lock(auto_mu_);
  for (;;) {
    auto_cv_.wait(lock, [&] { return !auto_queue_.empty() || auto_stopping_; });
    if (auto_queue_.empty() && auto_stopping_) return;
    StreamAnomaly anomaly = std::move(auto_queue_.front());
    auto_queue_.pop_front();
    auto_busy_ = true;
    lock.unlock();
    // Through the cached path: repeated excursions over one incident, or an
    // interactive user re-exploring what the detector flagged, share one
    // computation.
    auto report = std::make_shared<const Result<ExplanationReport>>(Explain(
        anomaly.annotation, detect_query_id_, config_.serving.detect_column));
    lock.lock();
    auto_results_.push_back(AutoExplanation{std::move(anomaly), std::move(report)});
    while (auto_results_.size() > config_.serving.max_auto_explanations) {
      auto_results_.erase(auto_results_.begin());
    }
    auto_busy_ = false;
    auto_explains_completed_.fetch_add(1);
    auto_done_cv_.notify_all();
  }
}

std::vector<XStreamSystem::AutoExplanation> XStreamSystem::TakeAutoExplanations() {
  std::lock_guard<std::mutex> lock(auto_mu_);
  std::vector<AutoExplanation> out = std::move(auto_results_);
  auto_results_.clear();
  return out;
}

size_t XStreamSystem::FinalizeDetector() {
  if (detector_ == nullptr) return 0;
  const size_t closed = detector_->FinalizeOpenExcursions();
  ForwardDetectorAnomalies();
  return closed;
}

void XStreamSystem::DrainAutoExplains() {
  if (detector_ == nullptr || !auto_worker_.joinable()) return;
  ForwardDetectorAnomalies();
  std::unique_lock<std::mutex> lock(auto_mu_);
  auto_done_cv_.wait(lock, [&] { return auto_queue_.empty() && !auto_busy_; });
}

XStreamSystem::FaultStats XStreamSystem::fault_stats() const {
  FaultStats s;
  s.spill_read_retries = archive_.spill_read_retries();
  s.spill_write_retries = archive_.spill_write_retries();
  s.spill_write_failures = archive_.spill_write_failures();
  s.quarantined_chunks = archive_.quarantined_chunks();
  s.degraded_scans = archive_.degraded_scans();
  const RejectReport rejects = guard_.report();
  s.quarantine_evictions =
      archive_.quarantine_evictions() + rejects.reject_file_evictions;
  s.rejected_events = rejects.total();
  s.shed_events = shed_events_.load();
  s.shed_batches = shed_batches_.load();
  if (wal_ != nullptr) {
    const WriteAheadLog::Stats wal_stats = wal_->stats();
    s.wal_append_failures = wal_stats.append_failures;
    s.wal_sync_failures = wal_stats.sync_failures;
  }
  if (repl_sender_ != nullptr) {
    const ReplicationSender::Stats repl = repl_sender_->stats();
    s.repl_shed_events = repl.shed_events;
    s.repl_shed_chunks = repl.shed_chunks;
    s.repl_reconnects = repl.reconnects;
  }
  return s;
}

}  // namespace exstream
