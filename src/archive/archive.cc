#include "archive/archive.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "archive/serialization.h"
#include "common/logging.h"
#include "common/strings.h"
#include "io/file_util.h"
#include "io/quarantine_dir.h"

namespace exstream {

namespace {
// Sentinel index for the per-type linked lists built by OnEventBatch.
constexpr uint32_t kNoEvent = static_cast<uint32_t>(-1);

// Accounts one chunk a scan could not read as lost coverage.
void RecordSkip(const Chunk& chunk, std::string reason, DegradationReport* report) {
  DegradationReport::SkippedChunk sk;
  sk.type = chunk.type();
  sk.spill_path = chunk.spill_path();
  sk.events_lost = chunk.size();
  sk.reason = std::move(reason);
  report->skipped.push_back(std::move(sk));
  report->events_lost_estimate += chunk.size();
  ++report->coverage[chunk.type()].chunks_skipped;
}
}  // namespace

EventArchive::EventArchive(const EventTypeRegistry* registry, ArchiveOptions options)
    : registry_(registry), options_(std::move(options)), shards_(registry_->size()) {
  for (size_t t = 0; t < shards_.size(); ++t) {
    const EventTypeId type = static_cast<EventTypeId>(t);
    shards_[t].chunks.push_back(std::make_shared<Chunk>(
        type, options_.chunk_capacity, &registry_->schema(type)));
  }
}

void EventArchive::OnEvent(const Event& event) {
  const Status st = Append(event);
  if (!st.ok()) {
    append_errors_.fetch_add(1, std::memory_order_relaxed);
    EXSTREAM_LOG(Warn) << "archive append failed: " << st.ToString();
  }
}

void EventArchive::OnEventBatch(EventBatch batch) {
  // Group the batch by event type (stable, so per-type time order is kept),
  // then drain each group under a single shard-lock acquisition.
  const size_t num_types = shards_.size();
  std::vector<uint32_t> first(num_types, kNoEvent);
  std::vector<uint32_t> next(batch.size(), kNoEvent);
  std::vector<uint32_t> last(num_types, kNoEvent);
  std::vector<EventTypeId> touched;
  for (uint32_t i = 0; i < batch.size(); ++i) {
    const EventTypeId t = batch[i].type;
    if (t >= num_types) {
      append_errors_.fetch_add(1, std::memory_order_relaxed);
      EXSTREAM_LOG(Warn) << "archive append failed: "
                         << StrFormat("event type %u not registered", t);
      continue;
    }
    if (first[t] == kNoEvent) {
      first[t] = i;
      touched.push_back(t);
    } else {
      next[last[t]] = i;
    }
    last[t] = i;
  }
  for (const EventTypeId t : touched) {
    Shard& shard = shards_[t];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (uint32_t i = first[t]; i != kNoEvent; i = next[i]) {
      const Status st = AppendLocked(&shard, batch[i]);
      if (!st.ok()) {
        append_errors_.fetch_add(1, std::memory_order_relaxed);
        EXSTREAM_LOG(Warn) << "archive append failed: " << st.ToString();
      }
    }
  }
}

Status EventArchive::Append(Event event) {
  if (event.type >= shards_.size()) {
    return Status::InvalidArgument(
        StrFormat("event type %u not registered", event.type));
  }
  Shard& shard = shards_[event.type];
  std::lock_guard<std::mutex> lock(shard.mu);
  return AppendLocked(&shard, event);
}

Status EventArchive::AppendLocked(Shard* shard, const Event& event) {
  auto& list = shard->chunks;
  if (list.back()->full()) {
    list.back()->Seal();
    ++shard->resident_sealed;
    list.push_back(std::make_shared<Chunk>(event.type, options_.chunk_capacity,
                                           &registry_->schema(event.type)));
    // Spill housekeeping runs after the fresh open chunk exists and can never
    // fail the append itself: an ENOSPC during the seal-triggered spill must
    // not drop the incoming event (the chunk stays resident and retryable).
    MaybeSpillLocked(shard, event.type);
  }
  return list.back()->Append(event);
}

void EventArchive::MaybeSpillLocked(Shard* shard, EventTypeId type) {
  if (!options_.spill_dir.has_value()) return;
  if (shard->spill_cooldown > 0) {
    // A recent spill failed even after retries (disk full / dead device):
    // skip a few seals before probing the disk again instead of paying the
    // full retry backoff on every append that seals a chunk.
    --shard->spill_cooldown;
    return;
  }
  while (shard->resident_sealed > options_.max_resident_chunks) {
    auto& list = shard->chunks;
    size_t& cursor = shard->spill_cursor;
    while (cursor < list.size() &&
           (list[cursor]->spilled() || !list[cursor]->sealed())) {
      ++cursor;
    }
    if (cursor >= list.size()) break;
    const std::string path =
        StrFormat("%s/type%u_chunk%zu_%zu.bin", options_.spill_dir->c_str(), type,
                  cursor, spill_file_seq_.fetch_add(1, std::memory_order_relaxed));
    size_t retries = 0;
    const Status spilled = RetryWithBackoff(
        options_.spill_retry,
        [&] { return list[cursor]->SpillTo(path); },
        [](const Status& s) { return s.IsIOError(); }, &retries);
    spill_write_retries_.fetch_add(retries, std::memory_order_relaxed);
    if (!spilled.ok()) {
      // Persistent write failure (disk full, dead device): keep the chunk
      // resident instead of failing the append path. Memory pressure grows,
      // but ingest — and therefore monitoring — stays available.
      spill_write_failures_.fetch_add(1, std::memory_order_relaxed);
      ++shard->spill_failures_in_a_row;
      shard->spill_cooldown = std::min<size_t>(shard->spill_failures_in_a_row, 8);
      EXSTREAM_LOG(Warn) << "spill write failed, chunk stays resident: "
                         << spilled.ToString();
      return;
    }
    shard->spill_failures_in_a_row = 0;
    --shard->resident_sealed;
  }
}

Result<ScanView> EventArchive::ScanColumns(EventTypeId type,
                                           const TimeInterval& interval,
                                           DegradationReport* degradation,
                                           const CancelToken* cancel) const {
  if (type >= shards_.size()) {
    return Status::InvalidArgument(StrFormat("event type %u not registered", type));
  }
  const Shard& shard = shards_[type];

  // Phase 1 (under the shard lock): snapshot handles of overlapping chunks.
  // Sealed resident chunks are pinned by shared_ptr (their columns are
  // immutable, so the binary search for the in-range rows can wait until the
  // lock is released); spilled chunks are carried as chunk handles (read —
  // and possibly quarantined — outside the lock); the open tail chunk is the
  // one place events still mutate, so its in-range rows are column-copied
  // here (bounded by chunk_capacity). Chunks already quarantined are skipped
  // up front and accounted as lost coverage.
  std::vector<ChunkSnapshot> snapshots;
  DegradationReport local;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& chunk : shard.chunks) {
      if (!chunk->Overlaps(interval)) continue;  // the time-range index at work
      ++local.coverage[type].chunks_total;
      if (chunk->quarantined()) {
        RecordSkip(*chunk, "quarantined by an earlier scan", &local);
        continue;
      }
      ChunkSnapshot snap;
      if (!chunk->sealed()) {
        const ChunkColumns& cols = chunk->columns();
        const auto [lo, hi] = cols.RowRange(interval);
        if (hi > lo) {
          snap.open_tail = std::make_shared<const ChunkColumns>(cols.Slice(lo, hi));
        }
      } else if (auto resident = chunk->resident_columns()) {
        snap.resident = std::move(resident);
      } else {
        snap.spilled = chunk;
      }
      if (snap.resident || snap.spilled || snap.open_tail) {
        snapshots.push_back(std::move(snap));
      }
    }
  }

  // Phase 2 (lock-free): resolve each snapshot to a column segment. Spill-
  // file reads — disk I/O — happen here, where they cannot stall appends. An
  // unreadable spill degrades the scan instead of failing it.
  ScanView view;
  view.segments.reserve(snapshots.size());
  for (ChunkSnapshot& snap : snapshots) {
    if (snap.spilled != nullptr) {
      ReadSpillOrQuarantine(snap.spilled, interval, &view, &local, cancel);
    } else if (snap.resident != nullptr) {
      const auto [lo, hi] = snap.resident->RowRange(interval);
      if (hi > lo) view.segments.push_back({std::move(snap.resident), lo, hi});
    } else {
      const size_t rows = snap.open_tail->rows();
      view.segments.push_back({std::move(snap.open_tail), 0, rows});
    }
  }
  if (local.degraded()) {
    degraded_scans_.fetch_add(1, std::memory_order_relaxed);
    EXSTREAM_LOG(Warn) << "degraded scan of type " << type << ": "
                       << local.ToString();
  }
  if (degradation != nullptr) degradation->Merge(local);
  return view;
}

Result<std::vector<Event>> EventArchive::Scan(EventTypeId type,
                                              const TimeInterval& interval,
                                              DegradationReport* degradation,
                                              const CancelToken* cancel) const {
  EXSTREAM_ASSIGN_OR_RETURN(const ScanView view,
                            ScanColumns(type, interval, degradation, cancel));
  std::vector<Event> out;
  out.reserve(view.rows());
  view.MaterializeEvents(&out);
  return out;
}

void EventArchive::ReadSpillOrQuarantine(const std::shared_ptr<Chunk>& chunk,
                                         const TimeInterval& interval,
                                         ScanView* view,
                                         DegradationReport* degradation,
                                         const CancelToken* cancel) const {
  // A decode some holder still pins (another scan's view, an Explain's pin
  // list) is reused. The chunk's lock guards only that handle, never the file
  // read below, so each scan's retries stay bounded by its own CancelToken.
  std::shared_ptr<const ChunkColumns> loaded = chunk->live_decode();
  Status read = Status::OK();
  if (loaded == nullptr) {
    if (options_.spill_read_hook_for_testing) options_.spill_read_hook_for_testing();
    Result<ChunkColumns> columns = ChunkColumns{};
    size_t retries = 0;
    // IOError is transient (flaky device, momentary open failure) and worth
    // the backoff; Corruption/Truncated is a property of the bytes and
    // permanent. The caller's CancelToken caps the backoff sleeps, so a
    // deadline'd Explain degrades on time instead of waiting out the full
    // retry schedule.
    read = RetryWithBackoff(
        options_.spill_retry,
        [&] {
          columns = ReadColumnsFile(chunk->spill_path());
          return columns.ok() ? Status::OK() : columns.status();
        },
        [](const Status& s) { return s.IsIOError(); }, &retries, cancel);
    spill_read_retries_.fetch_add(retries, std::memory_order_relaxed);
    if (read.ok()) {
      loaded = chunk->ShareDecode(std::make_shared<const ChunkColumns>(std::move(*columns)));
    }
  }
  if (loaded != nullptr) {
    const auto [lo, hi] = loaded->RowRange(interval);
    if (hi > lo) view->segments.push_back({std::move(loaded), lo, hi, /*spill_decode=*/true});
    return;
  }
  if (chunk->MarkQuarantined()) {
    quarantined_chunks_.fetch_add(1, std::memory_order_relaxed);
    if (options_.spill_dir.has_value()) {
      const Result<size_t> evicted =
          EnforceQuarantineCap(*options_.spill_dir, options_.max_quarantine_files);
      if (evicted.ok() && *evicted > 0) {
        quarantine_evictions_.fetch_add(*evicted, std::memory_order_relaxed);
      }
    }
  }
  EXSTREAM_LOG(Warn) << "spill read failed, chunk quarantined as "
                     << chunk->spill_path() << ".quarantine: " << read.ToString();
  RecordSkip(*chunk, read.ToString(), degradation);
}

Result<std::vector<EventArchive::TypeScan>> EventArchive::ScanAll(
    const TimeInterval& interval, DegradationReport* degradation,
    const CancelToken* cancel) const {
  std::vector<TypeScan> out;
  for (size_t t = 0; t < shards_.size(); ++t) {
    EXSTREAM_ASSIGN_OR_RETURN(
        std::vector<Event> events,
        Scan(static_cast<EventTypeId>(t), interval, degradation, cancel));
    if (events.empty()) continue;  // no in-range events: no placeholder entry
    TypeScan ts;
    ts.type = static_cast<EventTypeId>(t);
    ts.events = std::move(events);
    out.push_back(std::move(ts));
  }
  return out;
}

size_t EventArchive::CountEvents(EventTypeId type) const {
  if (type >= shards_.size()) return 0;
  const Shard& shard = shards_[type];
  std::lock_guard<std::mutex> lock(shard.mu);
  size_t n = 0;
  for (const auto& c : shard.chunks) n += c->size();
  return n;
}

size_t EventArchive::TotalEvents() const {
  size_t n = 0;
  for (size_t t = 0; t < shards_.size(); ++t) {
    n += CountEvents(static_cast<EventTypeId>(t));
  }
  return n;
}

size_t EventArchive::NumChunks(EventTypeId type) const {
  if (type >= shards_.size()) return 0;
  const Shard& shard = shards_[type];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.chunks.size();
}

namespace {
// Chunk kinds in the checkpoint manifest.
constexpr uint8_t kChunkOpen = 0;
constexpr uint8_t kChunkResidentSealed = 1;
constexpr uint8_t kChunkSpilled = 2;
// Written by earlier archives for a spilled chunk whose raw file they had
// deleted, keeping only downsampled aggregates in a sidecar. Its rows are
// gone, so restore rejects it rather than serve the chunk with missing data.
constexpr uint8_t kChunkEvicted = 3;

/// Parses "chunk_<epoch>_<type>_<i>.col", yielding the epoch; false for
/// anything else (spill files, MANIFEST, quarantine files, ...).
bool ParseCheckpointChunkEpoch(const std::string& name, uint64_t* epoch) {
  constexpr std::string_view kPrefix = "chunk_";
  constexpr std::string_view kSuffix = ".col";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (std::string_view(name).substr(0, kPrefix.size()) != kPrefix) return false;
  if (std::string_view(name).substr(name.size() - kSuffix.size()) != kSuffix) {
    return false;
  }
  const std::string digits = name.substr(kPrefix.size());
  char* end = nullptr;
  const unsigned long long v = strtoull(digits.c_str(), &end, 10);
  if (end == digits.c_str() || *end != '_') return false;
  *epoch = v;
  return true;
}
}  // namespace

Status EventArchive::RemoveStaleCheckpointChunks(const std::string& dir,
                                                 uint64_t keep_epoch) {
  EXSTREAM_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                            ListDirFiles(dir));
  Status status = Status::OK();
  for (const std::string& name : names) {
    uint64_t epoch = 0;
    if (ParseCheckpointChunkEpoch(name, &epoch) && epoch != keep_epoch) {
      const Status st = RemoveFileIfExists(dir + "/" + name);
      if (!st.ok() && status.ok()) status = st;
    }
  }
  return status;
}

Result<uint64_t> EventArchive::CheckpointTo(const std::string& dir,
                                            BytesWriter* out) const {
  EXSTREAM_RETURN_NOT_OK(EnsureDir(dir));
  // Fresh epoch = 1 + the highest already present, so this checkpoint's
  // files never overwrite ones the directory's current MANIFEST references;
  // a crash before the new MANIFEST lands leaves the old set intact.
  uint64_t epoch = 1;
  {
    EXSTREAM_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                              ListDirFiles(dir));
    for (const std::string& name : names) {
      uint64_t e = 0;
      if (ParseCheckpointChunkEpoch(name, &e)) epoch = std::max(epoch, e + 1);
    }
  }
  out->Put<uint64_t>(spill_file_seq_.load(std::memory_order_relaxed));
  out->Put<uint32_t>(static_cast<uint32_t>(shards_.size()));
  struct Entry {
    uint8_t kind = kChunkOpen;
    uint64_t count = 0;
    Timestamp min_ts = 0;
    Timestamp max_ts = 0;
    uint8_t quarantined = 0;
    std::string path;
    std::shared_ptr<const ChunkColumns> columns;  // resident kinds only
  };
  bool any_spilled = false;
  for (size_t t = 0; t < shards_.size(); ++t) {
    const Shard& shard = shards_[t];
    std::vector<Entry> entries;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      entries.reserve(shard.chunks.size());
      for (const auto& chunk : shard.chunks) {
        Entry e;
        e.count = chunk->size();
        e.min_ts = chunk->min_ts();
        e.max_ts = chunk->max_ts();
        e.quarantined = chunk->quarantined() ? 1 : 0;
        if (chunk->spilled()) {
          e.kind = kChunkSpilled;
          e.path = chunk->spill_path();
          any_spilled = true;
        } else if (chunk->sealed()) {
          e.kind = kChunkResidentSealed;
          e.columns = chunk->resident_columns();
        } else {
          // The open tail still mutates; its rows are column-copied under the
          // lock (bounded by chunk_capacity).
          e.kind = kChunkOpen;
          e.columns = std::make_shared<const ChunkColumns>(
              chunk->columns().Slice(0, chunk->columns().rows()));
        }
        entries.push_back(std::move(e));
      }
    }
    // Resident chunks persist to one file each, outside the shard lock.
    for (size_t i = 0; i < entries.size(); ++i) {
      Entry& e = entries[i];
      if (e.columns == nullptr) continue;
      e.path = StrFormat("%s/chunk_%llu_%zu_%zu.col", dir.c_str(),
                         static_cast<unsigned long long>(epoch), t, i);
      EXSTREAM_RETURN_NOT_OK(WriteColumnsFile(e.path, *e.columns));
    }
    out->Put<uint32_t>(static_cast<uint32_t>(entries.size()));
    for (const Entry& e : entries) {
      out->Put<uint8_t>(e.kind);
      out->Put<uint64_t>(e.count);
      out->Put<int64_t>(e.min_ts);
      out->Put<int64_t>(e.max_ts);
      out->Put<uint8_t>(e.quarantined);
      out->PutString(e.path);
    }
  }
  // Spilled chunks are recorded as already durable, and once the caller's
  // MANIFEST lands it may drop the WAL segments holding their events. Spills
  // rename into spill_dir without syncing it (that would cost one fsync per
  // spill on the ingest path), so the renames are made durable here, once.
  // (Chunks restored from a checkpoint were synced by the one that wrote it.)
  if (any_spilled && options_.spill_dir.has_value()) {
    EXSTREAM_RETURN_NOT_OK(SyncDir(*options_.spill_dir));
  }
  return epoch;
}

Status EventArchive::RestoreFrom(BytesReader* in) {
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t spill_seq, in->Get<uint64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_types, in->Get<uint32_t>());
  if (n_types != shards_.size()) {
    return Status::InvalidArgument(
        StrFormat("snapshot holds %u event types, registry has %zu", n_types,
                  shards_.size()));
  }
  if (TotalEvents() != 0) {
    return Status::InvalidArgument(
        "archive must be freshly constructed before restore");
  }
  for (size_t t = 0; t < shards_.size(); ++t) {
    Shard& shard = shards_[t];
    std::lock_guard<std::mutex> lock(shard.mu);
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_chunks, in->Get<uint32_t>());
    shard.chunks.clear();
    shard.resident_sealed = 0;
    shard.spill_cursor = 0;
    for (uint32_t i = 0; i < n_chunks; ++i) {
      EXSTREAM_ASSIGN_OR_RETURN(const uint8_t kind, in->Get<uint8_t>());
      EXSTREAM_ASSIGN_OR_RETURN(const uint64_t count, in->Get<uint64_t>());
      EXSTREAM_ASSIGN_OR_RETURN(const int64_t min_ts, in->Get<int64_t>());
      EXSTREAM_ASSIGN_OR_RETURN(const int64_t max_ts, in->Get<int64_t>());
      EXSTREAM_ASSIGN_OR_RETURN(const uint8_t quarantined, in->Get<uint8_t>());
      EXSTREAM_ASSIGN_OR_RETURN(const std::string path, in->GetString());
      const EventTypeId type = static_cast<EventTypeId>(t);
      if (kind == kChunkSpilled) {
        shard.chunks.push_back(Chunk::AdoptSpilled(type, options_.chunk_capacity,
                                                   count, min_ts, max_ts, path,
                                                   quarantined != 0));
      } else if (kind == kChunkOpen || kind == kChunkResidentSealed) {
        EXSTREAM_ASSIGN_OR_RETURN(ChunkColumns columns, ReadColumnsFile(path));
        if (columns.rows() != count) {
          return Status::Corruption(
              StrFormat("checkpoint chunk %s holds %zu rows, manifest says %llu",
                        path.c_str(), columns.rows(),
                        static_cast<unsigned long long>(count)));
        }
        shard.chunks.push_back(Chunk::AdoptResident(
            type, options_.chunk_capacity, &registry_->schema(type),
            std::move(columns), kind == kChunkResidentSealed));
        if (kind == kChunkResidentSealed) ++shard.resident_sealed;
      } else if (kind == kChunkEvicted) {
        return Status::Corruption(StrFormat(
            "checkpoint chunk kind 3 (raw rows evicted) for %s: the archive "
            "reads exact rows only and this chunk's rows were deleted",
            path.c_str()));
      } else {
        return Status::Corruption(
            StrFormat("bad chunk kind %u in checkpoint manifest", kind));
      }
    }
    // Appends require an open tail chunk.
    if (shard.chunks.empty() || shard.chunks.back()->sealed()) {
      shard.chunks.push_back(std::make_shared<Chunk>(
          static_cast<EventTypeId>(t), options_.chunk_capacity,
          &registry_->schema(static_cast<EventTypeId>(t))));
    }
  }
  spill_file_seq_.store(spill_seq, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace exstream
