#include "io/wal.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <unistd.h>

#include "archive/serialization.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/strings.h"
#include "io/file_util.h"

namespace exstream {

namespace {

constexpr uint32_t kWalMagic = 0x4558574C;  // "EXWL"
constexpr uint32_t kWalVersion = 2;
constexpr uint32_t kRecMagic = 0x57524543;  // "WREC"
constexpr size_t kSegmentHeaderBytes =
    sizeof(uint32_t) + sizeof(uint32_t) + sizeof(uint64_t);
// u32 magic + u64 first_seq + u32 count + u32 payload_len + u32 crc.
constexpr size_t kRecordHeaderBytes =
    sizeof(uint32_t) + sizeof(uint64_t) + 3 * sizeof(uint32_t);

template <typename T>
void PutPod(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
T GetPodAt(std::string_view data, size_t pos) {
  T v;
  std::memcpy(&v, data.data() + pos, sizeof(T));
  return v;
}

std::string SegmentPath(const std::string& dir, uint64_t base_seq) {
  return StrFormat("%s/wal-%020llu.seg", dir.c_str(),
                   static_cast<unsigned long long>(base_seq));
}

/// Parses "wal-<digits>.seg"; false for anything else.
bool ParseSegmentName(const std::string& name, uint64_t* base_seq) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".seg";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (std::string_view(name).substr(0, kPrefix.size()) != kPrefix) return false;
  if (std::string_view(name).substr(name.size() - kSuffix.size()) != kSuffix) {
    return false;
  }
  const std::string digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  if (digits.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = strtoull(digits.c_str(), &end, 10);
  if (end == digits.c_str() || *end != '\0') return false;
  *base_seq = v;
  return true;
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WalSegmentScanStats ScanWalSegmentBuffer(
    std::string_view data,
    const std::function<void(uint64_t first_seq, EventBatch batch)>& apply) {
  WalSegmentScanStats stats;
  if (data.size() < kSegmentHeaderBytes) {
    stats.torn = true;
    stats.torn_error = "segment shorter than its header";
    return stats;
  }
  if (GetPodAt<uint32_t>(data, 0) != kWalMagic) {
    stats.torn = true;
    stats.torn_error = "bad segment magic";
    return stats;
  }
  if (const uint32_t version = GetPodAt<uint32_t>(data, 4); version != kWalVersion) {
    stats.torn = true;
    stats.other_version = true;
    stats.torn_error =
        StrFormat("unsupported segment version %u (this build reads %u)", version, kWalVersion);
    return stats;
  }
  size_t pos = kSegmentHeaderBytes;
  while (pos < data.size()) {
    if (data.size() - pos < kRecordHeaderBytes) {
      stats.torn = true;
      stats.torn_error = StrFormat("torn record header at offset %zu", pos);
      return stats;
    }
    const uint32_t magic = GetPodAt<uint32_t>(data, pos);
    if (magic != kRecMagic) {
      stats.torn = true;
      stats.torn_error = StrFormat("bad record magic at offset %zu", pos);
      return stats;
    }
    const uint64_t first_seq = GetPodAt<uint64_t>(data, pos + 4);
    const uint32_t count = GetPodAt<uint32_t>(data, pos + 12);
    const uint32_t payload_len = GetPodAt<uint32_t>(data, pos + 16);
    const uint32_t stored_crc = GetPodAt<uint32_t>(data, pos + 20);
    if (data.size() - pos - kRecordHeaderBytes < payload_len) {
      stats.torn = true;
      stats.torn_error = StrFormat("torn record payload at offset %zu", pos);
      return stats;
    }
    const std::string_view payload =
        data.substr(pos + kRecordHeaderBytes, payload_len);
    if (Crc32(payload.data(), payload.size()) != stored_crc) {
      stats.torn = true;
      stats.torn_error = StrFormat("record checksum mismatch at offset %zu", pos);
      return stats;
    }
    Result<std::vector<Event>> events = DeserializeEvents(payload);
    if (!events.ok() || events->size() != count) {
      stats.torn = true;
      stats.torn_error = StrFormat(
          "record payload at offset %zu undecodable: %s", pos,
          events.ok() ? "event count mismatch" : events.status().ToString().c_str());
      return stats;
    }
    stats.events += events->size();
    ++stats.records;
    apply(first_seq, std::move(*events));
    pos += kRecordHeaderBytes + payload_len;
  }
  return stats;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(WalOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("WAL directory must not be empty");
  }
  EXSTREAM_RETURN_NOT_OK(EnsureDir(options.dir));
  auto wal = std::unique_ptr<WriteAheadLog>(new WriteAheadLog(std::move(options)));
  EXSTREAM_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                            ListDirFiles(wal->options_.dir));
  for (const std::string& name : names) {
    uint64_t base = 0;
    if (ParseSegmentName(name, &base)) {
      wal->segments_.emplace_back(base, wal->options_.dir + "/" + name);
    }
  }
  std::sort(wal->segments_.begin(), wal->segments_.end());
  if (!wal->segments_.empty()) {
    // The next sequence number continues after the last intact record of the
    // last segment (a torn tail does not advance it — those events are gone).
    const auto& [base, path] = wal->segments_.back();
    wal->next_seq_ = base;
    EXSTREAM_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
    ScanWalSegmentBuffer(data, [&](uint64_t first_seq, EventBatch batch) {
      wal->next_seq_ = std::max(wal->next_seq_, first_seq + batch.size());
    });
  }
  wal->last_sync_ms_ = NowMs();
  if (wal->options_.fsync == WalFsyncPolicy::kInterval) {
    wal->flusher_ = std::thread([w = wal.get()] { w->FlusherLoop(); });
  }
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_flusher_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked().ok();  // best effort on shutdown
  if (file_ != nullptr) {
    fclose(file_);
    file_ = nullptr;
  }
}

Status WriteAheadLog::RotateLocked(uint64_t base_seq) {
  if (file_ != nullptr) {
    switch (options_.fsync) {
      case WalFsyncPolicy::kNone:
        // OS writeback covers sealed segments too.
        fclose(file_);
        break;
      case WalFsyncPolicy::kInterval:
        // The sealed segment's fsync+close is owed to the flusher so rotation
        // doesn't stall the append path on a disk flush.
        fflush(file_);
        sealed_pending_.emplace_back(active_path_, file_);
        flusher_cv_.notify_all();
        break;
      case WalFsyncPolicy::kEveryBatch:
        EXSTREAM_RETURN_NOT_OK(SyncLocked());
        fclose(file_);
        break;
    }
    file_ = nullptr;
    ++stats_.rotations;
  }
  const std::string path = SegmentPath(options_.dir, base_seq);
  FILE* f = fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open WAL segment " + path);
  std::string header;
  PutPod<uint32_t>(&header, kWalMagic);
  PutPod<uint32_t>(&header, kWalVersion);
  PutPod<uint64_t>(&header, base_seq);
  if (fwrite(header.data(), 1, header.size(), f) != header.size()) {
    fclose(f);
    remove(path.c_str());
    return Status::IOError("cannot write WAL segment header to " + path);
  }
  file_ = f;
  active_path_ = path;
  active_base_seq_ = base_seq;
  active_bytes_ = header.size();
  // Rotating onto the same base (retry after a poisoned first record) rewrote
  // the file in place; don't register the segment twice.
  if (segments_.empty() || segments_.back().first != base_seq) {
    segments_.emplace_back(base_seq, path);
  }
  return Status::OK();
}

Status WriteAheadLog::Append(uint64_t first_seq, const EventBatch& events) {
  if (events.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  if (first_seq < next_seq_) {
    return Status::InvalidArgument(
        StrFormat("WAL sequence runs backwards: append at %llu, next is %llu",
                  static_cast<unsigned long long>(first_seq),
                  static_cast<unsigned long long>(next_seq_)));
  }

  // The record is written as header + payload, two fwrites, so the payload
  // is never copied into a contiguous frame.
  std::string payload = SerializeEvents(events);
  std::string header;
  header.reserve(kRecordHeaderBytes);
  PutPod<uint32_t>(&header, kRecMagic);
  PutPod<uint64_t>(&header, first_seq);
  PutPod<uint32_t>(&header, static_cast<uint32_t>(events.size()));
  PutPod<uint32_t>(&header, static_cast<uint32_t>(payload.size()));
  PutPod<uint32_t>(&header, Crc32(payload.data(), payload.size()));
  const size_t frame_size = header.size() + payload.size();

  if (file_ == nullptr || active_poisoned_) {
    // A poisoned segment has torn bytes at its tail; writing after them would
    // hide this record behind the tear. Start fresh — replay tolerates the
    // torn tail because the next segment's base closes the gap.
    EXSTREAM_RETURN_NOT_OK(RotateLocked(first_seq));
    active_poisoned_ = false;
  } else if (active_bytes_ + frame_size > options_.segment_bytes &&
             active_bytes_ > kSegmentHeaderBytes) {
    EXSTREAM_RETURN_NOT_OK(RotateLocked(first_seq));
  }

  size_t write_bytes = frame_size;
  bool injected_torn = false;
  if (auto fault = FaultInjector::Global().Intercept(FaultOp::kWrite, "wal-append",
                                                     active_path_)) {
    switch (fault->mode) {
      case FaultMode::kFailOpen:
      case FaultMode::kReset:
        ++stats_.append_failures;
        return Status::IOError("injected open failure writing " + active_path_);
      case FaultMode::kNoSpace:
        ++stats_.append_failures;
        return Status::IOError("injected ENOSPC writing " + active_path_);
      case FaultMode::kTruncate:
        // A torn append: only a prefix of the frame reaches the segment, as
        // if the process died mid-write. The record is unrecoverable, so the
        // append reports failure after poisoning the tail.
        write_bytes = std::min(write_bytes, fault->truncate_to);
        injected_torn = true;
        break;
      case FaultMode::kCorruptBytes: {
        const size_t off = fault->corrupt_offset == SIZE_MAX
                               ? frame_size / 2
                               : std::min(fault->corrupt_offset, frame_size - 1);
        char* target = off < header.size() ? &header[off] : &payload[off - header.size()];
        *target = static_cast<char>(*target ^ 0x5A);
        break;
      }
      case FaultMode::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(fault->delay_ms));
        break;
    }
  }

  const size_t header_bytes = std::min(write_bytes, header.size());
  size_t written = fwrite(header.data(), 1, header_bytes, file_);
  if (written == header_bytes && write_bytes > header.size()) {
    written += fwrite(payload.data(), 1, write_bytes - header.size(), file_);
  }
  // A failed flush (e.g. ENOSPC) means some of the frame may be missing from
  // the file while later writes would land after the hole — corrupting the
  // segment mid-log. Treat it exactly like a torn write: poison the tail so
  // the next append rotates, and do not advance the sequence cursor.
  const bool flush_failed = fflush(file_) != 0;
  if (written != write_bytes || injected_torn || flush_failed) {
    if (written > 0 || flush_failed) active_poisoned_ = true;
    ++stats_.append_failures;
    return Status::IOError(
        StrFormat("torn WAL append to %s (%zu of %zu bytes%s)",
                  active_path_.c_str(), written, frame_size,
                  flush_failed ? ", flush failed" : ""));
  }
  active_bytes_ += frame_size;
  next_seq_ = first_seq + events.size();
  ++stats_.records_appended;
  stats_.events_appended += events.size();
  stats_.bytes_appended += frame_size;

  dirty_ = true;
  switch (options_.fsync) {
    case WalFsyncPolicy::kNone:
    case WalFsyncPolicy::kInterval:
      // kInterval group commit happens on the flusher thread (FlusherLoop),
      // never on the append path.
      break;
    case WalFsyncPolicy::kEveryBatch:
      EXSTREAM_RETURN_NOT_OK(SyncLocked());
      break;
  }
  return Status::OK();
}

Status WriteAheadLog::SyncLocked() {
  Status status = Status::OK();
  for (auto& [path, f] : sealed_pending_) {
    ++stats_.syncs;
    if (fflush(f) != 0 || fsync(fileno(f)) != 0) {
      ++stats_.sync_failures;
      status = Status::IOError("cannot fsync WAL segment " + path);
    }
    fclose(f);
  }
  sealed_pending_.clear();
  if (file_ != nullptr) {
    ++stats_.syncs;
    if (fflush(file_) != 0 || fsync(fileno(file_)) != 0) {
      ++stats_.sync_failures;
      return Status::IOError("cannot fsync WAL segment " + active_path_);
    }
  }
  last_sync_ms_ = NowMs();
  dirty_ = false;
  return status;
}

void WriteAheadLog::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_flusher_) {
    flusher_cv_.wait_for(lock,
                         std::chrono::milliseconds(options_.fsync_interval_ms));
    if (stop_flusher_) break;
    if (!dirty_ && sealed_pending_.empty()) continue;
    // Snapshot the work, then drop the lock for the disk flush itself: an
    // fsync takes milliseconds and must not hold up Append. The snapshotted
    // FILE*s stay valid because every other closer defers to the flusher
    // while flusher_inflight_ is set: the sealed handles' ownership moves
    // out of sealed_pending_ here, Sync()/TruncateThrough wait for the pass
    // to finish before closing anything (the active file may rotate into
    // sealed_pending_ mid-pass, so "skip the active" is not enough), and
    // the destructor joins this thread first.
    std::vector<std::pair<std::string, FILE*>> sealed =
        std::move(sealed_pending_);
    sealed_pending_.clear();
    FILE* active = file_;
    const std::string active_path = active_path_;
    dirty_ = false;
    flusher_inflight_ = true;
    lock.unlock();
    uint64_t syncs = 0;
    uint64_t failures = 0;
    for (auto& [path, f] : sealed) {
      ++syncs;
      if (fflush(f) != 0 || fsync(fileno(f)) != 0) {
        ++failures;
        EXSTREAM_LOG(Warn) << "WAL flusher: cannot fsync sealed segment "
                           << path;
      }
      fclose(f);
    }
    if (active != nullptr) {
      ++syncs;
      // Append fflushes after every write, so the page cache already holds
      // everything acknowledged before the snapshot.
      if (fsync(fileno(active)) != 0) {
        ++failures;
        EXSTREAM_LOG(Warn) << "WAL flusher: cannot fsync " << active_path;
      }
    }
    lock.lock();
    flusher_inflight_ = false;
    flusher_done_cv_.notify_all();
    stats_.syncs += syncs;
    stats_.sync_failures += failures;
    last_sync_ms_ = NowMs();
  }
}

Status WriteAheadLog::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  flusher_done_cv_.wait(lock, [&] { return !flusher_inflight_; });
  return SyncLocked();
}

void WriteAheadLog::SetTruncatePin(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  truncate_pin_ = seq;
}

void WriteAheadLog::ClearTruncatePin() {
  std::lock_guard<std::mutex> lock(mu_);
  truncate_pin_ = UINT64_MAX;
}

Result<size_t> WriteAheadLog::TruncateThrough(uint64_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  flusher_done_cv_.wait(lock, [&] { return !flusher_inflight_; });
  // The replication pin holds back segments a downstream parent has not yet
  // acknowledged: a checkpoint may cover sequence `seq` locally, but the
  // sender still needs the pinned tail on disk to serve a resume after a
  // crash on either side.
  seq = std::min(seq, truncate_pin_);
  size_t deleted = 0;
  // segments_[i] is disposable once a successor exists whose base covers
  // `seq`: every record in it then has sequence numbers < base(i+1) <= seq.
  while (segments_.size() >= 2 && segments_[1].first <= seq &&
         (file_ == nullptr || segments_[0].second != active_path_)) {
    // A segment being deleted no longer owes anyone an fsync: release its
    // pending flusher handle (if any) before unlinking.
    for (auto it = sealed_pending_.begin(); it != sealed_pending_.end(); ++it) {
      if (it->first == segments_[0].second) {
        fclose(it->second);
        sealed_pending_.erase(it);
        break;
      }
    }
    EXSTREAM_RETURN_NOT_OK(RemoveFileIfExists(segments_[0].second));
    segments_.erase(segments_.begin());
    ++deleted;
  }
  stats_.segments_deleted += deleted;
  return deleted;
}

WriteAheadLog::Stats WriteAheadLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<WalReplayStats> WriteAheadLog::ReplayWithSeq(
    const std::string& dir, uint64_t from_seq,
    const std::function<void(uint64_t first_seq, EventBatch batch)>& apply) {
  WalReplayStats stats;
  stats.next_seq = from_seq;
  EXSTREAM_ASSIGN_OR_RETURN(const std::vector<std::string> names, ListDirFiles(dir));
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : names) {
    uint64_t base = 0;
    if (ParseSegmentName(name, &base)) {
      segments.emplace_back(base, dir + "/" + name);
    }
  }
  std::sort(segments.begin(), segments.end());
  // Highest sequence number after any intact record, independent of from_seq:
  // used to prove a torn segment's discarded tail left no gap in the stream.
  uint64_t intact_end = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(const std::string data,
                              ReadFileToString(segments[i].second));
    const WalSegmentScanStats scan = ScanWalSegmentBuffer(
        data, [&](uint64_t first_seq, EventBatch batch) {
          ++stats.records;
          const uint64_t end_seq = first_seq + batch.size();
          stats.next_seq = std::max(stats.next_seq, end_seq);
          intact_end = std::max(intact_end, end_seq);
          if (end_seq <= from_seq) {
            stats.events_skipped += batch.size();
            return;
          }
          uint64_t apply_seq = first_seq;
          if (first_seq < from_seq) {
            const size_t skip = static_cast<size_t>(from_seq - first_seq);
            stats.events_skipped += skip;
            batch.erase(batch.begin(), batch.begin() + skip);
            apply_seq = from_seq;
          }
          stats.events_applied += batch.size();
          apply(apply_seq, std::move(batch));
        });
    ++stats.segments;
    // A segment of another log version is no crash artifact: discarding it
    // as a torn tail would silently drop every event it holds.
    if (scan.other_version) {
      return Status::Corruption(StrFormat("WAL segment %s: %s", segments[i].second.c_str(),
                                          scan.torn_error.c_str()));
    }
    if (scan.torn) {
      // A torn frame is the expected shape of a crash mid-append: the
      // incomplete record was never acknowledged, so discarding it is safe as
      // long as the stream has no gap. That holds for the final segment
      // (nothing follows) and for an earlier one whose successor's base picks
      // up exactly where the intact records end (the post-crash writer
      // rotated to a fresh segment at the unacknowledged sequence number).
      const bool last = i + 1 == segments.size();
      if (last || segments[i + 1].first == intact_end) {
        stats.torn_tail = true;
        EXSTREAM_LOG(Warn) << "WAL replay: torn record in " << segments[i].second
                           << " (" << scan.torn_error << "), discarded";
      } else {
        return Status::Corruption(
            StrFormat("WAL segment %s is corrupt mid-log (%s): replay would "
                      "skip a gap in the stream",
                      segments[i].second.c_str(), scan.torn_error.c_str()));
      }
    }
  }
  return stats;
}

}  // namespace exstream
