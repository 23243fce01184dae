#include "archive/chunk.h"

#include <cstdio>

#include "archive/serialization.h"
#include "common/strings.h"
#include "io/file_util.h"

namespace exstream {

Status Chunk::Append(const Event& event) {
  if (sealed_) return Status::Internal("append to sealed chunk");
  if (event.type != type_) {
    return Status::InvalidArgument("event type does not match chunk type");
  }
  if (count_ > 0 && event.ts < max_ts_) {
    return Status::InvalidArgument(
        StrFormat("out-of-order event ts %lld < chunk max %lld",
                  static_cast<long long>(event.ts), static_cast<long long>(max_ts_)));
  }
  if (count_ == 0) min_ts_ = event.ts;
  max_ts_ = event.ts;
  columns_->AppendEvent(event);
  ++count_;
  return Status::OK();
}

void Chunk::BuildTiers(const std::vector<Timestamp>& windows) {
  if (windows.empty() || count_ == 0 || spilled_) return;
  auto tiers =
      std::make_shared<ChunkTiers>(BuildChunkTiers(*columns_, windows));
  if (!tiers->empty()) tiers_ = std::move(tiers);
}

Status Chunk::SpillTo(const std::string& path) {
  if (!sealed_) return Status::Internal("spill of unsealed chunk");
  if (spilled_) return Status::OK();
  EXSTREAM_RETURN_NOT_OK(WriteColumnsFile(path, *columns_));
  if (tiers_ != nullptr) {
    // Best-effort: a failed sidecar write costs nothing now (tiers stay
    // resident) and restore rebuilds tiers from the spill file if the
    // sidecar is missing.
    (void)WriteTiersFile(TiersSidecarPath(path), *tiers_, type_);
  }
  spill_path_ = path;
  spilled_ = true;
  // Swap in fresh empty columns instead of clearing: snapshots taken before
  // the spill keep their handle to the old (immutable) data.
  columns_ = std::make_shared<ChunkColumns>(type_, nullptr);
  return Status::OK();
}

Status Chunk::EvictRaw() {
  if (!spilled_ || raw_evicted_ || quarantined()) return Status::OK();
  EXSTREAM_RETURN_NOT_OK(RemoveFileIfExists(spill_path_));
  raw_evicted_ = true;
  return Status::OK();
}

std::shared_ptr<Chunk> Chunk::AdoptResident(EventTypeId type, size_t capacity,
                                            const EventSchema* schema,
                                            ChunkColumns columns, bool sealed) {
  auto chunk = std::make_shared<Chunk>(type, capacity, schema);
  chunk->count_ = columns.rows();
  if (chunk->count_ > 0) {
    chunk->min_ts_ = columns.ts().front();
    chunk->max_ts_ = columns.ts().back();
  }
  *chunk->columns_ = std::move(columns);
  chunk->sealed_ = sealed;
  return chunk;
}

std::shared_ptr<Chunk> Chunk::AdoptSpilled(EventTypeId type, size_t capacity,
                                           size_t count, Timestamp min_ts,
                                           Timestamp max_ts, std::string spill_path,
                                           bool quarantined, bool raw_evicted) {
  auto chunk = std::make_shared<Chunk>(type, capacity, nullptr);
  chunk->count_ = count;
  chunk->min_ts_ = min_ts;
  chunk->max_ts_ = max_ts;
  chunk->sealed_ = true;
  chunk->spilled_ = true;
  chunk->raw_evicted_ = raw_evicted;
  chunk->spill_path_ = std::move(spill_path);
  chunk->quarantined_.store(quarantined, std::memory_order_release);
  return chunk;
}

bool Chunk::MarkQuarantined() {
  bool expected = false;
  if (!quarantined_.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
    return false;
  }
  if (!spill_path_.empty()) {
    // Best-effort: the file may already be gone; the in-memory flag alone is
    // enough to keep the chunk out of future scans.
    (void)rename(spill_path_.c_str(), (spill_path_ + ".quarantine").c_str());
  }
  return true;
}

}  // namespace exstream
