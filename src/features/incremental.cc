#include "features/incremental.h"

#include <algorithm>
#include <utility>

namespace exstream {

IncrementalFeatureState::IncrementalFeatureState(const EventTypeRegistry* registry,
                                                 Timestamp retention)
    : registry_(registry), retention_(retention) {
  tails_.reserve(registry_->size());
  for (EventTypeId id = 0; id < registry_->size(); ++id) {
    auto tail = std::make_unique<TypeTail>();
    tail->cols = ChunkColumns(id, &registry_->schema(id));
    tails_.push_back(std::move(tail));
  }
}

void IncrementalFeatureState::OnEventBatch(const EventBatch& batch) {
  for (const Event& event : batch) {
    if (event.type >= tails_.size()) continue;
    TypeTail& tail = *tails_[event.type];
    std::lock_guard<std::mutex> lock(tail.mu);
    Ingest(&tail, event);
    EvictLocked(&tail);
  }
}

void IncrementalFeatureState::MarkExternalData() {
  external_data_.store(true, std::memory_order_relaxed);
}

void IncrementalFeatureState::Reset() {
  for (EventTypeId id = 0; id < tails_.size(); ++id) {
    TypeTail& tail = *tails_[id];
    std::lock_guard<std::mutex> lock(tail.mu);
    tail.cols = ChunkColumns(id, &registry_->schema(id));
    tail.start = 0;
    tail.has_floor = false;
    tail.floor = 0;
    tail.max_ts_seen = 0;
  }
  events_buffered_.store(0, std::memory_order_relaxed);
  external_data_.store(false, std::memory_order_relaxed);
}

void IncrementalFeatureState::Ingest(TypeTail* tail, const Event& event) {
  if (!tail->has_floor) {
    // External (checkpoint-restored) events may share this event's timestamp,
    // so coverage can only be claimed strictly above it in that case.
    tail->floor =
        external_data_.load(std::memory_order_relaxed) ? event.ts + 1 : event.ts;
    tail->has_floor = true;
    tail->max_ts_seen = event.ts;
  }
  tail->max_ts_seen = std::max(tail->max_ts_seen, event.ts);
  if (event.ts < tail->floor) return;  // below coverage: archive-only
  const bool live = tail->cols.rows() > tail->start;
  if (live && event.ts < tail->cols.ts().back()) {
    // Out-of-order inside the covered span. The archive may accept such an
    // event (a freshly sealed chunk's first append is unchecked), so the tail
    // cannot stay both sorted and complete — restart coverage above
    // everything seen so far and leave the disputed range to archive scans.
    const size_t dropped = tail->cols.rows() - tail->start;
    tail->cols = ChunkColumns(tail->cols.type(),
                              &registry_->schema(tail->cols.type()));
    tail->start = 0;
    tail->floor = tail->max_ts_seen + 1;
    events_buffered_.fetch_sub(dropped, std::memory_order_relaxed);
    disorder_resets_.fetch_add(1, std::memory_order_relaxed);
    return;  // event.ts < new floor by construction
  }
  tail->cols.AppendEvent(event);
  events_buffered_.fetch_add(1, std::memory_order_relaxed);
}

void IncrementalFeatureState::EvictLocked(TypeTail* tail) {
  if (retention_ <= 0 || tail->cols.rows() <= tail->start) return;
  const Timestamp cut = tail->cols.ts().back() - retention_;
  if (cut <= tail->floor) return;
  const std::vector<Timestamp>& ts = tail->cols.ts();
  size_t start = tail->start;
  while (start < ts.size() && ts[start] < cut) ++start;
  if (start == tail->start) {
    // No row evicted, but the floor still rises: coverage below `cut` is no
    // longer promised once retention passes it (keeps Serve semantics stable
    // whether or not rows happened to exist there).
    tail->floor = cut;
    return;
  }
  events_evicted_.fetch_add(start - tail->start, std::memory_order_relaxed);
  events_buffered_.fetch_sub(start - tail->start, std::memory_order_relaxed);
  tail->start = start;
  tail->floor = cut;
  // Compact once the dead prefix dominates; amortized O(1) per append.
  if (tail->start * 2 > tail->cols.rows()) {
    tail->cols = tail->cols.Slice(tail->start, tail->cols.rows());
    tail->start = 0;
  }
}

Result<ScanView> IncrementalFeatureState::ScanWithBackfill(
    const EventArchive& archive, EventTypeId type, const TimeInterval& interval,
    DegradationReport* degradation, const CancelToken* cancel) const {
  const TypeTail* tail = type < tails_.size() ? tails_[type].get() : nullptr;
  if (tail != nullptr) {
    std::unique_lock<std::mutex> lock(tail->mu);
    if (tail->has_floor && interval.lower >= tail->floor) {
      // Entire interval covered by the tail: one deep-copied segment (the
      // same cost class as the archive's open-tail snapshot), no archive
      // locks, no spill I/O.
      const auto [lo, hi] = tail->cols.RowRange(interval);
      ScanView view;
      if (hi > lo) {
        auto cols = std::make_shared<ChunkColumns>(tail->cols.Slice(lo, hi));
        const size_t n = cols->rows();
        view.segments.push_back(ScanView::Segment{std::move(cols), 0, n});
      }
      full_hits_.fetch_add(1, std::memory_order_relaxed);
      return view;
    }
    if (tail->has_floor && interval.upper >= tail->floor) {
      // The tail covers [floor, upper]; backfill [lower, floor-1] from the
      // archive. Archive rows there are strictly older than every tail row,
      // so appending the tail segment last keeps global time order.
      const Timestamp floor = tail->floor;
      const auto [lo, hi] =
          tail->cols.RowRange(TimeInterval{floor, interval.upper});
      std::shared_ptr<ChunkColumns> cols;
      if (hi > lo) {
        cols = std::make_shared<ChunkColumns>(tail->cols.Slice(lo, hi));
      }
      lock.unlock();
      EXSTREAM_ASSIGN_OR_RETURN(
          ScanView view,
          archive.ScanColumns(type, TimeInterval{interval.lower, floor - 1},
                              degradation, cancel));
      if (cols != nullptr) {
        const size_t n = cols->rows();
        view.segments.push_back(ScanView::Segment{std::move(cols), 0, n});
      }
      partial_hits_.fetch_add(1, std::memory_order_relaxed);
      return view;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return archive.ScanColumns(type, interval, degradation, cancel);
}

IncrementalFeatureState::Stats IncrementalFeatureState::stats() const {
  Stats s;
  s.full_hits = full_hits_.load(std::memory_order_relaxed);
  s.partial_hits = partial_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.events_buffered = events_buffered_.load(std::memory_order_relaxed);
  s.events_evicted = events_evicted_.load(std::memory_order_relaxed);
  s.disorder_resets = disorder_resets_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace exstream
