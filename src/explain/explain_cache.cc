#include "explain/explain_cache.h"

#include <utility>

#include "common/bytes.h"

namespace exstream {

namespace {

// FNV-1a over raw bytes; stable across platforms (the fingerprint reaches
// bench JSON and tests compare it across configurations).
uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void HashString(uint64_t* h, std::string_view s) {
  const uint64_t len = s.size();
  *h = Fnv1a(&len, sizeof(len), *h);
  *h = Fnv1a(s.data(), s.size(), *h);
}

template <typename T>
void HashPod(uint64_t* h, T v) {
  *h = Fnv1a(&v, sizeof(v), *h);
}

}  // namespace

uint64_t FingerprintExplainOptions(const ExplainOptions& o) {
  uint64_t h = 1469598103934665603ull;
  for (const Timestamp w : o.feature_space.windows) HashPod(&h, w);
  HashPod(&h, static_cast<uint64_t>(o.feature_space.windows.size()));
  for (const AggregateKind a : o.feature_space.aggregates) {
    HashPod(&h, static_cast<uint32_t>(a));
  }
  HashPod(&h, static_cast<uint64_t>(o.feature_space.aggregates.size()));
  HashPod(&h, static_cast<uint8_t>(o.feature_space.include_raw));
  for (const std::string& s : o.feature_space.exclude_attributes) HashString(&h, s);
  for (const std::string& s : o.feature_space.exclude_event_types) HashString(&h, s);
  HashPod(&h, o.leap.keep_ratio);
  HashPod(&h, o.leap.min_reward);
  HashPod(&h, static_cast<uint64_t>(o.leap.max_keep));
  HashPod(&h, o.labeling.cut_threshold);
  HashPod(&h, o.labeling.entropy_weight);
  HashPod(&h, o.labeling.frequency_weight);
  HashPod(&h, o.correlation.threshold);
  HashPod(&h, static_cast<uint64_t>(o.correlation.resample_points));
  HashPod(&h, o.validation_min_reward);
  HashPod(&h, static_cast<uint64_t>(o.min_support));
  HashPod(&h, static_cast<uint8_t>(o.enable_validation));
  HashPod(&h, static_cast<uint8_t>(o.enable_clustering));
  HashPod(&h, static_cast<uint8_t>(o.tiered_reference_scans));
  return h;
}

std::string ExplainCacheKey(const AnomalyAnnotation& annotation,
                            uint32_t monitor_query, const std::string& column,
                            const ExplainOptions& options, uint64_t watermark,
                            uint64_t degradation_state) {
  BytesWriter w;
  w.Put<uint32_t>(monitor_query);
  w.PutString(column);
  for (const IntervalRef* ref : {&annotation.abnormal, &annotation.reference}) {
    w.PutString(ref->query);
    w.PutString(ref->partition);
    w.Put<int64_t>(ref->range.lower);
    w.Put<int64_t>(ref->range.upper);
  }
  w.Put<uint64_t>(FingerprintExplainOptions(options));
  w.Put<uint64_t>(watermark);
  w.Put<uint64_t>(degradation_state);
  return w.Take();
}

ExplainResultCache::ResultPtr ExplainResultCache::GetOrCompute(
    const std::string& key,
    const std::function<Result<ExplanationReport>()>& compute) {
  std::shared_future<ResultPtr> wait_on;
  std::promise<ResultPtr> promise;
  uint64_t my_generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      if (it->second.done) {
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it->second.lru);
        return it->second.value;
      }
      ++single_flight_waits_;
      wait_on = it->second.future;
    } else {
      ++misses_;
      ++computations_;
      my_generation = generation_;
      Entry entry;
      entry.future = promise.get_future().share();
      entry.generation = my_generation;
      map_.emplace(key, std::move(entry));
    }
  }
  if (wait_on.valid()) return wait_on.get();

  // Owner path: compute outside the lock (this is the expensive part — the
  // whole point of single-flight is that only one caller pays it).
  auto result = std::make_shared<const Result<ExplanationReport>>(compute());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    // The entry may have been orphaned by Clear() (generation mismatch or
    // gone); deliver to waiters without re-inserting in that case.
    if (it != map_.end() && !it->second.done &&
        it->second.generation == my_generation) {
      if (result->ok()) {
        it->second.done = true;
        it->second.value = result;
        lru_.push_front(key);
        it->second.lru = lru_.begin();
        EvictExcessLocked();
      } else {
        map_.erase(it);  // errors reach every waiter but are never cached
      }
    }
  }
  promise.set_value(result);
  return result;
}

ExplainResultCache::ResultPtr ExplainResultCache::Lookup(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || !it->second.done) return nullptr;
  return it->second.value;
}

void ExplainResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
  // In-flight entries are erased too: their owner detects the generation
  // mismatch on completion and skips insertion, so no pre-Clear computation
  // can resurface after the cache was invalidated.
  map_.clear();
  lru_.clear();
}

void ExplainResultCache::EvictExcessLocked() {
  while (lru_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

ExplainResultCache::Stats ExplainResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.single_flight_waits = single_flight_waits_;
  s.computations = computations_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  return s;
}

}  // namespace exstream
