// ExplainResultCache: keyed, single-flight LRU cache over full Explain
// results — the serving layer that makes repeated/overlapping interactive
// requests (an incident war-room re-exploring one anomaly) near-free.
//
// A key fingerprints everything that can change the answer: the monitored
// query and column, both annotated intervals (query/partition/range), every
// result-affecting ExplainOptions field, the data watermark (events applied
// so far — new data invalidates), and the archive's degradation state
// (quarantines, shed/rejected counts — a degraded result must never serve an
// exact request, and vice versa). Concurrent callers of one key share a
// single computation (single-flight); errors propagate to every waiter but
// are not cached, so a transient failure does not poison the key.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "explain/annotation.h"
#include "explain/engine.h"

namespace exstream {

/// \brief Fingerprint of every ExplainOptions field that can change the
/// explanation (feature space, leap/labeling/correlation knobs, validation
/// and clustering toggles).
/// num_threads and deadline_ms are deliberately excluded: results are
/// bit-identical across thread counts, and a deadline changes only whether a
/// result exists, not its value.
uint64_t FingerprintExplainOptions(const ExplainOptions& options);

/// \brief Builds the canonical cache key bytes for one Explain request.
/// `watermark` is the caller's data version; `degradation_state` folds the
/// scan-health counters (quarantined chunks, shed and rejected events) so
/// degradation changes miss the cache.
std::string ExplainCacheKey(const AnomalyAnnotation& annotation,
                            uint32_t monitor_query, const std::string& column,
                            const ExplainOptions& options, uint64_t watermark,
                            uint64_t degradation_state);

/// \brief Single-flight LRU cache of completed Explain reports.
///
/// Thread-safe. Completed entries are shared as
/// `shared_ptr<const Result<ExplanationReport>>`, so a hit is one map lookup
/// plus a refcount bump — no report copy until the caller needs one.
class ExplainResultCache {
 public:
  using ResultPtr = std::shared_ptr<const Result<ExplanationReport>>;

  explicit ExplainResultCache(size_t capacity) : capacity_(capacity) {}

  /// \brief Returns the cached result for `key`, computing it via `compute`
  /// on a miss. Concurrent callers with the same key block on the one
  /// in-flight computation instead of repeating it. A computation that
  /// returns an error is handed to every waiter but evicted immediately.
  ResultPtr GetOrCompute(const std::string& key,
                         const std::function<Result<ExplanationReport>()>& compute);

  /// Peek without computing; nullptr on miss (does not touch LRU order).
  ResultPtr Lookup(const std::string& key) const;

  /// Drops every entry (Recover). In-flight computations complete and are
  /// delivered to their waiters but are not re-inserted.
  void Clear();

  struct Stats {
    uint64_t hits = 0;                ///< served from a completed entry
    uint64_t misses = 0;              ///< triggered a computation
    uint64_t single_flight_waits = 0; ///< joined an in-flight computation
    uint64_t computations = 0;        ///< compute() invocations
    uint64_t evictions = 0;           ///< completed entries dropped by LRU
    size_t entries = 0;               ///< completed entries resident
  };
  Stats stats() const;

  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::shared_future<ResultPtr> future;
    ResultPtr value;  ///< set when done; hits return it without touching future
    bool done = false;
    uint64_t generation = 0;
    std::list<std::string>::iterator lru;  ///< valid only when done
  };

  void EvictExcessLocked();

  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t generation_ = 0;  ///< bumped by Clear; orphans in-flight entries
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> lru_;  ///< completed keys, most recent first
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t single_flight_waits_ = 0;
  uint64_t computations_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace exstream
