// The per-layer ledger printed by the traced run: self time per layer span,
// the layers' own counters, and the trace's coverage and overhead.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "explain/explain_cache.h"
#include "features/incremental.h"
#include "harness.h"
#include "pipeline.h"
#include "trace.h"

namespace perfbench {

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A name ending in "_s" is
/// the summed self time of the spans named without the suffix.
const std::vector<LayerMetricDef>& LayerMetrics();

using LayerCounts = std::map<std::string, double>;

/// \brief Adds every per-layer metric to `run`: span self times, `counts`
/// for the rest (0 when a layer did no work in this workload), and
/// trace.untraced_share = the part of `traced_wall_s` not covered by layer
/// spans.
void AddLedger(Run* run, const std::vector<Span>& spans, double traced_wall_s,
               double overhead_ratio, const LayerCounts& counts);

/// The ingest layers' own counters after a decomposed pass.
void AddIngestCounts(const DecomposedIngest& pipe, const std::string& spill_dir,
                     uint64_t spill_reads, LayerCounts* counts);
/// Tail hits and misses between two snapshots.
void AddTailCounts(const exstream::IncrementalFeatureState::Stats& before,
                   const exstream::IncrementalFeatureState::Stats& after,
                   LayerCounts* counts);
void AddCacheCounts(const exstream::ExplainResultCache::Stats& stats, LayerCounts* counts);

}  // namespace perfbench
