#include "ledger.h"

#include <algorithm>

namespace perfbench {

const std::vector<LayerMetricDef>& LayerMetrics() {
  static const std::vector<LayerMetricDef> defs = {
      {"guard.admit_s", "s"},
      {"guard.rejected", "count"},
      {"wal.append_s", "s"},
      {"wal.bytes", "B"},
      {"wal.syncs", "count"},
      {"cep.ingest_s", "s"},
      {"cep.match_rows", "count"},
      {"cep.merge_groups", "count"},
      {"tails.ingest_s", "s"},
      {"archive.append_s", "s"},
      {"archive.chunks_spilled", "count"},
      {"archive.spill_bytes", "B"},
      {"detect.observe_s", "s"},
      {"detect.anomalies", "count"},
      {"explain.build_abn_s", "s"},
      {"explain.build_ref_s", "s"},
      {"explain.rank_s", "s"},
      {"explain.leap_s", "s"},
      {"explain.validate.align_s", "s"},
      {"explain.validate.label_s", "s"},
      {"explain.validate.pool_build_s", "s"},
      {"explain.validate.rerank_s", "s"},
      {"explain.cluster_s", "s"},
      {"explain.predicate_s", "s"},
      {"explain.ranked", "count"},
      {"explain.after_leap", "count"},
      {"explain.after_validation", "count"},
      {"explain.final", "count"},
      {"explain.related_partitions", "count"},
      {"tails.full_hits", "count"},
      {"tails.partial_hits", "count"},
      {"tails.misses", "count"},
      {"archive.scan_s", "s"},
      {"archive.spill_reads", "count"},
      {"cache.lookup_s", "s"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.hit_ratio", "ratio"},
      {"recover.checkpoint_load_s", "s"},
      {"recover.wal_replay_s", "s"},
      {"recover.wal_events", "count"},
      {"trace.untraced_share", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return defs;
}

namespace {

bool IsTime(const std::string& name) {
  return name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0;
}

}  // namespace

void AddLedger(Run* run, const std::vector<Span>& spans, double traced_wall_s,
               double overhead_ratio, const LayerCounts& counts) {
  const std::map<std::string, double> self = SelfSecondsByName(spans);
  double covered = 0.0;
  for (const LayerMetricDef& def : LayerMetrics()) {
    const std::string name = def.name;
    double value = 0.0;
    if (name == "trace.untraced_share") {
      value = traced_wall_s > 0 ? std::max(0.0, 1.0 - covered / traced_wall_s) : 0.0;
    } else if (name == "trace.overhead_ratio") {
      value = overhead_ratio;
    } else if (IsTime(name) && name.rfind("recover.", 0) != 0) {
      // Recovery runs outside the traced pass; its times come in `counts`.
      const auto it = self.find(name.substr(0, name.size() - 2));
      value = it != self.end() ? it->second : 0.0;
      covered += value;
    } else {
      const auto it = counts.find(name);
      value = it != counts.end() ? it->second : 0.0;
    }
    run->Add(name, value, def.unit);
  }
}

void AddIngestCounts(const DecomposedIngest& pipe, const std::string& spill_dir,
                     uint64_t spill_reads, LayerCounts* counts) {
  LayerCounts& c = *counts;
  c["guard.rejected"] = static_cast<double>(pipe.reject_report().total());
  if (pipe.wal() != nullptr) {
    const exstream::WriteAheadLog::Stats wal = pipe.wal()->stats();
    c["wal.bytes"] = static_cast<double>(wal.bytes_appended);
    c["wal.syncs"] = static_cast<double>(wal.syncs);
  }
  c["cep.match_rows"] = static_cast<double>(PhysicalMatchRows(pipe.engine()));
  c["cep.merge_groups"] = static_cast<double>(pipe.engine().merge_stats().groups);
  c["archive.chunks_spilled"] = static_cast<double>(CountFiles(spill_dir, ".bin"));
  c["archive.spill_bytes"] = static_cast<double>(DirectoryBytes(spill_dir));
  c["archive.spill_reads"] = static_cast<double>(spill_reads);
  if (pipe.detector() != nullptr) {
    c["detect.anomalies"] = static_cast<double>(pipe.detector()->stats().anomalies_emitted);
  }
}

void AddTailCounts(const exstream::IncrementalFeatureState::Stats& before,
                   const exstream::IncrementalFeatureState::Stats& after,
                   LayerCounts* counts) {
  (*counts)["tails.full_hits"] = static_cast<double>(after.full_hits - before.full_hits);
  (*counts)["tails.partial_hits"] =
      static_cast<double>(after.partial_hits - before.partial_hits);
  (*counts)["tails.misses"] = static_cast<double>(after.misses - before.misses);
}

void AddCacheCounts(const exstream::ExplainResultCache::Stats& stats, LayerCounts* counts) {
  const uint64_t lookups = std::max<uint64_t>(1, stats.hits + stats.misses);
  (*counts)["cache.hits"] = static_cast<double>(stats.hits);
  (*counts)["cache.misses"] = static_cast<double>(stats.misses);
  (*counts)["cache.hit_ratio"] = static_cast<double>(stats.hits) / static_cast<double>(lookups);
}

}  // namespace perfbench
