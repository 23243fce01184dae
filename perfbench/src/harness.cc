#include "harness.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/bytes.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace perfbench {

using namespace exstream;

SystemDirs FreshDirs(const std::string& root, const std::string& name) {
  SystemDirs d;
  const std::string base = root + "/" + name;
  std::filesystem::remove_all(base);
  d.wal = base + "/wal";
  d.spill = base + "/spill";
  d.checkpoint = base + "/checkpoint";
  for (const std::string& dir : {d.wal, d.spill, d.checkpoint}) {
    std::filesystem::create_directories(dir);
  }
  return d;
}

ExplainOptions BenchExplainOptions() {
  ExplainOptions o;
  o.feature_space.windows = {10, 30};
  return o;
}

XStreamConfig MakeConfig(Workload workload, const SystemDirs& dirs) {
  XStreamConfig c;
  c.archive.spill_dir = dirs.spill;
  c.archive.chunk_capacity = kChunkCapacity;
  c.archive.max_resident_chunks = kMaxResidentChunks;
  c.explain = BenchExplainOptions();
  c.serving.incremental_features = true;
  c.serving.incremental_retention = kTailRetention;
  c.serving.explain_cache_capacity = kExplainCacheCapacity;
  if (workload != Workload::kExplain) {
    c.durability.wal_dir = dirs.wal;
    c.durability.fsync = WalFsyncPolicy::kInterval;
    c.serving.detector = StreamingDetectorOptions{};
    c.serving.detect_query = kDetectQuery;
    c.serving.detect_column = kDetectColumn;
  }
  if (workload == Workload::kServe) {
    c.serving.auto_explain = true;
    c.serving.auto_queue_capacity = kAutoQueueCapacity;
    c.serving.max_auto_explanations = kAutoQueueCapacity;
  }
  return c;
}

void Run::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
  fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Run::Add(const std::string& name, double value, const std::string& unit,
              size_t samples, const std::string& note) {
  metrics.push_back({name, value, unit, samples, note});
}

namespace {

uint64_t Fnv(uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

uint64_t MatchFingerprint(const CepEngine& engine) {
  uint64_t h = 1469598103934665603ull;
  std::vector<const MatchTable*> seen;
  for (QueryId q = 0; q < engine.num_queries(); ++q) {
    const MatchTable* t = &engine.match_table(q);
    size_t idx = 0;
    while (idx < seen.size() && seen[idx] != t) ++idx;
    h = Fnv(h, std::to_string(idx) + ";");
    if (idx < seen.size()) continue;
    seen.push_back(t);
    BytesWriter w;
    t->SaveState(&w);
    h = Fnv(h, w.Take());
  }
  return h;
}

size_t PhysicalMatchRows(const CepEngine& engine) {
  std::set<const MatchTable*> tables;
  for (QueryId q = 0; q < engine.num_queries(); ++q) tables.insert(&engine.match_table(q));
  size_t rows = 0;
  for (const MatchTable* t : tables) rows += t->TotalRows();
  return rows;
}

void CheckSeedFingerprint(Run* run, uint64_t fp, const std::string& what) {
  std::filesystem::create_directories(run->args.state_dir);
  const std::string path = StrFormat("%s/fingerprint-%llu.txt", run->args.state_dir.c_str(),
                                     static_cast<unsigned long long>(run->args.seed));
  const std::string mine = StrFormat("%016llx", static_cast<unsigned long long>(fp));
  std::ifstream in(path);
  std::string stored;
  if (in >> stored) {
    run->Check(stored == mine, what + ": match-table fingerprint " + mine +
                                   " differs from " + stored +
                                   " recorded earlier for this seed");
    return;
  }
  std::ofstream(path) << mine << "\n";
}

void IndexJobPartitions(const CepEngine& engine, QueryId query, const Inputs& inputs,
                        PartitionTable* table) {
  const MatchTable& matches = engine.match_table(query);
  for (const auto& [job, family] : inputs.job_family) {
    auto series = matches.ExtractSeries(job, kMonitorColumn);
    if (!series.ok() || series->empty()) continue;
    PartitionRecord rec;
    rec.query_name = kMonitorQuery;
    rec.partition = job;
    rec.dimensions = {{"family", family}};
    rec.start_ts = series->start_time();
    rec.end_ts = series->end_time();
    rec.num_points = series->size();
    table->Upsert(std::move(rec));
  }
}

std::string ReportSignature(const ExplanationReport& r) {
  std::string out = StrFormat(
      "ranked=%zu leap=%zu validated=%zu final=%zu related=%zu labeled=%zu/%zu/%zu | ",
      r.ranked.size(), r.after_leap.size(), r.after_validation.size(),
      r.final_features.size(), r.num_related_partitions, r.num_labeled_abnormal,
      r.num_labeled_reference, r.num_discarded);
  for (const RankedFeature& f : r.ranked) {
    out += StrFormat("%s=%.17g;", f.spec.Name().c_str(), f.reward());
  }
  return out + " | " + r.explanation.ToString();
}

namespace {

bool NamesSignal(const std::string& feature, AnomalyType type) {
  for (const std::string& g : AnomalyGroundTruthSignals(type)) {
    if (feature == g || feature.rfind(g + ".", 0) == 0) return true;
  }
  return false;
}

}  // namespace

Consistency ExplanationConsistency(const ExplanationReport& report, AnomalyType type) {
  Consistency c;
  const std::vector<RankedFeature>& features = report.after_validation;
  const std::vector<int>& labels = report.clustering.cluster_labels;
  std::set<int> truth_clusters;
  for (size_t i = 0; i < features.size() && i < labels.size(); ++i) {
    if (NamesSignal(features[i].spec.Name(), type)) truth_clusters.insert(labels[i]);
  }
  for (const RankedFeature& f : report.final_features) {
    const std::string name = f.spec.Name();
    if (NamesSignal(name, type)) c.named = true;
    for (size_t i = 0; i < features.size() && i < labels.size(); ++i) {
      if (features[i].spec.Name() == name && truth_clusters.count(labels[i]) > 0) {
        c.in_cluster = true;
      }
    }
  }
  return c;
}

void ConsistencyTally::Add(const ExplanationReport& report, AnomalyType type) {
  const Consistency c = ExplanationConsistency(report, type);
  ++total;
  named += c.named ? 1 : 0;
  in_cluster += c.in_cluster ? 1 : 0;
}

void ConsistencyTally::Report(Run* run) const {
  const double n = static_cast<double>(std::max<size_t>(1, total));
  run->Add("explanation_consistency", static_cast<double>(named) / n, "ratio", total,
           "explanation names a ground-truth signal");
  run->Add("explanation_consistency_cluster", static_cast<double>(in_cluster) / n, "ratio",
           total, "an explanation feature shares a cluster with one");
}

std::vector<EventBatch> MakeBatches(const std::vector<Event>& events, size_t size) {
  std::vector<EventBatch> out;
  out.reserve(events.size() / size + 1);
  for (size_t i = 0; i < events.size(); i += size) {
    out.emplace_back(events.begin() + static_cast<ptrdiff_t>(i),
                     events.begin() + static_cast<ptrdiff_t>(std::min(events.size(), i + size)));
  }
  return out;
}

QueryId AddQueries(XStreamSystem* system, const Inputs& inputs, Run* run) {
  QueryId monitor = 0;
  for (size_t i = 0; i < inputs.queries.size(); ++i) {
    auto id = system->AddQuery(inputs.queries[i].text, inputs.queries[i].name);
    run->Check(id.ok(), "AddQuery " + inputs.queries[i].text + ": " +
                            id.status().ToString());
    if (id.ok() && i == 0) monitor = *id;
  }
  const size_t groups = system->engine().merge_stats().groups;
  run->Check(groups >= kMinMergeGroups,
             StrFormat("query mix collapsed to %zu merge groups", groups));
  return monitor;
}

std::vector<double> TimeSystemSetups(Workload workload, const Inputs& inputs,
                                     const std::string& root, size_t reps) {
  std::vector<double> out;
  Run scratch;
  for (size_t r = 0; r < reps; ++r) {
    const SystemDirs dirs = FreshDirs(root, "setup");
    Stopwatch t;
    auto system = std::make_unique<XStreamSystem>(inputs.registry.get(),
                                                  MakeConfig(workload, dirs));
    AddQueries(system.get(), inputs, &scratch);
    out.push_back(t.ElapsedSeconds());
  }
  return out;
}

void CountFaults(Run* run, const XStreamSystem& system) {
  const XStreamSystem::FaultStats f = system.fault_stats();
  const size_t faults = f.spill_write_failures + f.quarantined_chunks + f.degraded_scans +
                        f.rejected_events + f.shed_events + f.wal_append_failures +
                        f.wal_sync_failures + system.auto_anomalies_dropped();
  run->failed += faults;
  run->Check(faults == 0, StrFormat("system fault counters: %zu failed operations", faults));
}

}  // namespace perfbench
