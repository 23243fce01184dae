// Shared pieces of the three workloads: the fixed system configuration, run
// bookkeeping (checks, operation counts, printed metrics) and the output
// checks every workload applies.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "explain/engine.h"
#include "explain/partition_table.h"
#include "inputs.h"
#include "measure.h"
#include "xstream/system.h"

namespace perfbench {

// ---- Fixed system configuration (recorded in perfbench/README.md) ----------

/// Events per archive chunk and resident sealed chunks per type: with the
/// stream's per-type counts, nearly every chunk spills.
inline constexpr size_t kChunkCapacity = 4096;
inline constexpr size_t kMaxResidentChunks = 2;
/// Trailing stream time the incremental tails keep: the last two episodes
/// are served from memory, older intervals backfill from spilled chunks.
inline constexpr exstream::Timestamp kTailRetention = 3200;
/// LRU capacity of the Explain result cache. The analyst's repeats target
/// its last two annotations, so a repeat hits and a fresh pick misses.
inline constexpr size_t kExplainCacheCapacity = 4;
/// Detector anomalies queued for auto-explain before the oldest is dropped.
inline constexpr size_t kAutoQueueCapacity = 64;
/// Batch sizes: closed-loop ingest and history preload, open-loop serve.
inline constexpr size_t kIngestBatch = 256;
inline constexpr size_t kServeBatch = 128;
/// Batches per window of the sustained-rate measurement (WindowRates).
inline constexpr size_t kRateWindow = 64;
/// The query mix must keep at least this many merge groups.
inline constexpr size_t kMinMergeGroups = 20;
/// The serve workload's fixed offered rate, well below ingest_eps.
inline constexpr double kServeRateEps = 7000.0;

/// Directory layout of one system instance under the run's work dir.
struct SystemDirs {
  std::string wal;
  std::string spill;
  std::string checkpoint;
};
SystemDirs FreshDirs(const std::string& root, const std::string& name);

exstream::ExplainOptions BenchExplainOptions();

enum class Workload { kIngest, kExplain, kServe };
/// The fixed configuration of `workload`'s system. Thread settings stay at
/// the library defaults.
exstream::XStreamConfig MakeConfig(Workload workload, const SystemDirs& dirs);

// ---- Run bookkeeping -------------------------------------------------------

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch space inside the checkout
  std::string state_dir;  ///< per-seed reference fingerprints, kept across runs
};

struct Run {
  RunArgs args;
  bool correct = true;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Records a failed output check (the run then reports correct=false).
  void Check(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 1, const std::string& note = "");
};

// ---- Output checks ---------------------------------------------------------

/// FNV-1a over every query's match table (SaveState bytes, each physical
/// table once, plus the query -> table mapping).
uint64_t MatchFingerprint(const exstream::CepEngine& engine);

/// Sum of rows over the engine's distinct physical match tables.
size_t PhysicalMatchRows(const exstream::CepEngine& engine);

/// \brief Compares `fp` with the fingerprint stored for this seed by an
/// earlier run or workload in the same checkout (stores it when absent).
void CheckSeedFingerprint(Run* run, uint64_t fp, const std::string& what);

/// Indexes the monitored query's partitions with their job family as the
/// dimension, so related partitions are the same family's jobs.
void IndexJobPartitions(const exstream::CepEngine& engine, exstream::QueryId query,
                        const Inputs& inputs, exstream::PartitionTable* table);

/// Explanation text plus the funnel counts: what a shadow or repeated
/// computation must reproduce exactly.
std::string ReportSignature(const exstream::ExplanationReport& report);

/// Whether an explanation names an AnomalyGroundTruthSignals prefix of the
/// injected type, and whether one of its features shares a correlation
/// cluster with such a signal (the cluster-aware reading of Fig. 14).
struct Consistency {
  bool named = false;
  bool in_cluster = false;
};
Consistency ExplanationConsistency(const exstream::ExplanationReport& report,
                                   exstream::AnomalyType type);

/// Counts consistent explanations and reports both ratios.
struct ConsistencyTally {
  size_t total = 0;
  size_t named = 0;
  size_t in_cluster = 0;
  void Add(const exstream::ExplanationReport& report, exstream::AnomalyType type);
  void Report(Run* run) const;
};

/// Fresh copies of the stream in batches of `size`.
std::vector<exstream::EventBatch> MakeBatches(const std::vector<exstream::Event>& events,
                                              size_t size);

/// Median of `reps` timed constructions of the workload's system with every
/// query added (the system is destroyed after each).
std::vector<double> TimeSystemSetups(Workload workload, const Inputs& inputs,
                                     const std::string& root, size_t reps);

/// Adds every query of the mix; returns the monitored query's id.
exstream::QueryId AddQueries(exstream::XStreamSystem* system, const Inputs& inputs,
                             Run* run);

/// Counts system fault counters as failed operations.
void CountFaults(Run* run, const exstream::XStreamSystem& system);

void RunIngest(Run* run, const Inputs& inputs);
void RunExplain(Run* run, const Inputs& inputs);
void RunServe(Run* run, const Inputs& inputs);

}  // namespace perfbench
