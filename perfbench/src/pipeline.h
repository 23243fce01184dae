// The traced run's pipelines, assembled from the layers' public objects and
// functions so each call can carry a span:
//
//  - DecomposedIngest holds the layer objects an XStreamSystem owns and
//    calls them in XStreamSystem::ApplyBatch order (guard -> WAL -> CEP with
//    the detector on its match callback -> incremental tails -> archive). It
//    must reproduce the system's match tables, archive and WAL cursor.
//  - ShadowExplainer calls the explanation stages in ExplanationEngine::
//    Explain order, with the feature build split into its archive/tail scans
//    and the fold. It must reproduce every report the system returns.

#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "cep/engine.h"
#include "detect/streaming_detector.h"
#include "explain/engine.h"
#include "explain/explain_cache.h"
#include "explain/partition_table.h"
#include "features/incremental.h"
#include "io/wal.h"
#include "trace.h"
#include "xstream/ingest_guard.h"
#include "xstream/system.h"

namespace perfbench {

class DecomposedIngest {
 public:
  /// Builds the layers from the same configuration an XStreamSystem gets.
  DecomposedIngest(const exstream::EventTypeRegistry* registry,
                   const exstream::XStreamConfig& config, SpanRecorder* trace);
  DecomposedIngest(const DecomposedIngest&) = delete;
  DecomposedIngest& operator=(const DecomposedIngest&) = delete;

  exstream::Status AddQuery(const std::string& text, const std::string& name);
  /// One OnEventBatch of the system: guard, WAL, engine, tails, archive.
  void OnEventBatch(exstream::EventBatch batch, uint64_t request);
  /// Releases what the guard holds (the system's Flush).
  void Flush(uint64_t request);
  /// Finalized detector anomalies so far.
  std::vector<exstream::StreamAnomaly> TakeAnomalies();

  const exstream::CepEngine& engine() const { return *engine_; }
  exstream::RejectReport reject_report() const { return guard_.report(); }
  const exstream::EventArchive& archive() const { return *archive_; }
  const exstream::IncrementalFeatureState* tails() const { return tails_.get(); }
  const exstream::WriteAheadLog* wal() const { return wal_.get(); }
  const exstream::StreamingDetector* detector() const { return detector_.get(); }
  exstream::PartitionTable& partitions() { return partitions_; }
  uint64_t next_seq() const { return next_seq_; }
  /// Events applied so far (the cache key's data version).
  uint64_t watermark() const { return watermark_.load(std::memory_order_acquire); }
  exstream::QueryId monitor_query() const { return monitor_query_; }
  exstream::QueryId detect_query() const { return detect_query_; }
  exstream::SeriesProvider MakeSeriesProvider() const;

 private:
  void Apply(exstream::EventBatch batch, uint64_t request);

  SpanRecorder* trace_;
  exstream::IngestGuard guard_;
  std::unique_ptr<exstream::WriteAheadLog> wal_;
  std::unique_ptr<exstream::CepEngine> engine_;
  std::unique_ptr<exstream::IncrementalFeatureState> tails_;
  std::unique_ptr<exstream::EventArchive> archive_;
  std::unique_ptr<exstream::StreamingDetector> detector_;
  std::optional<exstream::StreamingDetectorOptions> detector_options_;
  exstream::PartitionTable partitions_;
  exstream::QueryId monitor_query_ = 0;
  exstream::QueryId detect_query_ = 0;
  uint64_t next_seq_ = 0;
  std::atomic<uint64_t> watermark_{0};
};

/// The explanation pipeline run stage by stage, each stage under a span.
class ShadowExplainer {
 public:
  ShadowExplainer(const exstream::EventArchive* archive,
                  const exstream::PartitionTable* partitions,
                  exstream::SeriesProvider series, exstream::ExplainOptions options,
                  const exstream::IncrementalFeatureState* tails, SpanRecorder* trace);

  /// The uncached pipeline (ExplanationEngine::Explain's stages).
  exstream::Result<exstream::ExplanationReport> Explain(
      const exstream::AnomalyAnnotation& annotation, uint64_t request) const;

  /// FeatureBuilder::Build (exact rows, serial), split into per-type scans
  /// (`archive.scan` spans) and the fold (the caller's span).
  exstream::Result<std::vector<exstream::Feature>> Build(
      const std::vector<exstream::FeatureSpec>& specs,
      const exstream::TimeInterval& interval, exstream::DegradationReport* degradation,
      uint64_t request) const;

 private:
  exstream::Status Validate(const exstream::AnomalyAnnotation& annotation,
                            exstream::ExplanationReport* report, uint64_t request) const;

  const exstream::EventArchive* archive_;
  const exstream::PartitionTable* partitions_;
  exstream::SeriesProvider series_;
  exstream::ExplainOptions options_;
  const exstream::IncrementalFeatureState* tails_;
  SpanRecorder* trace_;
  std::vector<exstream::FeatureSpec> specs_;
};

/// The result cache in front of a shadow explainer, keyed like the system's.
exstream::ExplainResultCache::ResultPtr CachedShadowExplain(
    exstream::ExplainResultCache* cache, const ShadowExplainer& shadow,
    const exstream::AnomalyAnnotation& annotation, exstream::QueryId query,
    uint64_t watermark, SpanRecorder* trace, uint64_t request);

}  // namespace perfbench
