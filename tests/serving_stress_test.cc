// Stress test of the continuous-serving layer (meant for TSan).
//
// One system runs everything the serving PR added, all at once:
//  * batched ingestion feeding the incremental feature tails,
//  * the streaming detector observing match notifications and auto-triggering
//    Explains on its background worker,
//  * interactive threads hammering the cached Explain path with repeated and
//    overlapping requests while the data watermark advances underneath them,
//  * stats/watermark readers polling the serving surfaces.
// Ingest holds before its last batch until an interactive Explain has
// succeeded, so at least one success provably overlapped ingest.
// Afterwards the final explanation must still be bit-identical to a plain
// archive-scan engine over the same data — concurrency may change timing,
// never results.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "explain/engine.h"
#include "sim/hadoop_sim.h"
#include "xstream/system.h"

namespace exstream {
namespace {

constexpr char kQ1[] =
    "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
    "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";

TEST(ServingStressTest, ConcurrentAutoAndInteractiveExplainsDuringBatchedIngest) {
  EventTypeRegistry registry;
  ASSERT_TRUE(HadoopClusterSim::RegisterEventTypes(&registry).ok());

  XStreamConfig config;
  config.explain.feature_space.windows = {10};
  config.explain.num_threads = 2;
  config.explain.enable_validation = false;  // partitions index mid-stream
  config.serving.incremental_features = true;
  config.serving.incremental_retention = 400;  // force eviction + backfill
  config.serving.explain_cache_capacity = 16;
  StreamingDetectorOptions detector_options;
  detector_options.warmup_samples = 16;
  detector_options.z_threshold = 3.0;
  detector_options.min_anomaly_samples = 2;
  detector_options.cooldown_samples = 2;
  config.serving.detector = detector_options;
  config.serving.auto_explain = true;
  XStreamSystem system(&registry, config);
  auto qid = system.AddQuery(kQ1, "Q1");
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();
  ASSERT_NE(system.detector(), nullptr);

  // Simulate the anomalous run into a buffer so ingest can be batched
  // while the Explains run.
  HadoopSimConfig sim_config;
  sim_config.num_nodes = 3;
  sim_config.seed = 77;
  HadoopClusterSim sim(sim_config, &registry);
  HadoopJobConfig job;
  job.job_id = "job-x";
  job.program = "p";
  job.dataset = "d";
  sim.AddJob(job);
  AnomalySpec anomaly;
  anomaly.type = AnomalyType::kHighMemory;
  anomaly.start = 60;
  anomaly.end = 300;
  sim.AddAnomaly(anomaly);
  VectorSink sink;
  ASSERT_TRUE(sim.Run(&sink).ok());
  const std::vector<Event>& stream = sink.events();
  ASSERT_GT(stream.size(), 1000u);

  AnomalyAnnotation annotation;
  annotation.abnormal = {"Q1", {60, 300}, "job-x"};
  annotation.reference = {"Q1", {360, 600}, "job-x"};

  std::atomic<bool> done{false};
  std::atomic<size_t> interactive_ok{0};
  std::vector<std::thread> explainers;
  for (int t = 0; t < 2; ++t) {
    explainers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        // Early calls race the stream's first match rows and may fail;
        // errors are legal (and must not be cached), data races are not.
        auto report = system.Explain(annotation, *qid, "sum_dataSize");
        if (report.ok()) interactive_ok.fetch_add(1);
      }
    });
  }
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)system.data_watermark();
      if (system.incremental() != nullptr) (void)system.incremental()->stats();
      if (system.explain_cache() != nullptr) {
        (void)system.explain_cache()->stats();
      }
      if (system.detector() != nullptr) (void)system.detector()->stats();
      (void)system.TakeAutoExplanations();
      std::this_thread::yield();
    }
  });

  constexpr size_t kBatch = 128;
  const size_t last_batch = (stream.size() - 1) / kBatch * kBatch;
  const auto ingest = [&](size_t i) {
    const size_t end = std::min(stream.size(), i + kBatch);
    system.OnEventBatch(EventBatch(stream.begin() + static_cast<ptrdiff_t>(i),
                                   stream.begin() + static_cast<ptrdiff_t>(end)));
  };
  for (size_t i = 0; i < last_batch; i += kBatch) ingest(i);
  // Hold the last batch until an interactive Explain has succeeded (bounded,
  // so a broken serving path fails below instead of hanging): the count read
  // here is of Explains that ran while ingest was still in progress.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (interactive_ok.load() == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const size_t ok_during_ingest = interactive_ok.load();
  ingest(last_batch);
  system.Flush();
  system.DrainAutoExplains();
  done.store(true, std::memory_order_release);
  for (std::thread& t : explainers) t.join();
  poller.join();

  // The stream carries a large sustained anomaly; interactive explains must
  // have succeeded once the match table filled in, before ingest finished.
  EXPECT_GT(ok_during_ingest, 0u)
      << "no interactive Explain succeeded while ingest was running";
  auto final_report = system.Explain(annotation, *qid, "sum_dataSize");
  ASSERT_TRUE(final_report.ok()) << final_report.status().ToString();

  // Quiesced: the served explanation still equals the plain scan path.
  const ExplanationEngine scan_engine(
      &system.archive(), &system.partitions(),
      system.MakeSeriesProvider(*qid, "sum_dataSize"), config.explain);
  auto scan_report = scan_engine.Explain(annotation);
  ASSERT_TRUE(scan_report.ok());
  EXPECT_EQ(final_report->explanation.ToString(),
            scan_report->explanation.ToString());
  ASSERT_EQ(final_report->ranked.size(), scan_report->ranked.size());
  for (size_t i = 0; i < final_report->ranked.size(); ++i) {
    EXPECT_EQ(final_report->ranked[i].abnormal_series.values(),
              scan_report->ranked[i].abnormal_series.values());
    EXPECT_EQ(final_report->ranked[i].reference_series.values(),
              scan_report->ranked[i].reference_series.values());
  }

  // Serving counters moved and stayed coherent.
  const auto cache_stats = system.explain_cache()->stats();
  EXPECT_GT(cache_stats.computations, 0u);
  EXPECT_GE(cache_stats.misses, cache_stats.computations);
  const auto tail_stats = system.incremental()->stats();
  EXPECT_GT(tail_stats.full_hits + tail_stats.partial_hits + tail_stats.misses,
            0u);
}

}  // namespace
}  // namespace exstream
