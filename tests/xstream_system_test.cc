#include "xstream/system.h"

#include <gtest/gtest.h>

#include "detect/streaming_detector.h"
#include "sim/hadoop_sim.h"

namespace exstream {
namespace {

class XStreamSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(HadoopClusterSim::RegisterEventTypes(&registry_).ok());
  }

  // Streams a small anomalous cluster run through `sink`.
  void StreamWorkload(EventSink* sink) {
    HadoopSimConfig config;
    config.num_nodes = 3;
    config.seed = 77;
    HadoopClusterSim sim(config, &registry_);
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
    ASSERT_TRUE(sim.Run(sink).ok());
  }

  EventTypeRegistry registry_;
};

constexpr char kQ1[] =
    "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
    "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";

TEST_F(XStreamSystemTest, MonitorArchiveExplainLoop) {
  XStreamConfig config;
  config.explain.feature_space.windows = {10};
  XStreamSystem system(&registry_, config);
  auto qid = system.AddQuery(kQ1, "Q1");
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();

  StreamWorkload(&system);
  EXPECT_GT(system.archive().TotalEvents(), 1000u);
  EXPECT_GT(system.engine().match_table(*qid).NumRows("job-x"), 50u);

  ASSERT_TRUE(system.IndexPartitions(*qid, {{"program", "p"}}).ok());
  EXPECT_EQ(system.partitions().size(), 1u);

  AnomalyAnnotation annotation;
  annotation.abnormal = {"Q1", {60, 300}, "job-x"};
  annotation.reference = {"Q1", {360, 600}, "job-x"};
  auto report = system.Explain(annotation, *qid, "sum_dataSize");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->final_features.empty());
  EXPECT_FALSE(system.explanation_active());
}

TEST_F(XStreamSystemTest, LatencyHistogramsPopulated) {
  XStreamSystem system(&registry_);
  ASSERT_TRUE(system.AddQuery(kQ1, "Q1").ok());
  StreamWorkload(&system);
  EXPECT_GT(system.idle_latency().count(), 0u);
  // Nothing was explained, so no busy samples.
  EXPECT_EQ(system.busy_latency().count(), 0u);
}

TEST_F(XStreamSystemTest, AsyncExplanationRunsConcurrently) {
  XStreamConfig config;
  config.explain.feature_space.windows = {10};
  XStreamSystem system(&registry_, config);
  auto qid = system.AddQuery(kQ1, "Q1");
  ASSERT_TRUE(qid.ok());
  StreamWorkload(&system);
  ASSERT_TRUE(system.IndexPartitions(*qid, {{"program", "p"}}).ok());

  AnomalyAnnotation annotation;
  annotation.abnormal = {"Q1", {60, 300}, "job-x"};
  annotation.reference = {"Q1", {360, 600}, "job-x"};
  auto future = system.ExplainAsync(annotation, *qid, "sum_dataSize");
  // Keep monitoring while the analysis runs.
  Event probe(*registry_.IdOf("CpuUsage"), 10000,
              {Value(int64_t{0}), Value(1.0), Value(1.0), Value(1.0), Value(1.0)});
  system.OnEvent(probe);
  auto report = future.get();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->final_features.empty());
}

// The system's detector subscribes only its query. Its anomalies must equal
// those of a detector fed through an all-queries callback that filters in the
// lambda, on a bare engine that sees the same stream.
TEST_F(XStreamSystemTest, SubscribedDetectorMatchesFilteredCallback) {
  // N1 and its replica share one table class, so the engine evaluates them
  // as one; Mon is another group.
  constexpr char kN1[] =
      "PATTERN SEQ(CpuUsage a, MemUsage b) WHERE [clusterNodeNumber] "
      "RETURN (b.timestamp, b.memFree)";
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"Mon", kQ1}, {"N1copy", kN1}, {"N1", kN1}};
  StreamingDetectorOptions options;
  options.warmup_samples = 8;
  options.z_threshold = 3.0;
  options.min_anomaly_samples = 2;
  options.cooldown_samples = 2;
  XStreamConfig config;
  config.serving.detector = options;
  config.serving.detect_query = "N1";
  config.serving.detect_column = "memFree";
  XStreamSystem system(&registry_, config);

  CepEngine engine(&registry_);
  StreamingDetector detector("N1", options);
  for (const auto& [name, text] : queries) {
    ASSERT_TRUE(system.AddQuery(text, name).ok()) << name;
    ASSERT_TRUE(engine.AddQueryText(text, name).ok()) << name;
  }
  ASSERT_NE(system.detector(), nullptr);
  const QueryId n1 = *engine.QueryIdByName("N1");
  const size_t col = *engine.match_table(n1).ColumnIndex("memFree");
  engine.SetMatchCallback([&detector, n1, col](const MatchNotification& n) {
    if (n.query != n1 || col >= n.row.values.size()) return;
    detector.Observe(n.partition, n.row.ts, n.row.values[col].AsDouble());
  });

  FanOutSink both;
  both.Attach(&engine);
  both.Attach(&system);  // last: takes ownership of each batch
  StreamWorkload(&both);
  system.Flush();
  system.FinalizeDetector();
  detector.FinalizeOpenExcursions();

  const std::vector<StreamAnomaly> want = detector.TakeReady();
  const std::vector<StreamAnomaly> got = system.detector()->TakeReady();
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].partition, want[i].partition) << i;
    EXPECT_EQ(got[i].peak_z, want[i].peak_z) << i;
    EXPECT_EQ(got[i].abnormal_samples, want[i].abnormal_samples) << i;
    EXPECT_EQ(got[i].annotation.ToString(), want[i].annotation.ToString()) << i;
  }
  EXPECT_EQ(system.detector()->stats().samples, detector.stats().samples);
}

TEST_F(XStreamSystemTest, BadQueryRejected) {
  XStreamSystem system(&registry_);
  EXPECT_FALSE(system.AddQuery("PATTERN SEQ(Nope n)", "bad").ok());
}

}  // namespace
}  // namespace exstream
