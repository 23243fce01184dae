#include "explain/explain_cache.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/file_util.h"
#include "sim/hadoop_sim.h"
#include "xstream/system.h"

namespace exstream {
namespace {

ExplanationReport MakeReport(const std::string& tag) {
  ExplanationReport report;
  report.annotation.abnormal.partition = tag;
  return report;
}

TEST(ExplainCacheTest, HitReturnsSameObject) {
  ExplainResultCache cache(4);
  int computed = 0;
  auto compute = [&]() -> Result<ExplanationReport> {
    ++computed;
    return MakeReport("a");
  };
  auto first = cache.GetOrCompute("k", compute);
  auto second = cache.GetOrCompute("k", compute);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(first.get(), second.get());  // shared, not copied
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ExplainCacheTest, LruEvictsOldest) {
  ExplainResultCache cache(2);
  auto make = [](const std::string& tag) {
    return [tag]() -> Result<ExplanationReport> { return MakeReport(tag); };
  };
  cache.GetOrCompute("a", make("a"));
  cache.GetOrCompute("b", make("b"));
  cache.GetOrCompute("a", make("a"));  // refresh a
  cache.GetOrCompute("c", make("c"));  // evicts b, the least recent
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ExplainCacheTest, ErrorsDeliveredButNotCached) {
  ExplainResultCache cache(4);
  int calls = 0;
  auto failing = [&]() -> Result<ExplanationReport> {
    ++calls;
    return Status::IOError("transient");
  };
  auto r1 = cache.GetOrCompute("k", failing);
  ASSERT_FALSE(r1->ok());
  // A transient failure must not poison the key: the next call recomputes.
  auto r2 = cache.GetOrCompute(
      "k", [&]() -> Result<ExplanationReport> { return MakeReport("ok"); });
  EXPECT_TRUE(r2->ok());
  EXPECT_EQ(calls, 1);
}

TEST(ExplainCacheTest, SingleFlightDedupesConcurrentCallers) {
  ExplainResultCache cache(4);
  std::atomic<int> computed{0};
  std::atomic<bool> release{false};
  auto slow = [&]() -> Result<ExplanationReport> {
    computed.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
    return MakeReport("slow");
  };
  std::vector<std::thread> threads;
  std::vector<ExplainResultCache::ResultPtr> results(4);
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] { results[t] = cache.GetOrCompute("k", slow); });
  }
  // Release the computation only once the other three callers have joined
  // it; releasing earlier lets a late caller find a cached result instead.
  while (cache.stats().single_flight_waits < 3) std::this_thread::yield();
  release.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(computed.load(), 1);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->ok());
  }
  EXPECT_EQ(cache.stats().computations, 1u);
  EXPECT_EQ(cache.stats().single_flight_waits, 3u);
}

TEST(ExplainCacheTest, ClearDropsEntries) {
  ExplainResultCache cache(4);
  cache.GetOrCompute("k",
                     []() -> Result<ExplanationReport> { return MakeReport("a"); });
  cache.Clear();
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ExplainCacheKeyTest, OptionsFingerprintIgnoresExecutionKnobs) {
  ExplainOptions a;
  ExplainOptions b = a;
  b.num_threads = 8;        // bit-identical results by contract
  b.deadline_ms = 1000.0;   // changes existence, not value
  EXPECT_EQ(FingerprintExplainOptions(a), FingerprintExplainOptions(b));

  ExplainOptions d = a;
  d.feature_space.windows.push_back(60);
  EXPECT_NE(FingerprintExplainOptions(a), FingerprintExplainOptions(d));
}

TEST(ExplainCacheKeyTest, KeySeparatesEveryDimension) {
  AnomalyAnnotation annotation;
  annotation.abnormal = {"Q", {60, 300}, "p1"};
  annotation.reference = {"Q", {360, 600}, "p1"};
  const ExplainOptions options;
  const std::string base = ExplainCacheKey(annotation, 0, "col", options, 7, 0);
  EXPECT_EQ(base, ExplainCacheKey(annotation, 0, "col", options, 7, 0));

  AnomalyAnnotation shifted = annotation;
  shifted.abnormal.range.upper = 301;
  EXPECT_NE(base, ExplainCacheKey(shifted, 0, "col", options, 7, 0));
  EXPECT_NE(base, ExplainCacheKey(annotation, 1, "col", options, 7, 0));
  EXPECT_NE(base, ExplainCacheKey(annotation, 0, "col2", options, 7, 0));
  EXPECT_NE(base, ExplainCacheKey(annotation, 0, "col", options, 8, 0));
  EXPECT_NE(base, ExplainCacheKey(annotation, 0, "col", options, 7, 1));
}

std::string MakeTempDir(const char* tag) {
  std::string tmpl = std::string("/tmp/exstream_") + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

class ServingCacheSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(HadoopClusterSim::RegisterEventTypes(&registry_).ok());
  }

  void StreamWorkload(XStreamSystem* system, uint64_t seed = 77) {
    HadoopSimConfig config;
    config.num_nodes = 3;
    config.seed = seed;
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
    ASSERT_TRUE(sim.Run(system).ok());
  }

  static AnomalyAnnotation Annotation() {
    AnomalyAnnotation annotation;
    annotation.abnormal = {"Q1", {60, 300}, "job-x"};
    annotation.reference = {"Q1", {360, 600}, "job-x"};
    return annotation;
  }

  EventTypeRegistry registry_;
};

constexpr char kQ1[] =
    "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
    "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";

TEST_F(ServingCacheSystemTest, RepeatHitsAndWatermarkInvalidation) {
  XStreamConfig config;
  config.explain.feature_space.windows = {10};
  config.serving.explain_cache_capacity = 8;
  XStreamSystem system(&registry_, config);
  auto qid = system.AddQuery(kQ1, "Q1");
  ASSERT_TRUE(qid.ok());
  StreamWorkload(&system);
  ASSERT_TRUE(system.IndexPartitions(*qid, {{"program", "p"}}).ok());

  const AnomalyAnnotation annotation = Annotation();
  auto first = system.Explain(annotation, *qid, "sum_dataSize");
  ASSERT_TRUE(first.ok());
  auto repeat = system.Explain(annotation, *qid, "sum_dataSize");
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(system.explain_cache()->stats().hits, 1u);
  EXPECT_EQ(system.explain_cache()->stats().computations, 1u);
  EXPECT_EQ(first->explanation.ToString(), repeat->explanation.ToString());

  // New data advances the watermark: the same request must recompute (the
  // cached answer no longer describes the current stream).
  const uint64_t before = system.data_watermark();
  Event probe(*registry_.IdOf("CpuUsage"), 10000,
              {Value(int64_t{0}), Value(1.0), Value(1.0), Value(1.0), Value(1.0)});
  system.OnEvent(probe);
  ASSERT_GT(system.data_watermark(), before);
  auto after = system.Explain(annotation, *qid, "sum_dataSize");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(system.explain_cache()->stats().computations, 2u);
}

TEST_F(ServingCacheSystemTest, DegradationStateChangesTheKey) {
  // A quarantined chunk changes what a scan can answer — a report computed
  // before the quarantine must not serve a request made after it, even at
  // the same data watermark: the degradation fingerprint is part of the key.
  XStreamConfig config;
  config.explain.feature_space.windows = {10};
  config.archive.chunk_capacity = 64;
  // Spill sealed chunks right away so there are files to rot.
  const std::string spill_dir = MakeTempDir("cache_deg");
  config.archive.spill_dir = spill_dir;
  config.archive.max_resident_chunks = 1;
  config.serving.explain_cache_capacity = 8;
  XStreamSystem system(&registry_, config);
  auto qid = system.AddQuery(kQ1, "Q1");
  ASSERT_TRUE(qid.ok());
  StreamWorkload(&system);
  ASSERT_TRUE(system.IndexPartitions(*qid, {{"program", "p"}}).ok());

  const AnomalyAnnotation annotation = Annotation();
  auto first = system.Explain(annotation, *qid, "sum_dataSize");
  ASSERT_TRUE(first.ok());
  const auto stats_before = system.explain_cache()->stats();
  auto repeat = system.Explain(annotation, *qid, "sum_dataSize");
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(system.explain_cache()->stats().hits, stats_before.hits + 1);

  // Rot one spill file's last byte (inside its last column block's CRC),
  // then scan the whole archive so the chunk is quarantined. No event is
  // ingested: only the degradation fingerprint moves.
  const uint64_t watermark = system.data_watermark();
  auto names = ListDirFiles(spill_dir);
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  ASSERT_FALSE(names->empty()) << "no chunk spilled";
  const std::string victim = spill_dir + "/" + names->front();
  FILE* f = fopen(victim.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, -1, SEEK_END), 0);
  const int c = fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(fseek(f, -1, SEEK_END), 0);
  fputc(c ^ 0x40, f);
  fclose(f);
  const TimeInterval all{std::numeric_limits<Timestamp>::min(),
                         std::numeric_limits<Timestamp>::max()};
  ASSERT_TRUE(system.archive().ScanAll(all).ok());
  ASSERT_EQ(system.archive().quarantined_chunks(), 1u);
  ASSERT_EQ(system.data_watermark(), watermark);

  auto after = system.Explain(annotation, *qid, "sum_dataSize");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(system.explain_cache()->stats().computations,
            stats_before.computations + 1);
}

}  // namespace
}  // namespace exstream
