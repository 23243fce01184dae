#include "features/incremental.h"

#include <gtest/gtest.h>

#include "feature_oracle.h"
#include "features/builder.h"
#include "features/feature_space.h"
#include "sim/hadoop_sim.h"
#include "xstream/system.h"

namespace exstream {
namespace {

class IncrementalFeatureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        registry_.Register(EventSchema("A", {{"x", ValueType::kDouble}})).ok());
    ASSERT_TRUE(
        registry_.Register(EventSchema("B", {{"y", ValueType::kInt64}})).ok());
  }

  Event MakeA(Timestamp ts, double x) { return Event(0, ts, {Value(x)}); }
  Event MakeB(Timestamp ts, int64_t y) { return Event(1, ts, {Value(y)}); }

  // Feeds the same events to the archive and the incremental state — the
  // invariant XStreamSystem::ApplyBatch maintains.
  void Feed(EventArchive* archive, IncrementalFeatureState* state,
            const Event& e) {
    ASSERT_TRUE(archive->Append(e).ok());
    state->OnEventBatch({e});
  }

  // Collects (ts, value-tag) rows from a view in segment order.
  static std::vector<std::pair<Timestamp, double>> Rows(const ScanView& view) {
    std::vector<std::pair<Timestamp, double>> out;
    for (const auto& seg : view.segments) {
      for (size_t i = seg.begin; i < seg.end; ++i) {
        const auto& col = seg.columns->attrs()[0];
        out.emplace_back(seg.columns->ts()[i], col.nums[i]);
      }
    }
    return out;
  }

  EventTypeRegistry registry_;
};

TEST_F(IncrementalFeatureTest, FullHitMatchesArchiveScan) {
  EventArchive archive(&registry_);
  IncrementalFeatureState state(&registry_);
  for (Timestamp t = 0; t < 200; ++t) Feed(&archive, &state, MakeA(t, t * 0.5));

  const TimeInterval interval{50, 149};
  auto tail = state.ScanWithBackfill(archive, 0, interval);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  auto scan = archive.ScanColumns(0, interval);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(Rows(*tail), Rows(*scan));
  EXPECT_EQ(state.stats().full_hits, 1u);
  EXPECT_EQ(state.stats().misses, 0u);
}

TEST_F(IncrementalFeatureTest, RetentionEvictsAndBackfills) {
  ArchiveOptions aopts;
  aopts.chunk_capacity = 32;
  EventArchive archive(&registry_, aopts);
  IncrementalFeatureState state(&registry_, /*retention=*/50);
  for (Timestamp t = 0; t < 300; ++t) Feed(&archive, &state, MakeA(t, t * 1.0));
  EXPECT_GT(state.stats().events_evicted, 0u);

  // Reaches below the coverage floor: cold prefix from the archive, tail for
  // the rest; rows must equal the pure archive scan exactly.
  const TimeInterval wide{0, 299};
  auto mixed = state.ScanWithBackfill(archive, 0, wide);
  ASSERT_TRUE(mixed.ok());
  auto scan = archive.ScanColumns(0, wide);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(Rows(*mixed), Rows(*scan));
  EXPECT_EQ(state.stats().partial_hits, 1u);

  // Fully inside the retained window: no archive involved.
  const TimeInterval recent{280, 299};
  auto tail = state.ScanWithBackfill(archive, 0, recent);
  ASSERT_TRUE(tail.ok());
  auto recent_scan = archive.ScanColumns(0, recent);
  ASSERT_TRUE(recent_scan.ok());
  EXPECT_EQ(Rows(*tail), Rows(*recent_scan));
  EXPECT_EQ(state.stats().full_hits, 1u);
}

TEST_F(IncrementalFeatureTest, CompactedTailKeepsStringDictionaryBounded) {
  ASSERT_TRUE(
      registry_.Register(EventSchema("C", {{"host", ValueType::kString}})).ok());
  EventArchive archive(&registry_);
  IncrementalFeatureState state(&registry_, /*retention=*/50);
  // Retention compacts the tail every few dozen rows; each compaction must
  // keep the two live hosts instead of interning them again.
  for (Timestamp t = 0; t < 2000; ++t) {
    Feed(&archive, &state, Event(2, t, {Value(t % 2 == 0 ? "h1" : "h2")}));
  }
  const TimeInterval recent{1960, 1999};
  auto tail = state.ScanWithBackfill(archive, 2, recent);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(state.stats().full_hits, 1u);
  ASSERT_EQ(tail->segments.size(), 1u);
  EXPECT_EQ(tail->segments[0].columns->attr(0).dict.size(), 2u);

  auto scan = archive.ScanColumns(2, recent);
  ASSERT_TRUE(scan.ok());
  std::vector<Event> got;
  std::vector<Event> want;
  tail->MaterializeEvents(&got);
  scan->MaterializeEvents(&want);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].ts, want[i].ts);
    ASSERT_EQ(got[i].values.size(), 1u);
    EXPECT_EQ(got[i].values[0].AsString(), want[i].values[0].AsString());
  }
}

TEST_F(IncrementalFeatureTest, OutOfOrderPoisonsTail) {
  // The archive rejects within-chunk disorder but a freshly sealed chunk's
  // first append is unchecked — the tail must never serve rows it can no
  // longer prove complete.
  ArchiveOptions aopts;
  aopts.chunk_capacity = 4;
  EventArchive archive(&registry_, aopts);
  IncrementalFeatureState state(&registry_);
  for (Timestamp t = 0; t < 8; ++t) Feed(&archive, &state, MakeA(t, 1.0));
  // ts 5 lands at a chunk boundary: archive accepts it out of order.
  ASSERT_TRUE(archive.Append(MakeA(5, 2.0)).ok());
  state.OnEventBatch({MakeA(5, 2.0)});
  EXPECT_EQ(state.stats().disorder_resets, 1u);
  for (Timestamp t = 8; t < 20; ++t) Feed(&archive, &state, MakeA(t, 1.0));

  // Anything overlapping the poisoned span must fall back to the archive and
  // still match it bit for bit.
  const TimeInterval span{0, 19};
  auto view = state.ScanWithBackfill(archive, 0, span);
  ASSERT_TRUE(view.ok());
  auto scan = archive.ScanColumns(0, span);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(Rows(*view), Rows(*scan));
}

TEST_F(IncrementalFeatureTest, BuilderDifferentialAcrossPaths) {
  ArchiveOptions aopts;
  aopts.chunk_capacity = 64;
  EventArchive archive(&registry_, aopts);
  IncrementalFeatureState state(&registry_, /*retention=*/120);
  std::vector<std::vector<Event>> fed(2);
  for (Timestamp t = 0; t < 400; ++t) {
    fed[0].push_back(MakeA(t, (t % 17) * 0.25));
    Feed(&archive, &state, fed[0].back());
    if (t % 3 == 0) {
      fed[1].push_back(MakeB(t, t % 5));
      Feed(&archive, &state, fed[1].back());
    }
  }

  FeatureSpaceOptions space;
  space.windows = {10};
  const std::vector<FeatureSpec> specs = GenerateFeatureSpecs(registry_, space);
  ASSERT_FALSE(specs.empty());
  const FeatureBuilder plain(&archive);
  const FeatureBuilder incremental(&archive, &state);
  const FeatureRowSource rows = [&](EventTypeId type) -> Result<std::vector<Event>> {
    return fed[type];
  };

  for (const TimeInterval interval :
       {TimeInterval{350, 399}, TimeInterval{0, 399}, TimeInterval{100, 250}}) {
    auto a = plain.Build(specs, interval);
    auto c = incremental.Build(specs, interval);
    auto oracle = OracleFeatures(rows, specs, interval);
    ASSERT_TRUE(a.ok() && c.ok() && oracle.ok());
    ASSERT_EQ(a->size(), oracle->size());
    ASSERT_EQ(c->size(), oracle->size());
    for (size_t i = 0; i < oracle->size(); ++i) {
      EXPECT_TRUE(SameSeriesBits((*a)[i].series, (*oracle)[i].series))
          << specs[i].Name();
      EXPECT_TRUE(SameSeriesBits((*c)[i].series, (*oracle)[i].series))
          << specs[i].Name();
    }
  }
  const auto stats = state.stats();
  EXPECT_GT(stats.full_hits + stats.partial_hits, 0u);
}

// End-to-end: a serving-enabled system explains a simulated anomaly with
// features from the tails; a plain engine over the same archive must produce
// the identical explanation.
TEST(IncrementalSystemTest, SystemExplainBitIdentical) {
  EventTypeRegistry registry;
  ASSERT_TRUE(HadoopClusterSim::RegisterEventTypes(&registry).ok());
  constexpr char kQ[] =
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
      "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";

  XStreamConfig config;
  config.explain.feature_space.windows = {10};
  config.serving.incremental_features = true;
  XStreamSystem system(&registry, config);
  auto qid = system.AddQuery(kQ, "Q1");
  ASSERT_TRUE(qid.ok());

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
  ASSERT_TRUE(sim.Run(&system).ok());
  ASSERT_TRUE(system.IndexPartitions(*qid, {{"program", "p"}}).ok());

  AnomalyAnnotation annotation;
  annotation.abnormal = {"Q1", {60, 300}, "job-x"};
  annotation.reference = {"Q1", {360, 600}, "job-x"};
  auto served = system.Explain(annotation, *qid, "sum_dataSize");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const auto stats = system.incremental()->stats();
  EXPECT_GT(stats.full_hits + stats.partial_hits, 0u);

  const ExplanationEngine plain(&system.archive(), &system.partitions(),
                                system.MakeSeriesProvider(*qid, "sum_dataSize"),
                                config.explain);
  auto scanned = plain.Explain(annotation);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(served->explanation.ToString(), scanned->explanation.ToString());
  ASSERT_EQ(served->ranked.size(), scanned->ranked.size());
  for (size_t i = 0; i < served->ranked.size(); ++i) {
    EXPECT_EQ(served->ranked[i].abnormal_series.values(),
              scanned->ranked[i].abnormal_series.values());
    EXPECT_EQ(served->ranked[i].reference_series.values(),
              scanned->ranked[i].reference_series.values());
  }
}

}  // namespace
}  // namespace exstream
