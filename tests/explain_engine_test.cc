// Unit tests of the ExplanationEngine on a small synthetic archive (no
// simulator): one shifted metric, one stable metric, one monotone
// false-positive metric.

#include "explain/engine.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace exstream {
namespace {

class ExplainEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Metric", {{"shifted", ValueType::kDouble},
                                                     {"stable", ValueType::kDouble},
                                                     {"monotone", ValueType::kDouble}}))
                    .ok());
    archive_ = std::make_unique<EventArchive>(&registry_);
    // t in [0, 400): anomaly during [100, 200): `shifted` drops from ~50 to
    // ~10; `stable` hovers at 5; `monotone` is t itself.
    Rng rng(33);
    for (Timestamp t = 0; t < 400; ++t) {
      const bool anomalous = t >= 100 && t < 200;
      ASSERT_TRUE(archive_
                      ->Append(Event(0, t,
                                     {Value((anomalous ? 10.0 : 50.0) +
                                            rng.Gaussian(0, 1)),
                                      Value(5.0 + rng.Gaussian(0, 0.5)),
                                      Value(static_cast<double>(t))}))
                      .ok());
    }
  }

  ExplainOptions Options(bool clustering = true) {
    ExplainOptions options;
    options.feature_space.windows = {10};
    options.enable_validation = false;  // no partitions in this fixture
    options.enable_clustering = clustering;
    return options;
  }

  AnomalyAnnotation Annotation() {
    AnomalyAnnotation a;
    a.abnormal = {"Q", {100, 199}, "p"};
    a.reference = {"Q", {200, 399}, "p"};
    return a;
  }

  EventTypeRegistry registry_;
  std::unique_ptr<EventArchive> archive_;
};

TEST_F(ExplainEngineTest, FindsTheShiftedMetric) {
  ExplanationEngine engine(archive_.get(), nullptr, nullptr, Options());
  auto report = engine.Explain(Annotation());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->final_features.empty());
  bool found_shifted = false;
  for (const auto& f : report->final_features) {
    if (f.spec.attribute_name == "shifted") found_shifted = true;
    EXPECT_NE(f.spec.attribute_name, "stable");  // no reward, never selected
  }
  EXPECT_TRUE(found_shifted);
  EXPECT_FALSE(report->explanation.empty());
}

TEST_F(ExplainEngineTest, ExplanationPredictsItsOwnIntervals) {
  ExplanationEngine engine(archive_.get(), nullptr, nullptr, Options());
  auto report = engine.Explain(Annotation());
  ASSERT_TRUE(report.ok());
  // Evaluate on representative values: shifted=10 abnormal, 50 normal. The
  // explanation references some subset of features; provide all plausible
  // names.
  std::map<std::string, double> abnormal_row;
  std::map<std::string, double> normal_row;
  for (const auto& f : report->final_features) {
    const std::string name = f.spec.Name();
    if (f.spec.attribute_name == "shifted") {
      abnormal_row[name] = 10.0;
      normal_row[name] = 50.0;
    } else if (f.spec.attribute_name == "monotone") {
      abnormal_row[name] = 150.0;
      normal_row[name] = 300.0;
    }
  }
  EXPECT_TRUE(report->explanation.Eval(abnormal_row));
  EXPECT_FALSE(report->explanation.Eval(normal_row));
}

TEST_F(ExplainEngineTest, WithoutValidationMonotoneFeatureSurvives) {
  // The monotone metric perfectly separates the two intervals of one
  // partition; with Step 2 disabled nothing can remove it.
  ExplanationEngine engine(archive_.get(), nullptr, nullptr, Options(false));
  auto report = engine.Explain(Annotation());
  ASSERT_TRUE(report.ok());
  bool monotone_present = false;
  for (const auto& f : report->after_validation) {
    if (f.spec.attribute_name == "monotone") monotone_present = true;
  }
  EXPECT_TRUE(monotone_present);
}

TEST_F(ExplainEngineTest, ClusteringReducesFeatureCount) {
  ExplanationEngine with(archive_.get(), nullptr, nullptr, Options(true));
  ExplanationEngine without(archive_.get(), nullptr, nullptr, Options(false));
  auto r_with = with.Explain(Annotation());
  auto r_without = without.Explain(Annotation());
  ASSERT_TRUE(r_with.ok());
  ASSERT_TRUE(r_without.ok());
  EXPECT_LE(r_with->final_features.size(), r_without->final_features.size());
}

TEST_F(ExplainEngineTest, ReportStagesAreOrderedSubsets) {
  ExplanationEngine engine(archive_.get(), nullptr, nullptr, Options());
  auto report = engine.Explain(Annotation());
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->ranked.size(), report->after_leap.size());
  EXPECT_GE(report->after_leap.size(), report->after_validation.size());
  EXPECT_GE(report->after_validation.size(), report->final_features.size());
  // Ranked output is sorted by reward descending.
  for (size_t i = 1; i < report->ranked.size(); ++i) {
    EXPECT_GE(report->ranked[i - 1].reward(), report->ranked[i].reward());
  }
  EXPECT_GE(report->duration_seconds, 0.0);
}

TEST_F(ExplainEngineTest, MinSupportZeroesOutSparseFeatures) {
  ExplainOptions options = Options();
  options.min_support = 1000000;  // nothing has this much support
  ExplanationEngine engine(archive_.get(), nullptr, nullptr, options);
  auto report = engine.Explain(Annotation());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->after_leap.empty());
  EXPECT_TRUE(report->explanation.empty());
}

TEST_F(ExplainEngineTest, SelectedFeatureNames) {
  ExplanationEngine engine(archive_.get(), nullptr, nullptr, Options());
  auto report = engine.Explain(Annotation());
  ASSERT_TRUE(report.ok());
  const auto names = report->SelectedFeatureNames();
  EXPECT_EQ(names.size(), report->final_features.size());
}

// The same metric stream in a spilling archive whose spill-read hook counts
// decodes: chunks of 32 rows, every sealed chunk but the newest two on disk,
// so chunks 0..9 (ts 0..319) are spilled.
class ExplainSharedDecodeTest : public ExplainEngineTest {
 protected:
  void SetUp() override {
    ExplainEngineTest::SetUp();
    char tmpl[] = "/tmp/exstream_explain_decode_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    ArchiveOptions options;
    options.chunk_capacity = 32;
    options.spill_dir = std::string(tmpl);
    options.max_resident_chunks = 2;
    options.spill_read_hook_for_testing = [this] { ++decodes_; };
    auto rows = archive_->Scan(0, {0, 399});
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    spilling_ = std::make_unique<EventArchive>(&registry_, options);
    for (const Event& e : *rows) ASSERT_TRUE(spilling_->Append(e).ok());
  }

  std::unique_ptr<EventArchive> spilling_;
  std::atomic<size_t> decodes_{0};
};

TEST_F(ExplainSharedDecodeTest, ExplainDecodesEachSpilledChunkOnce) {
  // I_A [100, 199] reads spilled chunks 3..6 and I_R [200, 399] chunks 6..9:
  // chunk 6 is read by both builds but decoded once, because the first
  // build's segments stay pinned until Explain returns.
  ExplanationEngine engine(spilling_.get(), nullptr, nullptr, Options());
  auto report = engine.Explain(Annotation());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(decodes_.load(), 7u);

  // The pins are dropped on return: the next Explain reads the files again.
  auto again = engine.Explain(Annotation());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(decodes_.load(), 14u);
  EXPECT_EQ(again->SelectedFeatureNames(), report->SelectedFeatureNames());
}

TEST_F(ExplainSharedDecodeTest, ValidationBuildsReuseTheExplainsDecodes) {
  // Step 2 rebuilds the survivors over the annotated intervals and the
  // labeled remainder [0, 99] of the partition, on the worker pool. With
  // the pins passed through, no spilled chunk is decoded twice in one call.
  PartitionTable partitions;
  PartitionRecord record;
  record.query_name = "Q";
  record.partition = "p";
  record.start_ts = 0;
  record.end_ts = 399;
  record.num_points = 400;
  partitions.Upsert(record);
  TimeSeries monitored;
  for (Timestamp t = 0; t < 400; ++t) {
    ASSERT_TRUE(monitored.Append(t, t >= 100 && t < 200 ? 10.0 : 50.0).ok());
  }
  const SeriesProvider provider = [&](const std::string&, const std::string&) {
    return Result<TimeSeries>(monitored);
  };
  ExplainOptions options = Options();
  options.enable_validation = true;
  options.num_threads = 4;
  ExplanationEngine engine(spilling_.get(), &partitions, provider, options);
  auto report = engine.Explain(Annotation());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->num_labeled_abnormal + report->num_labeled_reference, 0u);
  EXPECT_LE(decodes_.load(), 10u);  // chunks 0..9, each at most once
}

}  // namespace
}  // namespace exstream
