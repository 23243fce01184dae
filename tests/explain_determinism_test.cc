// Determinism of the parallel explanation pipeline: Explain() must return an
// identical ExplanationReport — same ranking, same rewards, same final CNF —
// for any num_threads. Every parallel stage is index-addressed and merged in
// deterministic order, so this holds bit-for-bit, not just approximately.

#include <limits>

#include <gtest/gtest.h>

#include "feature_oracle.h"
#include "sim/workloads.h"

namespace exstream {
namespace {

WorkloadRunOptions FastOptions() {
  WorkloadRunOptions options;
  options.num_nodes = 4;
  options.num_normal_jobs = 2;
  options.sc_num_sensors = 6;
  options.sc_num_machines = 6;
  return options;
}

ExplanationReport ExplainWithThreads(const WorkloadRun& run, size_t num_threads) {
  ExplainOptions options = run.DefaultExplainOptions();
  options.num_threads = num_threads;
  ExplanationEngine engine = run.MakeExplanationEngine(std::move(options));
  auto report = engine.Explain(run.annotation);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).MoveValue();
}

// Bitwise equality everywhere: the parallel run must not merely be close, it
// must execute the same floating-point operations per feature.
void ExpectIdenticalReports(const ExplanationReport& a, const ExplanationReport& b,
                            size_t num_threads) {
  SCOPED_TRACE("num_threads=" + std::to_string(num_threads));

  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].spec.Name(), b.ranked[i].spec.Name()) << i;
    EXPECT_EQ(a.ranked[i].reward(), b.ranked[i].reward()) << i;
    EXPECT_EQ(a.ranked[i].entropy.regularized_entropy,
              b.ranked[i].entropy.regularized_entropy)
        << i;
    EXPECT_EQ(a.ranked[i].abnormal_series.size(), b.ranked[i].abnormal_series.size());
    EXPECT_EQ(a.ranked[i].reference_series.size(),
              b.ranked[i].reference_series.size());
  }

  ASSERT_EQ(a.after_leap.size(), b.after_leap.size());
  for (size_t i = 0; i < a.after_leap.size(); ++i) {
    EXPECT_EQ(a.after_leap[i].spec.Name(), b.after_leap[i].spec.Name()) << i;
  }

  EXPECT_EQ(a.num_related_partitions, b.num_related_partitions);
  EXPECT_EQ(a.num_labeled_abnormal, b.num_labeled_abnormal);
  EXPECT_EQ(a.num_labeled_reference, b.num_labeled_reference);
  EXPECT_EQ(a.num_discarded, b.num_discarded);

  ASSERT_EQ(a.validation.size(), b.validation.size());
  for (size_t i = 0; i < a.validation.size(); ++i) {
    EXPECT_EQ(a.validation[i].feature.spec.Name(), b.validation[i].feature.spec.Name());
    EXPECT_EQ(a.validation[i].annotated_reward, b.validation[i].annotated_reward) << i;
    EXPECT_EQ(a.validation[i].validated_reward, b.validation[i].validated_reward) << i;
    EXPECT_EQ(a.validation[i].kept, b.validation[i].kept) << i;
  }

  EXPECT_EQ(a.SelectedFeatureNames(), b.SelectedFeatureNames());
  EXPECT_EQ(a.explanation.ToString(), b.explanation.ToString());
}

TEST(ExplainDeterminismTest, HadoopReportIdenticalAcrossThreadCounts) {
  auto run = BuildWorkloadRun(HadoopWorkloads()[0], FastOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ExplanationReport serial = ExplainWithThreads(**run, 1);
  ASSERT_FALSE(serial.ranked.empty());
  for (const size_t num_threads : {size_t{2}, size_t{8}}) {
    const ExplanationReport parallel = ExplainWithThreads(**run, num_threads);
    ExpectIdenticalReports(serial, parallel, num_threads);
  }
}

TEST(ExplainDeterminismTest, SupplyChainReportIdenticalAcrossThreadCounts) {
  auto run = BuildWorkloadRun(SupplyChainWorkloads()[0], FastOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ExplanationReport serial = ExplainWithThreads(**run, 1);
  ASSERT_FALSE(serial.ranked.empty());
  for (const size_t num_threads : {size_t{2}, size_t{8}}) {
    const ExplanationReport parallel = ExplainWithThreads(**run, num_threads);
    ExpectIdenticalReports(serial, parallel, num_threads);
  }
}

// The report's features come from the columnar ScanView path; the
// row-folding reference oracle must reproduce every abnormal- and
// reference-interval series bit for bit — the storage layout is an
// implementation detail.
void ExpectFeaturesMatchOracle(const WorkloadRun& run,
                               const ExplanationReport& report) {
  ASSERT_FALSE(report.ranked.empty());
  const TimeInterval everything{std::numeric_limits<Timestamp>::min() / 2,
                                std::numeric_limits<Timestamp>::max() / 2};
  const FeatureRowSource rows = [&](EventTypeId type) {
    return run.archive->Scan(type, everything);
  };
  std::vector<FeatureSpec> specs;
  for (const RankedFeature& f : report.ranked) specs.push_back(f.spec);
  auto abnormal = OracleFeatures(rows, specs, run.annotation.abnormal.range);
  ASSERT_TRUE(abnormal.ok()) << abnormal.status().ToString();
  auto reference = OracleFeatures(rows, specs, run.annotation.reference.range);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameSeriesBits(report.ranked[i].abnormal_series, (*abnormal)[i].series))
        << specs[i].Name();
    EXPECT_TRUE(
        SameSeriesBits(report.ranked[i].reference_series, (*reference)[i].series))
        << specs[i].Name();
  }
}

TEST(ExplainDeterminismTest, FeaturesMatchOracleHadoop) {
  auto run = BuildWorkloadRun(HadoopWorkloads()[0], FastOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const size_t num_threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    ExpectFeaturesMatchOracle(**run, ExplainWithThreads(**run, num_threads));
  }
}

TEST(ExplainDeterminismTest, FeaturesMatchOracleSupplyChain) {
  auto run = BuildWorkloadRun(SupplyChainWorkloads()[0], FastOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const size_t num_threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    ExpectFeaturesMatchOracle(**run, ExplainWithThreads(**run, num_threads));
  }
}

TEST(ExplainDeterminismTest, RepeatedParallelRunsAreStable) {
  auto run = BuildWorkloadRun(HadoopWorkloads()[3], FastOptions());  // W4 HighCpu
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ExplanationReport first = ExplainWithThreads(**run, 8);
  const ExplanationReport second = ExplainWithThreads(**run, 8);
  ExpectIdenticalReports(first, second, 8);
}

}  // namespace
}  // namespace exstream
