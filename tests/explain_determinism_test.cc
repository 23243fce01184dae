// Determinism of the parallel explanation pipeline: Explain() must return an
// identical ExplanationReport — same ranking, same rewards, same final CNF —
// for any num_threads. Every parallel stage is index-addressed and merged in
// deterministic order, so this holds bit-for-bit, not just approximately.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include <gtest/gtest.h>

#include "feature_oracle.h"
#include "features/builder.h"
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

// Rebuilds the run's archive with tier windows aligned to its feature
// windows, so resolution-aware scans can actually be answered from tiers.
std::unique_ptr<EventArchive> TieredReplica(const WorkloadRun& run) {
  Timestamp tier_window = 0;
  for (const Timestamp w : run.FeatureSpace().windows) {
    tier_window = std::gcd(tier_window, w);
  }
  EXPECT_GT(tier_window, 0);
  ArchiveOptions options;
  options.tier_windows = {tier_window};
  // Tiers are built at seal time and served only from sealed chunks; the
  // workload's per-type event counts sit below the default capacity, so
  // shrink chunks or nothing ever seals and the tier path stays unreachable.
  options.chunk_capacity = 256;
  auto archive = std::make_unique<EventArchive>(run.registry.get(), options);
  const TimeInterval everything{0, std::numeric_limits<Timestamp>::max() / 2};
  auto scans = run.archive->ScanAll(everything);
  EXPECT_TRUE(scans.ok()) << scans.status().ToString();
  for (const auto& scan : *scans) {
    for (const Event& e : scan.events) {
      EXPECT_TRUE(archive->Append(e).ok());
    }
  }
  return archive;
}

// Tiered reference scans may change reference-side aggregates (absolute-
// instead of series-anchored windows — the resolution the caller opted
// into), but the abnormal interval must stay on exact raw rows: every
// abnormal-interval series bit-identical to the fully exact run.
TEST(ExplainDeterminismTest, TieredReferenceKeepsAbnormalSeriesBitIdentical) {
  auto run = BuildWorkloadRun(HadoopWorkloads()[0], FastOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::unique_ptr<EventArchive> archive = TieredReplica(**run);

  ExplainOptions exact_options = (*run)->DefaultExplainOptions();
  ExplainOptions tiered_options = (*run)->DefaultExplainOptions();
  tiered_options.tiered_reference_scans = true;
  const ExplanationEngine exact_engine(archive.get(), (*run)->partitions.get(),
                                       (*run)->MakeSeriesProvider(),
                                       std::move(exact_options));
  const ExplanationEngine tiered_engine(archive.get(), (*run)->partitions.get(),
                                        (*run)->MakeSeriesProvider(),
                                        std::move(tiered_options));
  auto exact = exact_engine.Explain((*run)->annotation);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  const size_t before = archive->tier_segments_served();
  auto tiered = tiered_engine.Explain((*run)->annotation);
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
  ASSERT_GT(archive->tier_segments_served(), before)
      << "tiered explain never reached the tier path";

  ASSERT_EQ(exact->ranked.size(), tiered->ranked.size());
  std::map<std::string, const RankedFeature*> exact_by_name;
  for (const RankedFeature& f : exact->ranked) {
    exact_by_name[f.spec.Name()] = &f;
  }
  for (const RankedFeature& f : tiered->ranked) {
    auto it = exact_by_name.find(f.spec.Name());
    ASSERT_NE(it, exact_by_name.end()) << f.spec.Name();
    EXPECT_EQ(it->second->abnormal_series.times(), f.abnormal_series.times())
        << f.spec.Name();
    EXPECT_EQ(it->second->abnormal_series.values(), f.abnormal_series.values())
        << f.spec.Name();
  }
}

// Tier-selection correctness at the feature-build level: a tiered build's
// windowed aggregates must equal a manual fold of the raw rows into
// absolute-aligned windows — the tier path changes where the numbers come
// from, never what they are.
TEST(ExplainDeterminismTest, TieredAggregatesMatchAbsoluteWindowOracle) {
  EventTypeRegistry registry;
  ASSERT_TRUE(registry.Register(EventSchema("M", {{"x", ValueType::kDouble}})).ok());
  ArchiveOptions options;
  // Capacity not a multiple of the window: aggregation windows straddle chunk
  // boundaries, so the fold must merge partials across tier segments.
  options.chunk_capacity = 10;
  options.tier_windows = {4};
  EventArchive archive(&registry, options);
  std::vector<double> xs;
  for (Timestamp t = 0; t < 37; ++t) {
    const double x = 0.5 * static_cast<double>(t * t % 17);
    xs.push_back(x);
    ASSERT_TRUE(archive.Append(Event(0, t, {Value(x)})).ok());
  }
  const TimeInterval interval{0, 36};
  const Timestamp window = 4;
  std::vector<FeatureSpec> specs;
  for (const AggregateKind agg :
       {AggregateKind::kMean, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kStdDev, AggregateKind::kCount}) {
    FeatureSpec spec;
    spec.type = 0;
    spec.attr_index = 0;
    spec.event_type_name = "M";
    spec.attribute_name = "x";
    spec.agg = agg;
    spec.window = window;
    specs.push_back(spec);
  }
  const FeatureBuilder builder(&archive);
  auto feats = builder.Build(specs, interval, nullptr, nullptr, nullptr,
                             /*allow_tiers=*/true);
  ASSERT_TRUE(feats.ok()) << feats.status().ToString();
  ASSERT_GT(archive.tier_segments_served(), 0u)
      << "tiered build never reached the tier path";
  for (const Feature& f : *feats) {
    SCOPED_TRACE(f.spec.Name());
    size_t slot = 0;
    for (Timestamp wend = window; wend - window <= interval.upper;
         wend += window) {
      double sum = 0.0, sumsq = 0.0, mn = 0.0, mx = 0.0;
      size_t n = 0;
      for (Timestamp t = wend - window; t < wend && t <= interval.upper; ++t) {
        const double x = xs[static_cast<size_t>(t)];
        if (n == 0) { mn = mx = x; }
        mn = std::min(mn, x);
        mx = std::max(mx, x);
        sum += x;
        sumsq += x * x;
        ++n;
      }
      double expected = 0.0;
      switch (f.spec.agg) {
        case AggregateKind::kMean: expected = sum / static_cast<double>(n); break;
        case AggregateKind::kSum: expected = sum; break;
        case AggregateKind::kMin: expected = mn; break;
        case AggregateKind::kMax: expected = mx; break;
        case AggregateKind::kStdDev: {
          const double m = sum / static_cast<double>(n);
          expected = n < 2 ? 0.0
                           : std::sqrt(std::max(
                                 0.0, sumsq / static_cast<double>(n) - m * m));
          break;
        }
        case AggregateKind::kCount: expected = static_cast<double>(n); break;
        default: FAIL();
      }
      ASSERT_LT(slot, f.series.size());
      EXPECT_EQ(f.series.times()[slot], wend);
      EXPECT_NEAR(f.series.values()[slot], expected, 1e-9) << "wend=" << wend;
      ++slot;
    }
    EXPECT_EQ(slot, f.series.size());
  }
}

}  // namespace
}  // namespace exstream
