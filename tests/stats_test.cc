#include "common/stats.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/strings.h"

namespace exstream {
namespace {

TEST(StatsTest, MeanStdDev) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({5, 5, 5}), 0.0);
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);  // classic example
  EXPECT_DOUBLE_EQ(StdDev({1}), 0.0);
}

TEST(StatsTest, MinMaxSum) {
  EXPECT_DOUBLE_EQ(Min({3, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(Max({3, 1, 2}), 3.0);
  EXPECT_DOUBLE_EQ(Sum({1.5, 2.5}), 4.0);
  EXPECT_TRUE(std::isinf(Min({})));
  EXPECT_TRUE(std::isinf(Max({})));
}

TEST(StatsTest, Percentile) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(StatsTest, PearsonCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
  std::vector<double> c = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, c), 0.0);  // zero variance
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, {1, 2}), 0.0);  // length mismatch
}

TEST(StatsTest, FMeasure) {
  EXPECT_DOUBLE_EQ(FMeasure(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(FMeasure(0, 0), 0.0);
  EXPECT_NEAR(FMeasure(0.5, 1.0), 2.0 / 3.0, 1e-12);
}

TEST(HistogramTest, BasicCounts) {
  Histogram h(0, 10, 10);
  for (int i = 0; i < 10; ++i) h.Add(i + 0.5);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.5);
}

TEST(HistogramTest, FractionAbove) {
  Histogram h(0, 1, 10);
  for (int i = 0; i < 100; ++i) h.Add(i < 25 ? 0.9 : 0.1);
  EXPECT_NEAR(h.FractionAbove(0.5), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(h.FractionAbove(2.0), 0.0);
}

TEST(HistogramTest, OverflowAndUnderflow) {
  Histogram h(0, 1, 4);
  h.Add(-5);
  h.Add(5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5);
  EXPECT_DOUBLE_EQ(h.max(), 5);
}

TEST(HistogramTest, ApproxPercentileReasonable) {
  Histogram h(0, 100, 100);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) h.Add(rng.Uniform(0, 100));
  EXPECT_NEAR(h.ApproxPercentile(50), 50, 3.0);
  EXPECT_NEAR(h.ApproxPercentile(99), 99, 3.0);
}

TEST(HistogramTest, AddNEqualsRepeatedAdd) {
  // Only the mean may differ, by rounding: n additions against one product.
  for (const double v : {0.25, 0.1, 0.0375, -2.0, 7.5}) {
    for (const uint64_t n : {uint64_t{1}, uint64_t{3}, uint64_t{256}}) {
      Histogram one_by_one(0, 1, 16);
      Histogram batched(0, 1, 16);
      for (const double other : {0.5, 0.05}) {
        one_by_one.Add(other);
        batched.Add(other);
      }
      for (uint64_t i = 0; i < n; ++i) one_by_one.Add(v);
      batched.AddN(v, n);
      const std::string label =
          StrFormat("v=%g n=%llu", v, static_cast<unsigned long long>(n));
      EXPECT_EQ(batched.count(), one_by_one.count()) << label;
      EXPECT_NEAR(batched.mean(), one_by_one.mean(), 1e-12) << label;
      EXPECT_EQ(batched.min(), one_by_one.min()) << label;
      EXPECT_EQ(batched.max(), one_by_one.max()) << label;
      for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
        EXPECT_EQ(batched.ApproxPercentile(p), one_by_one.ApproxPercentile(p))
            << label << " p" << p;
      }
      for (const double t : {-3.0, 0.0, 0.04, 0.2, 0.3, 0.5, 0.99, 1.0, 8.0}) {
        EXPECT_EQ(batched.FractionAbove(t), one_by_one.FractionAbove(t))
            << label << " above " << t;
      }
    }
  }
  Histogram h(0, 1, 4);
  h.AddN(0.5, 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.FractionAbove(0.0), 0.0);
}

TEST(HistogramTest, FractionAboveHasBucketResolution) {
  Histogram h(0, 1, 10);
  h.AddN(0.05, 50);  // bucket [0, 0.1)
  h.AddN(0.45, 30);  // bucket [0.4, 0.5)
  h.AddN(3.0, 20);   // overflow, starts at 1
  EXPECT_DOUBLE_EQ(h.FractionAbove(-1.0), 1.0);  // below min: exact
  EXPECT_DOUBLE_EQ(h.FractionAbove(0.4), 0.5);   // at a bucket edge: exact
  EXPECT_DOUBLE_EQ(h.FractionAbove(0.42), 0.2);  // inside a bucket: it drops out
  EXPECT_DOUBLE_EQ(h.FractionAbove(1.0), 0.2);
  EXPECT_DOUBLE_EQ(h.FractionAbove(2.0), 0.0);   // inside overflow: drops out
  EXPECT_DOUBLE_EQ(h.FractionAbove(3.0), 0.0);   // at max: exact
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2, 3);
    EXPECT_GE(u, 2);
    EXPECT_LT(u, 3);
    const int64_t n = rng.UniformInt(-2, 2);
    EXPECT_GE(n, -2);
    EXPECT_LE(n, 2);
  }
}

TEST(RngTest, ForkIndependence) {
  Rng a(42);
  Rng fork = a.Fork();
  // The fork's stream must not equal the parent's continued stream.
  bool any_diff = false;
  Rng b(42);
  (void)b.Fork();
  for (int i = 0; i < 8; ++i) {
    if (fork.Uniform(0, 1) != b.Uniform(0, 1)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace exstream
