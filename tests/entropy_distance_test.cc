#include "ts/entropy_distance.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "reward_oracle.h"

namespace exstream {
namespace {

TEST(EntropyDistanceTest, PerfectSeparationScoresOne) {
  // All abnormal values strictly below all reference values (Fig. 10's first
  // two features).
  const auto res = ComputeEntropyDistance({1, 2, 3}, {10, 11, 12});
  EXPECT_DOUBLE_EQ(res.distance, 1.0);
  EXPECT_TRUE(res.PerfectSeparation());
  ASSERT_EQ(res.segments.size(), 2u);
  EXPECT_EQ(res.segments[0].cls, SegmentClass::kAbnormalOnly);
  EXPECT_EQ(res.segments[1].cls, SegmentClass::kReferenceOnly);
}

TEST(EntropyDistanceTest, EmptySideScoresZero) {
  EXPECT_DOUBLE_EQ(ComputeEntropyDistance({}, {1, 2}).distance, 0.0);
  EXPECT_DOUBLE_EQ(ComputeEntropyDistance({1, 2}, {}).distance, 0.0);
  EXPECT_DOUBLE_EQ(
      ComputeEntropyDistance(std::vector<double>{}, std::vector<double>{}).distance,
      0.0);
}

TEST(EntropyDistanceTest, ClassEntropyBalanced) {
  // Balanced classes -> H_class = 1 bit.
  const auto res = ComputeEntropyDistance({1, 2}, {3, 4});
  EXPECT_NEAR(res.class_entropy, 1.0, 1e-12);
}

TEST(EntropyDistanceTest, ClassEntropySkewed) {
  // 1 abnormal of 5 -> H = 0.2*log2(5) + 0.8*log2(1.25).
  const auto res = ComputeEntropyDistance({1}, {2, 3, 4, 5});
  const double expected = 0.2 * std::log2(5.0) + 0.8 * std::log2(1.25);
  EXPECT_NEAR(res.class_entropy, expected, 1e-12);
}

TEST(EntropyDistanceTest, IdenticalValuesFormSingleMixedSegment) {
  // Every point shares one value: the worst separation. One mixed segment,
  // zero segmentation entropy, positive penalty -> small distance.
  const auto res = ComputeEntropyDistance({5, 5, 5}, {5, 5, 5});
  ASSERT_EQ(res.segments.size(), 1u);
  EXPECT_EQ(res.segments[0].cls, SegmentClass::kMixed);
  EXPECT_DOUBLE_EQ(res.segmentation_entropy, 0.0);
  EXPECT_GT(res.regularized_entropy, 0.0);
  // Worst-case interleaving of 3+3 identical points: 6 singleton segments
  // -> penalty = log2(6); D = 1 / log2(6).
  EXPECT_NEAR(res.distance, 1.0 / std::log2(6.0), 1e-9);
}

TEST(EntropyDistanceTest, WorstCasePenaltyPaperExample) {
  // Paper Sec. 4.3: a mixed segment with 3 N and 2 A distributes uniformly
  // as (N,A,N,A,N): 5 unit segments. With only this segment in the feature,
  // H+ = 5 * (1/5) log2(5) = log2(5).
  const auto res = ComputeEntropyDistance({7, 7}, {7, 7, 7});
  ASSERT_EQ(res.segments.size(), 1u);
  EXPECT_NEAR(res.regularized_entropy, std::log2(5.0), 1e-9);
}

TEST(EntropyDistanceTest, InterleavedDistinctValuesScoreLow) {
  // Alternating distinct values: many segments, low reward.
  const auto interleaved = ComputeEntropyDistance({1, 3, 5, 7}, {2, 4, 6, 8});
  const auto separated = ComputeEntropyDistance({1, 2, 3, 4}, {5, 6, 7, 8});
  EXPECT_LT(interleaved.distance, separated.distance);
  EXPECT_LT(interleaved.distance, 0.5);
  EXPECT_DOUBLE_EQ(separated.distance, 1.0);
}

TEST(EntropyDistanceTest, PartialMixingIntermediate) {
  // Mostly separated with one shared value: between the extremes.
  const auto res = ComputeEntropyDistance({1, 2, 3, 5}, {5, 8, 9, 10});
  EXPECT_GT(res.distance, 0.3);
  EXPECT_LT(res.distance, 1.0);
}

TEST(EntropyDistanceTest, OrderInvariance) {
  // Set-based measure: shuffling sample order cannot change the result.
  const auto a = ComputeEntropyDistance({3, 1, 2}, {9, 7, 8});
  const auto b = ComputeEntropyDistance({1, 2, 3}, {7, 8, 9});
  EXPECT_DOUBLE_EQ(a.distance, b.distance);
}

TEST(EntropyDistanceTest, PaperLockStepCounterexample) {
  // Sec. 4.2: TS1=(1,1,1) vs TS2=(0,0,0) should be farther apart than
  // TS3=(1,0,1) vs TS4=(0,1,0); lock-step measures see them as equal, the
  // entropy distance does not.
  const auto d12 = ComputeEntropyDistance({1, 1, 1}, {0, 0, 0});
  const auto d34 = ComputeEntropyDistance({1, 0, 1}, {0, 1, 0});
  EXPECT_GT(d12.distance, d34.distance);
  EXPECT_DOUBLE_EQ(d12.distance, 1.0);
}

TEST(EntropyDistanceTest, SymmetryUnderClassSwapWithEqualSizes) {
  const auto ab = ComputeEntropyDistance({1, 2, 5}, {4, 8, 9});
  const auto ba = ComputeEntropyDistance({4, 8, 9}, {1, 2, 5});
  EXPECT_DOUBLE_EQ(ab.distance, ba.distance);
}

TEST(EntropyDistanceTest, TimeSeriesOverloadMatchesVectors) {
  TimeSeries a;
  TimeSeries r;
  for (int i = 0; i < 5; ++i) {
    (void)a.Append(i, i);
    (void)r.Append(i, i + 10);
  }
  EXPECT_DOUBLE_EQ(ComputeEntropyDistance(a, r).distance, 1.0);
}

TEST(AbnormalRangesTest, SingleBoundaryPerfectSeparation) {
  // Abnormal low, reference high: one predicate `f <= midpoint` (Sec. 5.4).
  const auto res = ComputeEntropyDistance({1, 2, 3}, {9, 10});
  const auto ranges = ExtractAbnormalRanges(res);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_FALSE(ranges[0].has_lower);
  ASSERT_TRUE(ranges[0].has_upper);
  EXPECT_DOUBLE_EQ(ranges[0].upper, 6.0);  // midpoint of 3 and 9
}

TEST(AbnormalRangesTest, AbnormalAboveYieldsLowerBound) {
  const auto res = ComputeEntropyDistance({9, 10}, {1, 2, 3});
  const auto ranges = ExtractAbnormalRanges(res);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_TRUE(ranges[0].has_lower);
  EXPECT_FALSE(ranges[0].has_upper);
  EXPECT_DOUBLE_EQ(ranges[0].lower, 6.0);
}

TEST(AbnormalRangesTest, MultipleAbnormalIntervals) {
  // Abnormal at both extremes, reference in the middle: two ranges -> the
  // paper's disjunctive clause f <= c1 OR (f >= c2).
  const auto res = ComputeEntropyDistance({1, 2, 20, 21}, {10, 11, 12});
  const auto ranges = ExtractAbnormalRanges(res);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_FALSE(ranges[0].has_lower);
  EXPECT_TRUE(ranges[0].has_upper);
  EXPECT_TRUE(ranges[1].has_lower);
  EXPECT_FALSE(ranges[1].has_upper);
}

TEST(AbnormalRangesTest, FullyMixedYieldsNoRanges) {
  const auto res = ComputeEntropyDistance({5, 5}, {5, 5});
  EXPECT_TRUE(ExtractAbnormalRanges(res).empty());
}

// One random class sample for the oracle sweep. Values come from a small pool
// so ties within and across classes are common; the pool holds both zeros.
std::vector<double> RandomSample(Rng* rng, size_t n, int shape) {
  static const double kPool[] = {-0.0, 0.0, 1.0, -1.0, 2.5, 3.0, 1e-300, -7.25};
  std::vector<double> out(n);
  for (double& v : out) {
    switch (shape) {
      case 0:  // ties from the pool
        v = kPool[rng->UniformInt(0, 7)];
        break;
      case 1:  // all equal
        v = 3.0;
        break;
      case 2:  // signed zeros only
        v = rng->Chance(0.5) ? 0.0 : -0.0;
        break;
      case 3:  // rounded Gaussians: long runs of duplicates
        v = std::round(rng->Gaussian(0, 4));
        break;
      default:  // continuous: almost no ties
        v = rng->Gaussian(0, 10);
        break;
    }
  }
  return out;
}

size_t RandomSize(Rng* rng) {
  switch (rng->UniformInt(0, 9)) {
    case 0:
      return 0;  // one empty side
    case 1:
      return static_cast<size_t>(rng->UniformInt(61, 4096));
    default:
      return static_cast<size_t>(rng->UniformInt(1, 60));
  }
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// The merge walk reproduces the struct-sort oracle bit for bit: every entropy
// term, the distance and the segmentation. Segment edges compare with `==`:
// the oracle's unstable sort decides whether -0.0 or +0.0 names a zero
// group, and the two compare equal.
TEST(EntropyOraclePropertyTest, MatchesStructSortOracle) {
  constexpr uint64_t kCases = 12000;
  for (uint64_t seed = 1; seed <= kCases; ++seed) {
    Rng rng(seed);
    const int shape_a = static_cast<int>(rng.UniformInt(0, 4));
    const int shape_r = rng.Chance(0.5) ? shape_a : static_cast<int>(rng.UniformInt(0, 4));
    const std::vector<double> a = RandomSample(&rng, RandomSize(&rng), shape_a);
    const std::vector<double> r = RandomSample(&rng, RandomSize(&rng), shape_r);
    const EntropyDistanceResult got = ComputeEntropyDistance(a, r);
    const EntropyDistanceResult want = OracleEntropyDistance(a, r);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ASSERT_TRUE(SameBits(got.distance, want.distance));
    ASSERT_TRUE(SameBits(got.class_entropy, want.class_entropy));
    ASSERT_TRUE(SameBits(got.segmentation_entropy, want.segmentation_entropy));
    ASSERT_TRUE(SameBits(got.regularized_entropy, want.regularized_entropy));
    ASSERT_EQ(got.abnormal_count, want.abnormal_count);
    ASSERT_EQ(got.reference_count, want.reference_count);
    ASSERT_EQ(got.segments.size(), want.segments.size());
    for (size_t i = 0; i < got.segments.size(); ++i) {
      const Segment& g = got.segments[i];
      const Segment& w = want.segments[i];
      ASSERT_EQ(g.cls, w.cls) << "segment " << i;
      ASSERT_EQ(g.min_value, w.min_value) << "segment " << i;
      ASSERT_EQ(g.max_value, w.max_value) << "segment " << i;
      ASSERT_EQ(g.abnormal_points, w.abnormal_points) << "segment " << i;
      ASSERT_EQ(g.reference_points, w.reference_points) << "segment " << i;
    }
  }
}

TEST(EntropyDistanceTest, SortedEntryPointMatchesUnsorted) {
  std::vector<double> a = {5, 1, 3, 3, -2};
  std::vector<double> r = {3, 8, 0, -0.0, 9};
  const auto unsorted = ComputeEntropyDistance(a, r);
  std::sort(a.begin(), a.end());
  std::sort(r.begin(), r.end());
  const auto sorted = ComputeEntropyDistanceSorted(a, r);
  EXPECT_TRUE(SameBits(sorted.distance, unsorted.distance));
  EXPECT_TRUE(SameBits(sorted.regularized_entropy, unsorted.regularized_entropy));
  EXPECT_EQ(sorted.segments.size(), unsorted.segments.size());
}

TEST(SegmentClassTest, Names) {
  EXPECT_EQ(SegmentClassToString(SegmentClass::kAbnormalOnly), "abnormal");
  EXPECT_EQ(SegmentClassToString(SegmentClass::kReferenceOnly), "reference");
  EXPECT_EQ(SegmentClassToString(SegmentClass::kMixed), "mixed");
}

// Property sweep: for random inputs, D in [0,1]; H+ >= H_seg; segment point
// counts sum to the input size; monotone response to separation shift.
class EntropyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EntropyPropertyTest, Invariants) {
  Rng rng(GetParam());
  std::vector<double> a;
  std::vector<double> r;
  const int n = 30 + static_cast<int>(rng.UniformInt(0, 50));
  for (int i = 0; i < n; ++i) {
    a.push_back(std::round(rng.Gaussian(0, 2)));
    r.push_back(std::round(rng.Gaussian(1, 2)));
  }
  const auto res = ComputeEntropyDistance(a, r);
  EXPECT_GE(res.distance, 0.0);
  EXPECT_LE(res.distance, 1.0);
  EXPECT_GE(res.regularized_entropy, res.segmentation_entropy - 1e-12);
  size_t points = 0;
  for (const Segment& s : res.segments) points += s.TotalPoints();
  EXPECT_EQ(points, a.size() + r.size());

  // Shifting the reference away increases (or keeps) the reward.
  std::vector<double> far = r;
  for (double& v : far) v += 100.0;
  EXPECT_GE(ComputeEntropyDistance(a, far).distance, res.distance - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntropyPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace exstream
