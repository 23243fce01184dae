#include "explain/labeling.h"

#include <bit>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "reward_oracle.h"

namespace exstream {
namespace {

// Series with samples every `step` around the given level.
TimeSeries Level(double level, Timestamp start, Timestamp end, Timestamp step,
                 uint64_t seed = 1) {
  Rng rng(seed);
  TimeSeries s;
  for (Timestamp t = start; t <= end; t += step) {
    (void)s.Append(t, level + rng.Gaussian(0, 0.05));
  }
  return s;
}

CandidateInterval Candidate(const char* partition, TimeSeries series) {
  CandidateInterval c;
  c.partition = partition;
  c.range = {series.empty() ? 0 : series.start_time(),
             series.empty() ? 0 : series.end_time()};
  c.series = std::move(series);
  return c;
}

TEST(IntervalDistanceTest, SimilarIntervalsClose) {
  const TimeSeries a = Level(10, 0, 100, 2, 1);
  const TimeSeries b = Level(10, 200, 300, 2, 2);
  EXPECT_LT(IntervalDistance(a, b), 0.45);
}

TEST(IntervalDistanceTest, DifferentValuesFar) {
  const TimeSeries a = Level(10, 0, 100, 2, 1);
  const TimeSeries b = Level(50, 200, 300, 2, 2);
  EXPECT_GT(IntervalDistance(a, b), 0.45);
}

TEST(IntervalDistanceTest, FrequencyDifferenceCounts) {
  // Same values, very different sampling rates (the paper's 3.7 vs 50.1).
  const TimeSeries dense = Level(10, 0, 100, 1, 1);
  const TimeSeries sparse = Level(10, 0, 100, 20, 2);
  LabelingOptions options;
  options.entropy_weight = 0.0;
  options.frequency_weight = 1.0;
  EXPECT_GT(IntervalDistance(dense, sparse, options), 0.8);
}

TEST(IntervalDistanceTest, EmptySeriesMaximallyFar) {
  EXPECT_DOUBLE_EQ(IntervalDistance(TimeSeries(), Level(1, 0, 10, 1)), 1.0);
}

TEST(LabelingTest, CandidatesInheritNearestAnnotationLabel) {
  // Annotated abnormal: low values sampled sparsely. Annotated reference:
  // high values sampled densely. Candidates resembling each get the matching
  // label.
  const CandidateInterval abnormal = Candidate("pA", Level(2, 0, 100, 10, 1));
  const CandidateInterval reference = Candidate("pA", Level(50, 100, 200, 2, 2));
  std::vector<CandidateInterval> candidates = {
      Candidate("p1", Level(2.1, 0, 100, 10, 3)),   // like the anomaly
      Candidate("p2", Level(49, 300, 400, 2, 4)),   // like the reference
  };
  auto labeled = LabelIntervals(abnormal, reference, candidates);
  ASSERT_TRUE(labeled.ok());
  ASSERT_EQ(labeled->size(), 2u);
  EXPECT_EQ((*labeled)[0].label, IntervalLabel::kAbnormal);
  EXPECT_EQ((*labeled)[1].label, IntervalLabel::kReference);
}

TEST(LabelingTest, IndistinguishableAnnotationsDiscardEverything) {
  // If the annotated abnormal and reference look the same, no candidate can
  // be labeled with certainty.
  const CandidateInterval abnormal = Candidate("pA", Level(10, 0, 100, 2, 1));
  const CandidateInterval reference = Candidate("pA", Level(10, 100, 200, 2, 2));
  std::vector<CandidateInterval> candidates = {
      Candidate("p1", Level(10, 300, 400, 2, 3))};
  auto labeled = LabelIntervals(abnormal, reference, candidates);
  ASSERT_TRUE(labeled.ok());
  EXPECT_EQ((*labeled)[0].label, IntervalLabel::kDiscarded);
}

TEST(LabelingTest, FarFromBothIsResolvedByRelativeDistance) {
  const CandidateInterval abnormal = Candidate("pA", Level(2, 0, 100, 2, 1));
  const CandidateInterval reference = Candidate("pA", Level(50, 100, 200, 2, 2));
  // A candidate at value 40: its own cluster, but clearly closer to the
  // reference side.
  std::vector<CandidateInterval> candidates = {
      Candidate("p1", Level(40, 300, 400, 2, 3))};
  LabelingOptions options;
  options.cut_threshold = 0.2;  // force separate clusters
  auto labeled = LabelIntervals(abnormal, reference, candidates, options);
  ASSERT_TRUE(labeled.ok());
  EXPECT_NE((*labeled)[0].label, IntervalLabel::kAbnormal);
}

TEST(LabelingTest, NoCandidates) {
  const CandidateInterval abnormal = Candidate("pA", Level(2, 0, 100, 2, 1));
  const CandidateInterval reference = Candidate("pA", Level(50, 100, 200, 2, 2));
  auto labeled = LabelIntervals(abnormal, reference, {});
  ASSERT_TRUE(labeled.ok());
  EXPECT_TRUE(labeled->empty());
}

// Random labeling problems: levels close enough to tie, rounded values,
// irregular sampling and the occasional empty series. LabelIntervals sorts
// each series once; the oracle calls IntervalDistance on every pair. Both
// must give bit-identical distances and the same labels.
TEST(LabelingOraclePropertyTest, MatchesPairwiseIntervalDistance) {
  constexpr uint64_t kSeeds = 400;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const auto random_series = [&rng] {
      TimeSeries s;
      if (rng.Chance(0.05)) return s;
      const double level = static_cast<double>(rng.UniformInt(0, 3)) * 5.0;
      const double noise = rng.Chance(0.5) ? 0.0 : rng.Uniform(0.1, 6.0);
      const Timestamp step = rng.UniformInt(1, 8);
      const int64_t n = rng.UniformInt(1, 120);
      Timestamp t = rng.UniformInt(0, 1000);
      for (int64_t i = 0; i < n; ++i) {
        (void)s.Append(t, std::round(level + rng.Gaussian(0, noise)));
        t += step + rng.UniformInt(0, 2);
      }
      return s;
    };
    const CandidateInterval abnormal = Candidate("pA", random_series());
    const CandidateInterval reference = Candidate("pR", random_series());
    std::vector<CandidateInterval> candidates;
    const int64_t k = rng.UniformInt(0, 14);
    for (int64_t c = 0; c < k; ++c) candidates.push_back(Candidate("p", random_series()));
    LabelingOptions options;
    options.cut_threshold = rng.Uniform(0.05, 0.6);

    std::vector<const TimeSeries*> series{&abnormal.series, &reference.series};
    for (const auto& c : candidates) series.push_back(&c.series);
    const DistanceMatrix got = IntervalDistances(series, options);
    const DistanceMatrix want = OraclePairwiseDistances(series, options);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      for (size_t j = 0; j < got.size(); ++j) {
        ASSERT_EQ(std::bit_cast<uint64_t>(got.at(i, j)),
                  std::bit_cast<uint64_t>(want.at(i, j)))
            << "cell " << i << "," << j;
      }
    }

    auto labeled = LabelIntervals(abnormal, reference, candidates, options);
    auto oracle = OracleLabelIntervals(abnormal, reference, candidates, options);
    ASSERT_TRUE(labeled.ok());
    ASSERT_TRUE(oracle.ok());
    ASSERT_EQ(labeled->size(), oracle->size());
    for (size_t c = 0; c < labeled->size(); ++c) {
      EXPECT_EQ((*labeled)[c].label, (*oracle)[c].label) << "candidate " << c;
    }
  }
}

TEST(LabelingTest, LabelNames) {
  EXPECT_EQ(IntervalLabelToString(IntervalLabel::kAbnormal), "abnormal");
  EXPECT_EQ(IntervalLabelToString(IntervalLabel::kReference), "reference");
  EXPECT_EQ(IntervalLabelToString(IntervalLabel::kDiscarded), "discarded");
}

}  // namespace
}  // namespace exstream
