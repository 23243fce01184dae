#include "ts/sort.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace exstream {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// SortDoubles must leave exactly what std::sort leaves, bit for bit.
void ExpectSortsLikeStdSort(const std::vector<double>& input) {
  std::vector<double> want = input;
  std::sort(want.begin(), want.end());
  std::vector<double> got = input;
  SortDoubles(got);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << "index " << i << " of " << got.size() << ": " << got[i] << " vs " << want[i];
  }
}

std::vector<double> RandomValues(Rng* rng, size_t n, int shape) {
  std::vector<double> out(n);
  for (double& v : out) {
    switch (shape) {
      case 0:  // infinities among rounded values
        v = rng->Chance(0.2) ? (rng->Chance(0.5) ? kInf : -kInf)
                             : std::round(rng->Gaussian(0, 50));
        break;
      case 1:  // heavy duplicates
        v = static_cast<double>(rng->UniformInt(0, 3)) * 2.5;
        break;
      case 2:  // negative only
        v = -std::fabs(rng->Gaussian(0, 1e6)) - 1e-3;
        break;
      case 3:  // denormals of both signs, with their neighbours
        v = std::bit_cast<double>(static_cast<uint64_t>(rng->UniformInt(1, 1 << 20))) *
            (rng->Chance(0.5) ? 1.0 : -1.0);
        if (rng->Chance(0.1)) v = std::numeric_limits<double>::min();
        break;
      case 4:  // a large offset plus small integers: the high bytes are shared
        v = 1e12 + static_cast<double>(rng->UniformInt(0, 40));
        break;
      case 5:  // one-decimal values, as many Hadoop metrics are
        v = static_cast<double>(rng->UniformInt(150, 400)) / 10.0;
        break;
      default:  // continuous, both signs
        v = rng->Gaussian(0, 10);
        break;
    }
  }
  return out;
}

TEST(SortDoublesTest, MatchesStdSortAboveAndBelowThreshold) {
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    const int shape = static_cast<int>(rng.UniformInt(0, 6));
    const size_t n = rng.Chance(0.3)
                         ? static_cast<size_t>(rng.UniformInt(0, kRadixSortMinSize))
                         : static_cast<size_t>(rng.UniformInt(kRadixSortMinSize, 5000));
    SCOPED_TRACE("seed=" + std::to_string(seed) + " shape=" + std::to_string(shape));
    ExpectSortsLikeStdSort(RandomValues(&rng, n, shape));
  }
}

TEST(SortDoublesTest, EdgeSizesAndSharedKeys) {
  for (size_t n : {size_t{0}, size_t{1}, kRadixSortMinSize - 1, kRadixSortMinSize,
                   kRadixSortMinSize + 1}) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>((i * 37) % 11);
    ExpectSortsLikeStdSort(v);
    ExpectSortsLikeStdSort(std::vector<double>(n, 7.0));  // every digit shared
  }
  // Only the lowest byte differs; only the sign differs.
  std::vector<double> low(300);
  for (size_t i = 0; i < low.size(); ++i) {
    low[i] = std::bit_cast<double>(uint64_t{0x4000000000000000} | ((i * 89) % 256));
  }
  ExpectSortsLikeStdSort(low);
  std::vector<double> sign(300);
  for (size_t i = 0; i < sign.size(); ++i) sign[i] = i % 3 == 0 ? -2.0 : 2.0;
  ExpectSortsLikeStdSort(sign);
  // Both infinities and the extremes of the finite range.
  std::vector<double> extremes;
  for (int i = 0; i < 100; ++i) {
    extremes.push_back(i % 4 == 0   ? kInf
                       : i % 4 == 1 ? -kInf
                       : i % 4 == 2 ? std::numeric_limits<double>::max()
                                    : std::numeric_limits<double>::lowest());
  }
  ExpectSortsLikeStdSort(extremes);
}

// Inputs holding -0.0 or NaN take std::sort: the radix order would put -0.0
// before every +0.0 and NaN at an end, which std::sort does not.
TEST(SortDoublesTest, SignedZerosAndNaNTakeTheFallback) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const size_t n = static_cast<size_t>(rng.UniformInt(kRadixSortMinSize, 2000));
    std::vector<double> zeros(n);
    for (double& v : zeros) {
      v = rng.Chance(0.4) ? (rng.Chance(0.5) ? 0.0 : -0.0)
                          : std::round(rng.Gaussian(0, 3));
    }
    ExpectSortsLikeStdSort(zeros);
    std::vector<double> with_nan = RandomValues(&rng, n, 5);
    with_nan[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1))] =
        rng.Chance(0.5) ? nan : -nan;
    ExpectSortsLikeStdSort(with_nan);
  }
}

}  // namespace
}  // namespace exstream
