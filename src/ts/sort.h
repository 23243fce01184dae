// Ascending sort of feature values for the entropy reward (Sec. 4.3).
//
// The reward sorts every feature's abnormal and reference values, for each
// ranked feature and again for each validation survivor, and each array is
// sorted once: std::sort's comparisons on such data are unpredictable
// branches. An LSD radix sort over order-preserving 64-bit keys does a fixed
// number of branch-free passes instead, and skips each byte that all keys
// share (small integer-valued features need two passes, decimals seven).

#pragma once

#include <cstddef>
#include <span>

namespace exstream {

/// Inputs shorter than this go to std::sort: below it the radix sort's
/// histogram pass and buffer cost more than the comparisons they save. On
/// the reward's inputs from a Hadoop-workload Explain, each sorted once, the
/// total sort time was flat (within 0.5%) for cut-offs of 48 to 128 and least
/// at 64; it rose beyond 128.
inline constexpr size_t kRadixSortMinSize = 64;

/// \brief Sorts `values` ascending by `operator<`.
///
/// The result equals std::sort's bit for bit. Under `operator<` the only
/// equivalent doubles with different bits are -0.0 and +0.0, and NaN is
/// unordered, so an input holding a -0.0 or a NaN takes std::sort, whose
/// placement of those values the radix order does not reproduce. Every other
/// input of at least kRadixSortMinSize values is radix-sorted.
void SortDoubles(std::span<double> values);

}  // namespace exstream
