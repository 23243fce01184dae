#include "ts/sort.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>

namespace exstream {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;
constexpr uint64_t kNegativeZero = kSignBit;
constexpr uint64_t kInfinityShifted = uint64_t{0x7FF0000000000000} << 1;

// Order-preserving key: flip the sign bit of a non-negative double and every
// bit of a negative one, so unsigned key order is the doubles' numeric order.
uint64_t ToKey(uint64_t bits) { return bits ^ ((0 - (bits >> 63)) | kSignBit); }
uint64_t FromKey(uint64_t key) { return key ^ (((key >> 63) - 1) | kSignBit); }

}  // namespace

void SortDoubles(std::span<double> values) {
  const size_t n = values.size();
  if (n < kRadixSortMinSize || n > std::numeric_limits<uint32_t>::max()) {
    std::sort(values.begin(), values.end());
    return;
  }
  const auto buffer = std::make_unique_for_overwrite<uint64_t[]>(2 * n);
  uint64_t* keys = buffer.get();
  uint64_t* scratch = keys + n;

  // One pass makes the keys and all eight digit histograms, and spots the
  // values whose std::sort placement the radix order would not reproduce.
  uint32_t counts[8][256] = {};
  bool unordered = false;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bits = std::bit_cast<uint64_t>(values[i]);
    unordered |= (bits << 1) > kInfinityShifted || bits == kNegativeZero;
    const uint64_t key = ToKey(bits);
    keys[i] = key;
    for (int d = 0; d < 8; ++d) ++counts[d][(key >> (8 * d)) & 0xFF];
  }
  if (unordered) {
    std::sort(values.begin(), values.end());
    return;
  }

  for (int d = 0; d < 8; ++d) {
    const int shift = 8 * d;
    uint32_t* count = counts[d];
    if (count[(keys[0] >> shift) & 0xFF] == n) continue;  // every key shares it
    uint32_t offset = 0;
    for (int b = 0; b < 256; ++b) {
      const uint32_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = keys[i];
      scratch[count[(key >> shift) & 0xFF]++] = key;
    }
    std::swap(keys, scratch);
  }
  for (size_t i = 0; i < n; ++i) values[i] = std::bit_cast<double>(FromKey(keys[i]));
}

}  // namespace exstream
