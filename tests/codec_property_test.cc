// Property tests of the column codecs: random streams of every double mode
// and decimal power, XOR windows around the bit reader's 57-bit fast path
// and at the stream's end, extreme int deltas and mixed-kind attribute
// blocks round-trip bit for bit, and every truncation and single-byte
// corruption of a valid stream or block decodes to the status code (and, if
// OK, the values) of the reference decoders in codec_oracle.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/compress.h"
#include "archive/serialization.h"
#include "codec_oracle.h"
#include "common/crc32.h"
#include "common/rng.h"

namespace exstream {
namespace {

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<uint64_t>(v[i]);
  return out;
}

// Decodes `data` with both decoders, each reading `n` values through a
// ByteReader, and checks they agree on the status code, the values and the
// bytes consumed.
template <typename T, typename Decode, typename Oracle>
void ExpectSameDecode(std::string_view data, size_t n, Decode decode, Oracle oracle) {
  ByteReader r(data);
  ByteReader ro(data);
  std::vector<T> got;
  std::vector<T> want;
  const Status st = decode(&r, n, &got);
  const Status so = oracle(&ro, n, &want);
  ASSERT_EQ(st.code(), so.code()) << st.ToString() << " vs " << so.ToString();
  if (!st.ok()) return;
  ASSERT_EQ(r.pos(), ro.pos());
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)), 0);
}

// Every prefix of `data` and every single-byte change of it.
template <typename Fn>
void ForEachDamage(const std::string& data, Fn fn) {
  for (size_t len = 0; len < data.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    fn(std::string_view(data).substr(0, len));
  }
  std::string damaged = data;
  for (size_t i = 0; i < data.size(); ++i) {
    for (int x = 1; x < 256; ++x) {
      damaged[i] = static_cast<char>(data[i] ^ x);
      SCOPED_TRACE("byte " + std::to_string(i) + " ^ " + std::to_string(x));
      fn(damaged);
    }
    damaged[i] = data[i];
  }
}

void CheckDoubles(const std::vector<double>& vals, int want_mode, int want_pow) {
  std::string enc;
  EncodeDoubles(vals.data(), vals.size(), &enc);
  ASSERT_EQ(static_cast<uint8_t>(enc[0]), want_mode);
  if (want_pow >= 0) {
    ByteReader header(enc);
    ASSERT_TRUE(header.GetU8().ok());
    ASSERT_TRUE(header.GetVarint().ok());
    ASSERT_EQ(*header.GetU8(), want_pow);
  }
  ByteReader r(enc);
  std::vector<double> got;
  ASSERT_TRUE(DecodeDoubles(&r, vals.size(), &got).ok());
  ASSERT_TRUE(r.AtEnd());
  ASSERT_EQ(Bits(got), Bits(vals));
  ForEachDamage(enc, [&](std::string_view data) {
    ExpectSameDecode<double>(data, vals.size(), DecodeDoubles, OracleDecodeDoubles);
  });
}

TEST(CodecPropertyTest, ScaledIntDoublesEveryPower) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (int pow = 0; pow <= 5; ++pow) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " power " + std::to_string(pow));
      Rng rng(seed * 10 + static_cast<uint64_t>(pow));
      const double scale = pow == 5 ? 1e6 : std::pow(10.0, pow);  // kPow10's entries
      std::vector<double> vals(static_cast<size_t>(rng.UniformInt(1, 24)));
      for (double& v : vals) {
        int64_t k = rng.UniformInt(-100000, 100000);
        if (pow > 0 && k % 10 == 0) k += 1;  // needs this power, not a lower one
        v = static_cast<double>(k) / scale;
      }
      CheckDoubles(vals, 2, pow);
    }
  }
}

TEST(CodecPropertyTest, XorAndRawDoubles) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<double> smooth(static_cast<size_t>(rng.UniformInt(4, 20)));
    double level = rng.Gaussian(0, 100);
    for (double& v : smooth) v = rng.Chance(0.3) ? level : (level += rng.Gaussian(0, 1));
    CheckDoubles(smooth, 1, -1);
    std::vector<double> noise(static_cast<size_t>(rng.UniformInt(1, 12)));
    for (double& v : noise) {
      v = std::bit_cast<double>(static_cast<uint64_t>(rng.UniformInt(
          std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max())));
    }
    CheckDoubles(noise, 0, -1);
  }
}

// XOR windows of every length around the 57-bit fast-path limit, at every
// bit offset, and ending at the stream's last bits.
TEST(CodecPropertyTest, XorWindowsAroundTheFastPathLimit) {
  const int kLengths[] = {1, 8, 55, 56, 57, 58, 59, 63, 64};
  int xor_streams = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    uint64_t cur = static_cast<uint64_t>(
        rng.UniformInt(std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max()));
    std::vector<double> vals{std::bit_cast<double>(cur)};
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 14));
    int length = 0;
    int leading = 0;
    while (vals.size() < n) {
      if (length == 0 || rng.Chance(0.4)) {  // else reuse the window: '10'
        length = kLengths[rng.UniformInt(0, 8)];
        leading = static_cast<int>(rng.UniformInt(0, std::min(31, 64 - length)));
      }
      // Meaningful bits with both ends set, so the window is exactly this.
      uint64_t bits = length == 64 ? ~uint64_t{0} >> 1 : (uint64_t{1} << length) - 1;
      bits &= static_cast<uint64_t>(rng.UniformInt(0, std::numeric_limits<int64_t>::max()));
      bits |= (uint64_t{1} << (length - 1)) | 1;
      cur ^= bits << (64 - leading - length);
      vals.push_back(std::bit_cast<double>(cur));
      if (rng.Chance(0.2)) vals.push_back(vals.back());  // a repeat: '0' bit
    }
    std::string enc;
    EncodeDoubles(vals.data(), vals.size(), &enc);
    xor_streams += enc[0] == 1;
    ByteReader r(enc);
    std::vector<double> got;
    ASSERT_TRUE(DecodeDoubles(&r, vals.size(), &got).ok());
    ASSERT_EQ(Bits(got), Bits(vals));
    ForEachDamage(enc, [&](std::string_view data) {
      ExpectSameDecode<double>(data, vals.size(), DecodeDoubles, OracleDecodeDoubles);
    });
  }
  EXPECT_GE(xor_streams, 20);  // most streams beat raw and stay XOR
}

TEST(CodecPropertyTest, ExtremeIntsTimestampsAndIds) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<int64_t> ints(static_cast<size_t>(rng.UniformInt(0, 16)));
    for (int64_t& v : ints) {
      switch (rng.UniformInt(0, 3)) {
        case 0: v = kMin; break;
        case 1: v = kMax; break;
        case 2: v = rng.UniformInt(-3, 3); break;
        default: v = rng.UniformInt(kMin, kMax); break;
      }
    }
    std::string enc;
    EncodeInts(ints.data(), ints.size(), &enc);
    ByteReader r(enc);
    std::vector<int64_t> got;
    ASSERT_TRUE(DecodeInts(&r, ints.size(), &got).ok());
    ASSERT_EQ(got, ints);
    ForEachDamage(enc, [&](std::string_view data) {
      ExpectSameDecode<int64_t>(data, ints.size(), DecodeInts, OracleDecodeInts);
      // More values than the stream holds: a read past the end.
      ExpectSameDecode<int64_t>(data, ints.size() + 3, DecodeInts, OracleDecodeInts);
    });

    std::vector<Timestamp> ts(ints.begin(), ints.end());
    enc.clear();
    EncodeTimestampsDoD(ts, &enc);
    std::vector<Timestamp> got_ts;
    ASSERT_TRUE(DecodeTimestampsDoD(enc, ts.size(), &got_ts).ok());
    ASSERT_EQ(got_ts, ts);
    const auto ts_decode = [](ByteReader* r, size_t n, std::vector<Timestamp>* out) {
      return DecodeTimestampsDoD(*r->GetBytes(r->remaining()), n, out);
    };
    const auto ts_oracle = [](ByteReader* r, size_t n, std::vector<Timestamp>* out) {
      return OracleDecodeTimestampsDoD(*r->GetBytes(r->remaining()), n, out);
    };
    ForEachDamage(enc, [&](std::string_view data) {
      ExpectSameDecode<Timestamp>(data, ts.size(), ts_decode, ts_oracle);
      ExpectSameDecode<Timestamp>(data, ts.size() + 2, ts_decode, ts_oracle);
    });

    std::vector<uint32_t> ids(static_cast<size_t>(rng.UniformInt(0, 12)));
    for (uint32_t& v : ids) {
      v = rng.Chance(0.3) ? UINT32_MAX : static_cast<uint32_t>(rng.UniformInt(0, 300));
    }
    enc.clear();
    EncodeU32s(ids.data(), ids.size(), &enc);
    ForEachDamage(enc, [&](std::string_view data) {
      ExpectSameDecode<uint32_t>(data, ids.size(), DecodeU32s, OracleDecodeU32s);
    });
  }
}

// A random column: single-kind (the declared kind on every row) or mixed
// kinds with missing rows.
AttributeColumn RandomColumn(Rng* rng, size_t rows) {
  AttributeColumn col;
  const int mix = static_cast<int>(rng->UniformInt(0, 3));
  col.declared = mix == 1 ? ValueType::kInt64 : mix == 2 ? ValueType::kString
                                                         : ValueType::kDouble;
  const int decimals = static_cast<int>(rng->UniformInt(0, 2));
  for (size_t i = 0; i < rows; ++i) {
    ValueType kind = col.declared;
    if (mix == 3) {
      const int64_t k = rng->UniformInt(0, 3);
      if (k == 3) {
        col.tags.push_back(kMissingValueTag);
        col.nums.push_back(std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      kind = static_cast<ValueType>(k);
    }
    col.tags.push_back(static_cast<uint8_t>(kind));
    if (kind == ValueType::kInt64) {
      const int64_t v = rng->Chance(0.1) ? std::numeric_limits<int64_t>::min()
                                         : rng->UniformInt(-1000, 1000);
      col.ints.push_back(v);
      col.nums.push_back(static_cast<double>(v));
    } else if (kind == ValueType::kDouble) {
      col.nums.push_back(static_cast<double>(rng->UniformInt(-5000, 5000)) /
                         std::pow(10.0, decimals));
    } else {
      if (col.dict.empty() || rng->Chance(0.3)) {
        col.dict.push_back("s" + std::to_string(col.dict.size()));
      }
      col.str_ids.push_back(
          static_cast<uint32_t>(rng->UniformInt(0, static_cast<int64_t>(col.dict.size()) - 1)));
      col.nums.push_back(std::numeric_limits<double>::quiet_NaN());
    }
  }
  return col;
}

void ExpectSameColumn(const AttributeColumn& got, const AttributeColumn& want) {
  ASSERT_EQ(got.declared, want.declared);
  ASSERT_EQ(got.tags, want.tags);
  ASSERT_EQ(Bits(got.nums), Bits(want.nums));
  ASSERT_EQ(got.ints, want.ints);
  ASSERT_EQ(got.str_ids, want.str_ids);
  ASSERT_EQ(got.dict, want.dict);
}

// Frame offsets of a one-group frame: everything before the first attribute
// block, then each attribute block's payload.
struct SplitFrame {
  std::string prefix;
  std::vector<std::string> blocks;
};

SplitFrame Split(const std::string& frame, size_t columns) {
  size_t pos = 8;  // magic, row count
  auto next_block = [&]() {
    uint32_t len = 0;
    std::memcpy(&len, frame.data() + pos, sizeof(len));
    const size_t start = pos + 8;
    pos = start + len;
    return frame.substr(start, len);
  };
  next_block();  // header
  next_block();  // ts column
  SplitFrame out{frame.substr(0, pos), {}};
  for (size_t c = 0; c < columns; ++c) out.blocks.push_back(next_block());
  return out;
}

std::string Join(const SplitFrame& f) {
  std::string out = f.prefix;
  for (const std::string& b : f.blocks) {
    const uint32_t words[] = {static_cast<uint32_t>(b.size()), Crc32(b)};
    out.append(reinterpret_cast<const char*>(words), sizeof(words));
    out.append(b);
  }
  return out;
}

// Mixed-kind and single-kind columns round-trip bit for bit; a truncated or
// changed attribute block behind a valid CRC fails (or parses) exactly as the
// reference block parser says.
TEST(CodecPropertyTest, AttributeBlocksMatchTheReferenceParser) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const size_t rows = static_cast<size_t>(rng.UniformInt(1, 12));
    ChunkColumns cols;
    cols.set_type(3);
    for (size_t i = 0; i < rows; ++i) cols.mutable_ts()->push_back(static_cast<Timestamp>(i * 7));
    const size_t width = static_cast<size_t>(rng.UniformInt(1, 3));
    for (size_t c = 0; c < width; ++c) cols.mutable_attrs()->push_back(RandomColumn(&rng, rows));

    const std::string frame = SerializeColumns(cols);
    auto back = DeserializeColumns(frame);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    for (size_t c = 0; c < width; ++c) ExpectSameColumn(back->attr(c), cols.attr(c));

    const SplitFrame split = Split(frame, width);
    ASSERT_EQ(Join(split), frame);
    const size_t c = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(width) - 1));
    ForEachDamage(split.blocks[c], [&](std::string_view block) {
      SplitFrame damaged = split;
      damaged.blocks[c] = std::string(block);
      auto got = DeserializeColumns(Join(damaged));
      auto want = OracleParseAttributeBlock(block, rows, c);
      ASSERT_EQ(got.status().code(), want.status().code()) << got.status().ToString();
      if (got.ok()) ExpectSameColumn(got->attr(c), *want);
    });
  }
}

// Single-kind columns whose other dense vectors are not empty, or whose
// dense vector is longer than the rows: the census rejects them, so the
// single-kind shortcut must not accept them either.
TEST(CodecPropertyTest, SingleKindColumnsWithExtraDenseValuesAreCorruption) {
  for (const ValueType kind : {ValueType::kDouble, ValueType::kInt64}) {
    for (int extra = 0; extra < 3; ++extra) {
      AttributeColumn col;
      col.declared = kind;
      for (int i = 0; i < 4; ++i) {
        col.tags.push_back(static_cast<uint8_t>(kind));
        col.nums.push_back(i);
        if (kind == ValueType::kInt64) col.ints.push_back(i);
      }
      if (extra == 0) col.ints.push_back(9);  // an int no row claims
      if (extra == 1) {  // a string no row claims
        col.dict.push_back("x");
        col.str_ids.push_back(0);
      }
      if (extra == 2 && kind == ValueType::kInt64) {
        col.tags.push_back(static_cast<uint8_t>(ValueType::kDouble));  // a double row
        col.nums.push_back(0.5);
      }
      ChunkColumns cols;
      cols.set_type(1);
      for (size_t i = 0; i < col.tags.size(); ++i) cols.mutable_ts()->push_back(1);
      cols.mutable_attrs()->push_back(col);
      const std::string frame = SerializeColumns(cols);
      const SplitFrame split = Split(frame, 1);
      auto got = DeserializeColumns(frame);
      auto want = OracleParseAttributeBlock(split.blocks[0], col.tags.size(), 0);
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) + " extra " +
                   std::to_string(extra));
      ASSERT_EQ(got.status().code(), want.status().code()) << got.status().ToString();
      if (extra < 2) {
        EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

}  // namespace
}  // namespace exstream
