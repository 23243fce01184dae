#include "archive/compress.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/strings.h"

namespace exstream {

namespace {

// Longest legal LEB128 encoding of a uint64 (10 × 7 bits >= 64).
constexpr int kMaxVarintBytes = 10;

}  // namespace

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Result<uint64_t> ByteReader::GetVarintSlow() {
  uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    if (pos_ >= data_.size()) {
      return Status::Truncated(
          StrFormat("varint runs past end of buffer at offset %zu", pos_));
    }
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (i == kMaxVarintBytes - 1 && (byte & 0xFE) != 0) {
      // The 10th byte may only carry the top bit of a uint64.
      return Status::Corruption(
          StrFormat("varint overflows 64 bits at offset %zu", pos_ - 1));
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  return Status::Corruption(
      StrFormat("varint longer than %d bytes at offset %zu", kMaxVarintBytes, pos_));
}

Result<uint8_t> ByteReader::GetU8() {
  if (pos_ >= data_.size()) {
    return Status::Truncated(
        StrFormat("byte read past end of buffer at offset %zu", pos_));
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<std::string_view> ByteReader::GetBytes(size_t n) {
  if (n > data_.size() - pos_) {
    return Status::Truncated(StrFormat(
        "byte range at offset %zu needs %zu bytes, %zu left", pos_, n, remaining()));
  }
  std::string_view v = data_.substr(pos_, n);
  pos_ += n;
  return v;
}

void BitWriter::Write(uint64_t bits, int n) {
  if (n <= 0) return;
  if (n < 64) bits &= (uint64_t{1} << n) - 1;
  // Feed the accumulator MSB-first, draining full bytes as they form.
  int left = n;
  while (left > 0) {
    const int take = std::min(left, 8 - acc_bits_);
    const uint64_t piece = (bits >> (left - take)) & ((uint64_t{1} << take) - 1);
    acc_ = (acc_ << take) | piece;
    acc_bits_ += take;
    left -= take;
    if (acc_bits_ == 8) {
      out_->push_back(static_cast<char>(acc_ & 0xFF));
      acc_ = 0;
      acc_bits_ = 0;
    }
  }
}

void BitWriter::Finish() {
  if (acc_bits_ > 0) {
    out_->push_back(static_cast<char>((acc_ << (8 - acc_bits_)) & 0xFF));
    acc_ = 0;
    acc_bits_ = 0;
  }
}

Result<uint64_t> BitReader::ReadSlow(int n) {
  if (n <= 0) return uint64_t{0};
  if (n > 64) return Status::Corruption("bit read wider than 64 bits");
  const size_t available = (data_.size() - byte_) * 8 - static_cast<size_t>(bit_);
  if (static_cast<size_t>(n) > available) {
    return Status::Truncated(
        StrFormat("bit stream ends %zu bits short", static_cast<size_t>(n) - available));
  }
  uint64_t v = 0;
  int left = n;
  while (left > 0) {
    const int take = std::min(left, 8 - bit_);
    const uint8_t cur = static_cast<uint8_t>(data_[byte_]);
    const uint8_t piece =
        static_cast<uint8_t>((cur >> (8 - bit_ - take)) & ((1u << take) - 1));
    v = (v << take) | piece;
    bit_ += take;
    left -= take;
    if (bit_ == 8) {
      bit_ = 0;
      ++byte_;
    }
  }
  return v;
}

namespace {

// Wrap-around int64 arithmetic: deltas are exact mod 2^64, so extreme values
// round-trip, and no input (or corrupt byte) can overflow a signed add.
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) - static_cast<uint64_t>(b));
}
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}

}  // namespace

void EncodeTimestampsDoD(const std::vector<Timestamp>& ts, std::string* out) {
  if (ts.empty()) return;
  PutSignedVarint(out, ts[0]);
  if (ts.size() == 1) return;
  int64_t prev_delta = WrapSub(ts[1], ts[0]);
  PutSignedVarint(out, prev_delta);
  for (size_t i = 2; i < ts.size(); ++i) {
    const int64_t delta = WrapSub(ts[i], ts[i - 1]);
    PutSignedVarint(out, WrapSub(delta, prev_delta));
    prev_delta = delta;
  }
}

Status DecodeTimestampsDoD(std::string_view data, size_t n,
                           std::vector<Timestamp>* out) {
  out->clear();
  if (n == 0) {
    if (!data.empty()) return Status::Corruption("ts stream has bytes but 0 rows");
    return Status::OK();
  }
  // Each delta-of-delta costs at least one byte, so the buffer bounds the
  // array — a corrupt row count cannot drive a huge allocation, and a read
  // past the buffer fails before a write past the array.
  out->resize(std::min(n, data.size()));
  Timestamp* dst = out->data();
  ByteReader r(data);
  EXSTREAM_ASSIGN_OR_RETURN(const int64_t first, r.GetSignedVarint());
  dst[0] = first;
  if (n > 1) {
    EXSTREAM_ASSIGN_OR_RETURN(int64_t delta, r.GetSignedVarint());
    dst[1] = WrapAdd(first, delta);
    for (size_t i = 2; i < n; ++i) {
      EXSTREAM_ASSIGN_OR_RETURN(const int64_t dod, r.GetSignedVarint());
      delta = WrapAdd(delta, dod);
      dst[i] = WrapAdd(dst[i - 1], delta);
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption(
        StrFormat("%zu trailing bytes after %zu timestamps", r.remaining(), n));
  }
  return Status::OK();
}

namespace {

constexpr uint8_t kDoublesRaw = 0;
constexpr uint8_t kDoublesXor = 1;
constexpr uint8_t kDoublesScaledInt = 2;
// Decimal powers the integer mode probes, cheapest first. 10^p must be exact
// in double for the round-trip check below to mean anything (true through
// 10^15).
constexpr double kPow10[] = {1.0, 10.0, 100.0, 1000.0, 10000.0, 1000000.0};
constexpr int kNumPows = 6;

void EncodeDoublesXor(const double* vals, size_t n, std::string* out) {
  BitWriter w(out);
  uint64_t prev = std::bit_cast<uint64_t>(vals[0]);
  w.Write(prev, 64);
  int prev_leading = -1;  // no reusable window yet
  int prev_length = 0;
  for (size_t i = 1; i < n; ++i) {
    const uint64_t cur = std::bit_cast<uint64_t>(vals[i]);
    const uint64_t x = cur ^ prev;
    prev = cur;
    if (x == 0) {
      w.Write(0, 1);
      continue;
    }
    int leading = std::countl_zero(x);
    const int trailing = std::countr_zero(x);
    if (leading > 31) leading = 31;  // 5-bit field cap
    const int length = 64 - leading - trailing;
    if (prev_leading >= 0 && leading >= prev_leading &&
        trailing >= 64 - prev_leading - prev_length) {
      // '10': the meaningful bits fit the previous window — reuse it.
      w.Write(0b10, 2);
      w.Write(x >> (64 - prev_leading - prev_length), prev_length);
    } else {
      // '11': new window: 5-bit leading zeros, 6-bit (length - 1), bits.
      w.Write(0b11, 2);
      w.Write(static_cast<uint64_t>(leading), 5);
      w.Write(static_cast<uint64_t>(length - 1), 6);
      w.Write(x >> trailing, length);
      prev_leading = leading;
      prev_length = length;
    }
  }
  w.Finish();
}

Status DecodeDoublesXor(std::string_view payload, size_t n,
                        std::vector<double>* out) {
  BitReader r(payload);
  EXSTREAM_ASSIGN_OR_RETURN(uint64_t prev, r.Read(64));
  out->push_back(std::bit_cast<double>(prev));
  int leading = 0;
  int length = 0;
  for (size_t i = 1; i < n; ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t same, r.Read(1));
    if (same == 0) {
      out->push_back(std::bit_cast<double>(prev));
      continue;
    }
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t fresh, r.Read(1));
    if (fresh != 0) {
      EXSTREAM_ASSIGN_OR_RETURN(const uint64_t lead, r.Read(5));
      EXSTREAM_ASSIGN_OR_RETURN(const uint64_t len1, r.Read(6));
      leading = static_cast<int>(lead);
      length = static_cast<int>(len1) + 1;
    } else if (length == 0) {
      return Status::Corruption("XOR stream reuses a window before defining one");
    }
    if (leading + length > 64) {
      return Status::Corruption(
          StrFormat("XOR window %d+%d exceeds 64 bits", leading, length));
    }
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t bits, r.Read(length));
    prev ^= bits << (64 - leading - length);
    out->push_back(std::bit_cast<double>(prev));
  }
  return Status::OK();
}

// Probes the smallest decimal power that represents every value exactly as a
// scaled integer; returns -1 when none does. Exactness is bit-level: the
// decoder's divide must reproduce the original double bit for bit (so -0.0,
// NaN, and inexact decimals all fall through to XOR/raw).
int FindScaledIntPower(const double* vals, size_t n) {
  for (int p = 0; p < kNumPows; ++p) {
    bool ok = true;
    for (size_t i = 0; i < n; ++i) {
      const double scaled = vals[i] * kPow10[p];
      if (!(std::fabs(scaled) < 9.0e15)) {  // NaN/inf fail here too
        ok = false;
        break;
      }
      const int64_t iv = std::llround(scaled);
      if (std::bit_cast<uint64_t>(static_cast<double>(iv) / kPow10[p]) !=
          std::bit_cast<uint64_t>(vals[i])) {
        ok = false;
        break;
      }
    }
    if (ok) return p;
  }
  return -1;
}

}  // namespace

void EncodeDoubles(const double* vals, size_t n, std::string* out) {
  if (n == 0) return;
  std::string payload;
  uint8_t mode = kDoublesRaw;
  const int pow = FindScaledIntPower(vals, n);
  if (pow >= 0) {
    mode = kDoublesScaledInt;
    payload.push_back(static_cast<char>(pow));
    int64_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      const int64_t iv = std::llround(vals[i] * kPow10[pow]);
      PutSignedVarint(&payload, iv - prev);
      prev = iv;
    }
  } else {
    EncodeDoublesXor(vals, n, &payload);
    mode = kDoublesXor;
  }
  if (payload.size() >= n * sizeof(double)) {
    // Compression did not pay (adversarial bit patterns): store raw.
    payload.assign(reinterpret_cast<const char*>(vals), n * sizeof(double));
    mode = kDoublesRaw;
  }
  out->push_back(static_cast<char>(mode));
  PutVarint(out, payload.size());
  out->append(payload);
}

Status DecodeDoubles(ByteReader* r, size_t n, std::vector<double>* out) {
  out->clear();
  if (n == 0) return Status::OK();
  EXSTREAM_ASSIGN_OR_RETURN(const uint8_t mode, r->GetU8());
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t len, r->GetVarint());
  EXSTREAM_ASSIGN_OR_RETURN(const std::string_view payload,
                            r->GetBytes(static_cast<size_t>(len)));
  switch (mode) {
    case kDoublesRaw: {
      if (payload.size() != n * sizeof(double)) {
        return Status::Corruption(
            StrFormat("raw double stream holds %zu bytes, %zu rows need %zu",
                      payload.size(), n, n * sizeof(double)));
      }
      out->resize(n);
      std::memcpy(out->data(), payload.data(), payload.size());
      return Status::OK();
    }
    case kDoublesXor: {
      out->reserve(n);
      return DecodeDoublesXor(payload, n, out);
    }
    case kDoublesScaledInt: {
      ByteReader pr(payload);
      EXSTREAM_ASSIGN_OR_RETURN(const uint8_t pow, pr.GetU8());
      if (pow >= kNumPows) {
        return Status::Corruption(
            StrFormat("scaled-int double stream has bad power %u", pow));
      }
      // Each delta costs at least one byte, so past `pr.remaining()` values
      // a read fails before a write: the buffer bounds the array.
      out->resize(std::min(n, pr.remaining()));
      double* dst = out->data();
      int64_t prev = 0;
      for (size_t i = 0; i < n; ++i) {
        EXSTREAM_ASSIGN_OR_RETURN(const int64_t delta, pr.GetSignedVarint());
        prev = WrapAdd(prev, delta);
        dst[i] = static_cast<double>(prev);
      }
      if (!pr.AtEnd()) {
        return Status::Corruption("trailing bytes after scaled-int doubles");
      }
      // The divide is what the encoder's round-trip check verified, so it
      // stays (a multiply by 10^-p would round differently); dividing by
      // 10^0 = 1 is exact and skipped.
      if (pow > 0) {
        const double scale = kPow10[pow];
        for (size_t i = 0; i < n; ++i) dst[i] /= scale;
      }
      return Status::OK();
    }
    default:
      return Status::Corruption(StrFormat("bad double stream mode %u", mode));
  }
}

void EncodeTagsRle(const std::vector<uint8_t>& tags, std::string* out) {
  // Count runs first so the run count prefixes the stream.
  size_t runs = 0;
  for (size_t i = 0; i < tags.size();) {
    size_t j = i + 1;
    while (j < tags.size() && tags[j] == tags[i]) ++j;
    ++runs;
    i = j;
  }
  PutVarint(out, runs);
  for (size_t i = 0; i < tags.size();) {
    size_t j = i + 1;
    while (j < tags.size() && tags[j] == tags[i]) ++j;
    out->push_back(static_cast<char>(tags[i]));
    PutVarint(out, j - i);
    i = j;
  }
}

Status DecodeTagsRle(ByteReader* r, size_t rows, std::vector<uint8_t>* out) {
  out->clear();
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t runs, r->GetVarint());
  if (runs > rows) {
    return Status::Corruption(
        StrFormat("%llu tag runs exceed %zu rows",
                  static_cast<unsigned long long>(runs), rows));
  }
  out->reserve(rows);
  for (uint64_t i = 0; i < runs; ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(const uint8_t tag, r->GetU8());
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t len, r->GetVarint());
    if (len == 0 || len > rows - out->size()) {
      return Status::Corruption(
          StrFormat("tag run %llu of length %llu overflows %zu rows",
                    static_cast<unsigned long long>(i),
                    static_cast<unsigned long long>(len), rows));
    }
    out->insert(out->end(), static_cast<size_t>(len), tag);
  }
  if (out->size() != rows) {
    return Status::Corruption(StrFormat("tag runs cover %zu of %zu rows",
                                        out->size(), rows));
  }
  return Status::OK();
}

void EncodeInts(const int64_t* vals, size_t n, std::string* out) {
  int64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    PutSignedVarint(out, WrapSub(vals[i], prev));
    prev = vals[i];
  }
}

Status DecodeInts(ByteReader* r, size_t n, std::vector<int64_t>* out) {
  // As for scaled-int doubles: a value costs at least one byte, so the
  // buffer bounds the array and a read past it fails before a write.
  out->resize(std::min(n, r->remaining()));
  int64_t* dst = out->data();
  int64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(const int64_t delta, r->GetSignedVarint());
    prev = WrapAdd(prev, delta);
    dst[i] = prev;
  }
  return Status::OK();
}

void EncodeU32s(const uint32_t* vals, size_t n, std::string* out) {
  for (size_t i = 0; i < n; ++i) PutVarint(out, vals[i]);
}

Status DecodeU32s(ByteReader* r, size_t n, std::vector<uint32_t>* out) {
  out->resize(std::min(n, r->remaining()));  // bounded as in DecodeInts
  uint32_t* dst = out->data();
  for (size_t i = 0; i < n; ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t v, r->GetVarint());
    if (v > UINT32_MAX) {
      return Status::Corruption(
          StrFormat("u32 stream value %llu overflows 32 bits",
                    static_cast<unsigned long long>(v)));
    }
    dst[i] = static_cast<uint32_t>(v);
  }
  return Status::OK();
}

}  // namespace exstream
