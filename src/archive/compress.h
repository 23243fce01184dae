// Column codecs for the event frame (archive/serialization.h):
// zigzag varints, delta-of-delta timestamps, Gorilla-style XOR doubles with
// an exact decimal/integer fallback, run-length tags, and varint id arrays.
//
// Every decoder is bounds-checked and total: truncated or corrupt input
// yields Status::Truncated / Status::Corruption, never an out-of-bounds read
// or an unbounded loop — these functions sit behind the spill-file CRC but
// are also fuzzed directly (fuzz_spill), so they must hold on arbitrary
// bytes.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "event/event.h"

namespace exstream {

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Appends `v` as a LEB128 varint (1–10 bytes).
void PutVarint(std::string* out, uint64_t v);

inline void PutSignedVarint(std::string* out, int64_t v) {
  PutVarint(out, ZigZagEncode(v));
}

/// \brief Bounds-checked byte/varint cursor over an immutable buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint64_t> GetVarint() {
    // Fast path: a varint of at most 9 bytes (every value below 2^63) that
    // ends inside the buffer. Anything else re-reads on the checked path.
    const size_t n = remaining() < 9 ? remaining() : 9;
    const char* p = data_.data() + pos_;
    uint64_t v = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint8_t byte = static_cast<uint8_t>(p[i]);
      v |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        pos_ += i + 1;
        return v;
      }
    }
    return GetVarintSlow();
  }
  Result<int64_t> GetSignedVarint() {
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t raw, GetVarint());
    return ZigZagDecode(raw);
  }
  Result<uint8_t> GetU8();
  Result<std::string_view> GetBytes(size_t n);

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  /// GetVarint's out-of-line path: 10-byte values, and the Truncated /
  /// Corruption errors.
  Result<uint64_t> GetVarintSlow();

  std::string_view data_;
  size_t pos_ = 0;
};

/// \brief MSB-first bit appender backing the XOR float stream.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  /// Appends the low `n` bits of `bits` (n <= 64), most significant first.
  void Write(uint64_t bits, int n);

  /// Flushes the partial trailing byte (zero-padded). Call exactly once.
  void Finish();

 private:
  std::string* out_;
  uint64_t acc_ = 0;
  int acc_bits_ = 0;
};

/// \brief Bounds-checked MSB-first bit cursor. Reading past the end fails
/// with Status::Truncated instead of touching out-of-range memory.
class BitReader {
 public:
  explicit BitReader(std::string_view data) : data_(data) {}

  Result<uint64_t> Read(int n);

 private:
  std::string_view data_;
  size_t byte_ = 0;
  int bit_ = 0;  ///< bits consumed of data_[byte_]
};

/// \brief Sorted timestamps as zigzag varints of delta-of-deltas: first
/// value, first delta, then each delta's change. Constant-rate streams cost
/// ~1 byte per row.
void EncodeTimestampsDoD(const std::vector<Timestamp>& ts, std::string* out);

/// Decodes exactly `n` timestamps; appends to `*out` (cleared first).
Status DecodeTimestampsDoD(std::string_view data, size_t n,
                           std::vector<Timestamp>* out);

/// \brief Doubles with a per-stream mode byte:
///  0 = raw little-endian (XOR and integer modes both lost),
///  1 = Gorilla XOR bitstream (leading/length window reuse),
///  2 = scaled integers: u8 decimal power p, zigzag delta varints of
///      v * 10^p — used only when every value round-trips *bit-identically*,
///      so it is as lossless as raw.
/// Layout: u8 mode, varint payload length, payload bytes.
void EncodeDoubles(const double* vals, size_t n, std::string* out);

/// Decodes exactly `n` doubles from the mode-tagged stream at `r`.
Status DecodeDoubles(ByteReader* r, size_t n, std::vector<double>* out);

/// \brief Per-row value tags as (tag, run length) pairs: varint run count,
/// then u8 tag + varint length per run. Single-type columns cost ~3 bytes
/// per chunk instead of 1 byte per row.
void EncodeTagsRle(const std::vector<uint8_t>& tags, std::string* out);

/// Decodes tag runs covering exactly `rows` rows.
Status DecodeTagsRle(ByteReader* r, size_t rows, std::vector<uint8_t>* out);

/// \brief int64 array as zigzag varints of consecutive deltas.
void EncodeInts(const int64_t* vals, size_t n, std::string* out);
Status DecodeInts(ByteReader* r, size_t n, std::vector<int64_t>* out);

/// \brief uint32 array as plain varints (dictionary ids are small).
void EncodeU32s(const uint32_t* vals, size_t n, std::string* out);
Status DecodeU32s(ByteReader* r, size_t n, std::vector<uint32_t>* out);

}  // namespace exstream
