#include "codec_oracle.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/strings.h"

namespace exstream {

namespace {

int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}

constexpr double kPow10[] = {1.0, 10.0, 100.0, 1000.0, 10000.0, 1000000.0};
constexpr int kNumPows = 6;

// MSB-first bit cursor that takes at most one byte's bits per step.
class OracleBitReader {
 public:
  explicit OracleBitReader(std::string_view data) : data_(data) {}

  Result<uint64_t> Read(int n) {
    if (n <= 0) return uint64_t{0};
    if (n > 64) return Status::Corruption("bit read wider than 64 bits");
    const size_t available = (data_.size() - byte_) * 8 - static_cast<size_t>(bit_);
    if (static_cast<size_t>(n) > available) {
      return Status::Truncated("bit stream ends short");
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

 private:
  std::string_view data_;
  size_t byte_ = 0;
  int bit_ = 0;
};

Status OracleDecodeDoublesXor(std::string_view payload, size_t n,
                              std::vector<double>* out) {
  OracleBitReader r(payload);
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
    if (leading + length > 64) return Status::Corruption("XOR window exceeds 64 bits");
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t bits, r.Read(length));
    prev ^= bits << (64 - leading - length);
    out->push_back(std::bit_cast<double>(prev));
  }
  return Status::OK();
}

Status OracleFinalize(AttributeColumn* col, const std::vector<double>& dbls,
                      size_t rows) {
  col->nums.reserve(rows);
  size_t int_cursor = 0;
  size_t dbl_cursor = 0;
  size_t str_cursor = 0;
  for (size_t i = 0; i < rows; ++i) {
    switch (col->tags[i]) {
      case static_cast<uint8_t>(ValueType::kInt64):
        if (int_cursor >= col->ints.size()) return Status::Corruption("ints census");
        col->nums.push_back(static_cast<double>(col->ints[int_cursor++]));
        break;
      case static_cast<uint8_t>(ValueType::kDouble):
        if (dbl_cursor >= dbls.size()) return Status::Corruption("doubles census");
        col->nums.push_back(dbls[dbl_cursor++]);
        break;
      case static_cast<uint8_t>(ValueType::kString):
        if (str_cursor >= col->str_ids.size()) {
          return Status::Corruption("strings census");
        }
        if (col->str_ids[str_cursor] >= col->dict.size()) {
          return Status::Corruption("string id outside dictionary");
        }
        ++str_cursor;
        col->nums.push_back(std::numeric_limits<double>::quiet_NaN());
        break;
      case kMissingValueTag:
        col->nums.push_back(std::numeric_limits<double>::quiet_NaN());
        break;
      default:
        return Status::Corruption("bad value tag");
    }
  }
  if (int_cursor != col->ints.size() || dbl_cursor != dbls.size() ||
      str_cursor != col->str_ids.size()) {
    return Status::Corruption("dense vectors longer than their tag census");
  }
  return Status::OK();
}

}  // namespace

Status OracleDecodeTimestampsDoD(std::string_view data, size_t n,
                                 std::vector<Timestamp>* out) {
  out->clear();
  if (n == 0) {
    if (!data.empty()) return Status::Corruption("ts stream has bytes but 0 rows");
    return Status::OK();
  }
  ByteReader r(data);
  EXSTREAM_ASSIGN_OR_RETURN(const int64_t first, r.GetSignedVarint());
  out->push_back(first);
  if (n > 1) {
    EXSTREAM_ASSIGN_OR_RETURN(int64_t delta, r.GetSignedVarint());
    out->push_back(WrapAdd(out->back(), delta));
    for (size_t i = 2; i < n; ++i) {
      EXSTREAM_ASSIGN_OR_RETURN(const int64_t dod, r.GetSignedVarint());
      delta = WrapAdd(delta, dod);
      out->push_back(WrapAdd(out->back(), delta));
    }
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after timestamps");
  return Status::OK();
}

Status OracleDecodeDoubles(ByteReader* r, size_t n, std::vector<double>* out) {
  out->clear();
  if (n == 0) return Status::OK();
  EXSTREAM_ASSIGN_OR_RETURN(const uint8_t mode, r->GetU8());
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t len, r->GetVarint());
  EXSTREAM_ASSIGN_OR_RETURN(const std::string_view payload,
                            r->GetBytes(static_cast<size_t>(len)));
  switch (mode) {
    case 0:
      if (payload.size() != n * sizeof(double)) {
        return Status::Corruption("raw double stream size");
      }
      out->resize(n);
      std::memcpy(out->data(), payload.data(), payload.size());
      return Status::OK();
    case 1:
      return OracleDecodeDoublesXor(payload, n, out);
    case 2: {
      ByteReader pr(payload);
      EXSTREAM_ASSIGN_OR_RETURN(const uint8_t pow, pr.GetU8());
      if (pow >= kNumPows) return Status::Corruption("bad power");
      int64_t prev = 0;
      for (size_t i = 0; i < n; ++i) {
        EXSTREAM_ASSIGN_OR_RETURN(const int64_t delta, pr.GetSignedVarint());
        prev = WrapAdd(prev, delta);
        out->push_back(static_cast<double>(prev) / kPow10[pow]);
      }
      if (!pr.AtEnd()) return Status::Corruption("trailing bytes after scaled-int doubles");
      return Status::OK();
    }
    default:
      return Status::Corruption("bad double stream mode");
  }
}

Status OracleDecodeInts(ByteReader* r, size_t n, std::vector<int64_t>* out) {
  out->clear();
  int64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(const int64_t delta, r->GetSignedVarint());
    prev = WrapAdd(prev, delta);
    out->push_back(prev);
  }
  return Status::OK();
}

Status OracleDecodeU32s(ByteReader* r, size_t n, std::vector<uint32_t>* out) {
  out->clear();
  for (size_t i = 0; i < n; ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t v, r->GetVarint());
    if (v > UINT32_MAX) return Status::Corruption("u32 overflow");
    out->push_back(static_cast<uint32_t>(v));
  }
  return Status::OK();
}

Result<AttributeColumn> OracleParseAttributeBlock(std::string_view payload, size_t rows,
                                                  size_t col_index) {
  ByteReader r(payload);
  AttributeColumn col;
  EXSTREAM_ASSIGN_OR_RETURN(const uint8_t declared, r.GetU8());
  if (declared > static_cast<uint8_t>(ValueType::kString)) {
    return Status::Corruption(StrFormat("column %zu: bad declared type", col_index));
  }
  col.declared = static_cast<ValueType>(declared);
  EXSTREAM_RETURN_NOT_OK(DecodeTagsRle(&r, rows, &col.tags));
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_ints, r.GetVarint());
  if (n_ints > rows) return Status::Corruption("int rows exceed row count");
  EXSTREAM_RETURN_NOT_OK(OracleDecodeInts(&r, static_cast<size_t>(n_ints), &col.ints));
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_dbls, r.GetVarint());
  if (n_dbls > rows) return Status::Corruption("double rows exceed row count");
  std::vector<double> dbls;
  EXSTREAM_RETURN_NOT_OK(OracleDecodeDoubles(&r, static_cast<size_t>(n_dbls), &dbls));
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_strs, r.GetVarint());
  if (n_strs > rows) return Status::Corruption("string rows exceed row count");
  EXSTREAM_RETURN_NOT_OK(
      OracleDecodeU32s(&r, static_cast<size_t>(n_strs), &col.str_ids));
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t dict_n, r.GetVarint());
  if (dict_n > r.remaining()) return Status::Corruption("dictionary count");
  for (uint64_t d = 0; d < dict_n; ++d) {
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t len, r.GetVarint());
    EXSTREAM_ASSIGN_OR_RETURN(const std::string_view s,
                              r.GetBytes(static_cast<size_t>(len)));
    col.dict.emplace_back(s);
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes");
  EXSTREAM_RETURN_NOT_OK(OracleFinalize(&col, dbls, rows));
  return col;
}

}  // namespace exstream
