// BytesWriter / BytesReader: the little-endian POD + length-prefixed-string
// codec shared by the WAL record framing, the checkpoint manifest, and the
// spill codec's headers and v2 row payload (archive/serialization.cc).
// Truncated when the buffer ends early, no exceptions, no allocation on the
// happy POD path.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/strings.h"

namespace exstream {

/// \brief Appends PODs, strings, and POD vectors onto a growing byte buffer.
class BytesWriter {
 public:
  template <typename T>
  void Put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out_.append(buf, sizeof(T));
  }

  /// u32 length prefix + raw bytes.
  void PutString(std::string_view s) {
    Put<uint32_t>(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }

  /// u32 count prefix + packed elements.
  template <typename T>
  void PutPodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Put<uint32_t>(static_cast<uint32_t>(v.size()));
    out_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }

  /// Raw bytes, no prefix (caller frames them).
  void PutRaw(std::string_view s) { out_.append(s); }

  size_t size() const { return out_.size(); }
  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// \brief Sequential reader over a BytesWriter buffer; every getter validates
/// bounds and returns Truncated past the end.
class BytesReader {
 public:
  explicit BytesReader(std::string_view data) : data_(data) {}

  template <typename T>
  Result<T> Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > data_.size()) {
      return Status::Truncated(
          StrFormat("buffer ends at offset %zu (need %zu more bytes, %zu left)",
                    pos_, sizeof(T), data_.size() - pos_));
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  Result<std::string> GetString() {
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t len, Get<uint32_t>());
    if (pos_ + len > data_.size()) {
      return Status::Truncated(
          StrFormat("string at offset %zu needs %u bytes, %zu left", pos_, len,
                    data_.size() - pos_));
    }
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  template <typename T>
  Status GetPodVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n, Get<uint32_t>());
    const size_t bytes = static_cast<size_t>(n) * sizeof(T);
    if (pos_ + bytes > data_.size()) {
      return Status::Truncated(
          StrFormat("vector at offset %zu needs %zu bytes, %zu left", pos_,
                    bytes, data_.size() - pos_));
    }
    out->resize(n);
    std::memcpy(out->data(), data_.data() + pos_, bytes);
    pos_ += bytes;
    return Status::OK();
  }

  Result<std::string_view> GetView(size_t n) {
    if (pos_ + n > data_.size()) {
      return Status::Truncated(
          StrFormat("block at offset %zu needs %zu bytes, %zu left", pos_, n,
                    data_.size() - pos_));
    }
    std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace exstream
