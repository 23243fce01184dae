// libFuzzer harness for the event codec: the frame header (group table, run
// sequence), the per-column decoders behind it (delta-of-delta timestamps,
// Gorilla-style XOR doubles, RLE tags, varint dictionaries), and the
// rejection of every other magic — the bytes read back from spill and
// checkpoint files, WAL records and replication frames.
// Arbitrary bytes must come back as a Status (Corruption/Truncated), never a
// crash, hang, or unbounded allocation.
//
// Build: cmake -DEXSTREAM_BUILD_FUZZERS=ON with Clang; see fuzz/CMakeLists.txt.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "archive/serialization.h"
#include "common/crc32.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view buf(reinterpret_cast<const char*>(data), size);
  exstream::DeserializeEvents(buf).ok();
  exstream::DeserializeColumns(buf).ok();

  // Re-run the frame parser with a valid magic and a checksummed header
  // block around the input, so inputs that lack them still reach the header
  // validation and the per-column block decoders. Input layout: u32 row
  // count, u16 header length, header bytes, group bodies.
  if (size >= 6) {
    uint16_t header_len = 0;
    std::memcpy(&header_len, data + 4, sizeof(header_len));
    const std::string_view rest = buf.substr(6);
    const std::string_view header = rest.substr(0, header_len);
    const uint32_t words[] = {0x45585335u,  // "EXS5"
                              0, static_cast<uint32_t>(header.size()),
                              exstream::Crc32(header)};
    std::string frame(reinterpret_cast<const char*>(words), sizeof(words));
    std::memcpy(frame.data() + 4, data, 4);  // row count
    frame.append(header);
    frame.append(rest.substr(header.size()));
    exstream::DeserializeEvents(frame).ok();
    exstream::DeserializeColumns(frame).ok();
  }
  return 0;
}
