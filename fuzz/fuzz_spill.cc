// libFuzzer harness for the spill deserializers' entry points: the v2 CRC row
// payload, the v4 columnar dispatch, and the rejection of every other magic
// — the bytes read back from archive spill files and WAL record payloads.
// Both entry points must reject arbitrary corruption with a Status, never a
// crash or an unbounded allocation.
//
// Build: cmake -DEXSTREAM_BUILD_FUZZERS=ON with Clang; see fuzz/CMakeLists.txt.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "archive/serialization.h"
#include "common/crc32.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view buf(reinterpret_cast<const char*>(data), size);
  exstream::DeserializeEvents(buf).ok();
  exstream::DeserializeColumns(buf).ok();

  // Re-run the row parser on a v2 frame around the input: the first four
  // input bytes become the event count and the checksum is patched in, so
  // arbitrary payloads get past the CRC gate into the per-event parser.
  if (size >= 4) {
    const std::string_view payload = buf.substr(4);
    const uint32_t crc = exstream::Crc32(payload);
    std::string v2 = "\x32\x53\x58\x45";  // little-endian u32 0x45585332 ("EXS2")
    v2.append(buf.substr(0, 4));
    v2.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    v2.append(payload);
    exstream::DeserializeEvents(v2).ok();
  }
  return 0;
}
