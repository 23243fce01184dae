// Archive codec bench: on-disk size of the compressed event frame (`EXS5`,
// what spill and checkpoint files hold) vs the uncompressed columnar layout
// (the retired v3 spill format, sized in closed form), over the whole
// simulator archive.
//
// Emits BENCH_archive_codec.json. Acceptance gate, full mode only:
//   - `EXS5` bytes at least 5x smaller than v3 across the simulator archive
// --smoke shrinks the workload for CI; the gate then only prints (the byte
// counts are machine-independent and re-checked by
// scripts/check_archive_codec.py against a committed baseline).

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"

#include "archive/archive.h"
#include "archive/serialization.h"

using namespace exstream;
using namespace exstream::bench;

namespace {

struct SpillSizes {
  size_t v3 = 0;
  size_t v4 = 0;
  size_t events = 0;
};

// Bytes of one chunk in the uncompressed columnar layout (the retired v3
// spill format): a 14-byte header (magic, rows, type, u16 column count), then
// CRC-framed blocks (u32 length + u32 CRC each) — the ts column as raw i64s,
// and per attribute the declared-type byte, one tag byte per row, and
// u32-counted raw ints, doubles and string ids plus the u32-length-prefixed
// dictionary.
size_t UncompressedColumnarBytes(const ChunkColumns& cols) {
  constexpr size_t kFrame = 2 * sizeof(uint32_t);
  size_t bytes = 3 * sizeof(uint32_t) + sizeof(uint16_t) + kFrame +
                 cols.rows() * sizeof(int64_t);
  for (const AttributeColumn& col : cols.attrs()) {
    const size_t dbls = static_cast<size_t>(std::count(
        col.tags.begin(), col.tags.end(), static_cast<uint8_t>(ValueType::kDouble)));
    bytes += kFrame + 1 + col.tags.size() + 4 * sizeof(uint32_t) +
             (col.ints.size() + dbls) * sizeof(int64_t) +
             col.str_ids.size() * sizeof(uint32_t);
    for (const std::string& s : col.dict) bytes += sizeof(uint32_t) + s.size();
  }
  return bytes;
}

// Sizes every archived type's events as one chunk in both layouts; v4 (the
// compressed event frame) is exactly what SpillTo writes.
SpillSizes MeasureSpillSizes(const std::vector<EventArchive::TypeScan>& scans) {
  SpillSizes sizes;
  for (const auto& scan : scans) {
    sizes.events += scan.events.size();
    const std::string frame = SerializeEvents(scan.events);
    sizes.v3 += UncompressedColumnarBytes(
        CheckResult(DeserializeColumns(frame), "columns"));
    sizes.v4 += frame.size();
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_archive_codec.json";
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      fprintf(stderr, "usage: bench_archive_codec [--smoke] [--out PATH]\n");
      return 2;
    }
  }

  WorkloadRunOptions options;
  options.num_nodes = smoke ? 4 : 16;
  options.num_normal_jobs = smoke ? 2 : 4;
  const WorkloadDef def = HadoopWorkloads()[0];
  fprintf(stderr, "[bench] building %s (%d nodes) ...\n", def.name.c_str(),
          options.num_nodes);
  auto run = BuildRun(def, options);

  const TimeInterval everything{std::numeric_limits<Timestamp>::min() / 2,
                                std::numeric_limits<Timestamp>::max() / 2};
  const auto scans =
      CheckResult(run->archive->ScanAll(everything), "full archive scan");
  fprintf(stderr, "[bench] measuring spill format sizes ...\n");
  const SpillSizes sizes = MeasureSpillSizes(scans);
  const double ratio_v3_v4 =
      static_cast<double>(sizes.v3) / std::max<size_t>(sizes.v4, 1);

  printf("\nArchive codec, %s (%zu events)\n", def.name.c_str(), sizes.events);
  printf("%-28s %14s\n", "spill format", "bytes");
  printf("%-28s %14zu\n", "v3 (columnar)", sizes.v3);
  printf("%-28s %14zu\n", "v4 (EXS5 event frame)", sizes.v4);
  printf("compression: v4 = %.2fx smaller than v3\n", ratio_v3_v4);
  printf("acceptance: compression %.2fx %s\n", ratio_v3_v4,
         smoke ? "(smoke; gate applies to the full run)"
               : (ratio_v3_v4 >= 5.0 ? "(PASS, >= 5x)" : "(FAIL, < 5x)"));

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("archive_codec");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("workload");
  json.String(def.name);
  json.Key("num_nodes");
  json.UInt(static_cast<size_t>(options.num_nodes));
  json.Key("events_total");
  json.UInt(sizes.events);
  json.Key("v3_bytes");
  json.UInt(sizes.v3);
  json.Key("v4_bytes");
  json.UInt(sizes.v4);
  json.Key("compression_ratio_v3_over_v4");
  json.Double(ratio_v3_v4);
  json.MemoryObject(SampleMemoryStats());
  json.EndObject();
  if (!json.WriteFile(out_path)) return 1;
  fprintf(stderr, "[bench] wrote %s\n", out_path.c_str());

  if (!smoke && ratio_v3_v4 < 5.0) return 1;
  return 0;
}
