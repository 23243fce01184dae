// Tiered-archive bench: on-disk compression of the v4 spill format vs the
// uncompressed columnar layout (the retired v3 format, sized in closed form),
// and wide-interval feature-build + Explain latency answered from downsampled
// aggregate tiers vs exact raw rows.
//
// Correctness is checked before timing: the tiered Explain must keep every
// abnormal-interval feature series bitwise identical to the exact run (tiers
// only ever answer reference-side scans), and the tiered pass must actually
// serve tier segments (otherwise the timing compares identical code paths).
//
// Emits BENCH_archive_tiers.json. Acceptance gates, full mode only:
//   - v4 spill bytes at least 5x smaller than v3 across the simulator archive
//   - tiered wide-interval Explain no slower than the exact one
// --smoke shrinks the workload for CI; gates then only print (the
// machine-independent subset is re-checked by scripts/check_archive_tiers.py).

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"

#include "archive/archive.h"
#include "archive/serialization.h"
#include "common/stopwatch.h"
#include "explain/engine.h"
#include "features/builder.h"
#include "features/feature_space.h"
#include "io/file_util.h"

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

// Sizes every archived type's events as one chunk in both layouts; v4 is
// exactly what SpillTo writes.
SpillSizes MeasureSpillSizes(const std::vector<EventArchive::TypeScan>& scans) {
  SpillSizes sizes;
  for (const auto& scan : scans) {
    sizes.events += scan.events.size();
    sizes.v3 += UncompressedColumnarBytes(
        CheckResult(ChunkColumns::FromRows(scan.events), "columns"));
    sizes.v4 += SerializeEvents(scan.events).size();
  }
  return sizes;
}

double Seconds(Stopwatch& timer) { return timer.ElapsedSeconds(); }

// Best-of-reps wall time of one thunk.
template <typename Fn>
double TimeBest(size_t reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch timer;
    fn();
    best = std::min(best, Seconds(timer));
  }
  return best;
}

// Bitwise comparison of the abnormal-interval series of two reports, keyed by
// feature name (reference-side rewards differ under tiering, so the ranked
// order may legitimately differ).
bool AbnormalSeriesIdentical(const ExplanationReport& a, const ExplanationReport& b) {
  if (a.ranked.size() != b.ranked.size()) return false;
  std::map<std::string, const RankedFeature*> by_name;
  for (const RankedFeature& f : a.ranked) by_name[f.spec.Name()] = &f;
  for (const RankedFeature& f : b.ranked) {
    auto it = by_name.find(f.spec.Name());
    if (it == by_name.end()) return false;
    if (it->second->abnormal_series.times() != f.abnormal_series.times()) return false;
    if (it->second->abnormal_series.values() != f.abnormal_series.values()) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  size_t reps = 0;  // 0 = default per mode (full: 5, smoke: 2)
  std::string out_path = "BENCH_archive_tiers.json";
  std::string spill_dir = "/tmp/exstream_bench_tiers";
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = strtoull(argv[++i], nullptr, 10);
    } else if (strcmp(argv[i], "--spill-dir") == 0 && i + 1 < argc) {
      spill_dir = argv[++i];
    } else {
      fprintf(stderr,
              "usage: bench_archive_tiers [--smoke] [--out PATH] [--reps N] "
              "[--spill-dir DIR]\n");
      return 2;
    }
  }
  if (reps == 0) reps = smoke ? 2 : 5;

  WorkloadRunOptions options;
  options.num_nodes = smoke ? 4 : 16;
  options.num_normal_jobs = smoke ? 2 : 4;
  const WorkloadDef def = HadoopWorkloads()[0];
  fprintf(stderr, "[bench] building %s (%d nodes) ...\n", def.name.c_str(),
          options.num_nodes);
  auto run = BuildRun(def, options);

  // Pull the full simulated archive out as rows; they feed both the
  // format-size measurement and the tiered replica archive.
  const TimeInterval everything{std::numeric_limits<Timestamp>::min() / 2,
                                std::numeric_limits<Timestamp>::max() / 2};
  const auto scans =
      CheckResult(run->archive->ScanAll(everything), "full archive scan");
  Timestamp first_ts = std::numeric_limits<Timestamp>::max();
  Timestamp last_ts = std::numeric_limits<Timestamp>::min();
  for (const auto& scan : scans) {
    if (scan.events.empty()) continue;
    first_ts = std::min(first_ts, scan.events.front().ts);
    last_ts = std::max(last_ts, scan.events.back().ts);
  }

  fprintf(stderr, "[bench] measuring spill format sizes ...\n");
  const SpillSizes sizes = MeasureSpillSizes(scans);
  const double ratio_v3_v4 =
      static_cast<double>(sizes.v3) / std::max<size_t>(sizes.v4, 1);

  // Replica archive tuned for tiering: every sealed chunk spills (cold reads
  // are the quantity under test) and carries one aggregate tier whose window
  // is the gcd of the workload's feature windows, so every windowed feature
  // spec can be answered from the tier.
  const FeatureSpaceOptions space = run->FeatureSpace();
  Timestamp tier_window = 0;
  for (const Timestamp w : space.windows) tier_window = std::gcd(tier_window, w);
  if (tier_window <= 0) tier_window = 10;
  CheckOk(EnsureDir(spill_dir), "spill dir");
  ArchiveOptions aopts;
  aopts.spill_dir = spill_dir;
  aopts.chunk_capacity = 512;  // chunks must seal for tiers to exist
  aopts.max_resident_chunks = 1;
  aopts.tier_windows = {tier_window, tier_window * 6};
  EventArchive tiered_archive(run->registry.get(), aopts);
  for (const auto& scan : scans) {
    for (const Event& e : scan.events) {
      CheckOk(tiered_archive.Append(e), "replica append");
    }
  }

  // Wide reference interval: everything before the anomaly — "compare the
  // anomaly against all archived history", the access pattern tiering exists
  // to make cheap.
  AnomalyAnnotation wide = run->annotation;
  wide.reference.range =
      TimeInterval{first_ts, run->annotation.abnormal.range.lower - 1};
  const std::vector<FeatureSpec> specs =
      GenerateFeatureSpecs(*run->registry, space);

  // Correctness + counter check before timing.
  const FeatureBuilder builder(&tiered_archive);
  const auto build_exact = CheckResult(
      builder.Build(specs, wide.reference.range), "exact build");
  const size_t tier_served_before = tiered_archive.tier_segments_served();
  const auto build_tiered = CheckResult(
      builder.Build(specs, wide.reference.range, nullptr, nullptr, nullptr,
                    /*allow_tiers=*/true),
      "tiered build");
  const size_t tier_segments =
      tiered_archive.tier_segments_served() - tier_served_before;
  if (tier_segments == 0) {
    fprintf(stderr, "FAIL: tiered build served no tier segments (tier window "
            "%lld)\n", static_cast<long long>(tier_window));
    return 1;
  }
  if (build_exact.size() != build_tiered.size()) {
    fprintf(stderr, "FAIL: tiered build feature count diverged\n");
    return 1;
  }

  ExplainOptions exact_opts = run->DefaultExplainOptions();
  exact_opts.tiered_reference_scans = false;
  ExplainOptions tiered_opts = run->DefaultExplainOptions();
  tiered_opts.tiered_reference_scans = true;
  const ExplanationEngine exact_engine(&tiered_archive, run->partitions.get(),
                                       run->MakeSeriesProvider(), exact_opts);
  const ExplanationEngine tiered_engine(&tiered_archive, run->partitions.get(),
                                        run->MakeSeriesProvider(), tiered_opts);
  const ExplanationReport exact_report =
      CheckResult(exact_engine.Explain(wide), "exact explain");
  const ExplanationReport tiered_report =
      CheckResult(tiered_engine.Explain(wide), "tiered explain");
  const bool abnormal_identical =
      AbnormalSeriesIdentical(exact_report, tiered_report);
  if (!abnormal_identical) {
    fprintf(stderr, "FAIL: tiered Explain changed abnormal-interval series\n");
    return 1;
  }

  // Timing uses the windowed-only feature space: tiering accelerates the
  // smoothed aggregates (the paper's generated features — means and
  // frequencies); raw-series specs read exact rows in BOTH paths by design,
  // so including them only adds an identical constant to each side. The
  // correctness pass above keeps raw specs in, which is the stronger check.
  FeatureSpaceOptions timing_space = space;
  timing_space.include_raw = false;
  const std::vector<FeatureSpec> timing_specs =
      GenerateFeatureSpecs(*run->registry, timing_space);
  ExplainOptions exact_timing_opts = exact_opts;
  exact_timing_opts.feature_space = timing_space;
  ExplainOptions tiered_timing_opts = tiered_opts;
  tiered_timing_opts.feature_space = timing_space;
  const ExplanationEngine exact_timing_engine(
      &tiered_archive, run->partitions.get(), run->MakeSeriesProvider(),
      exact_timing_opts);
  const ExplanationEngine tiered_timing_engine(
      &tiered_archive, run->partitions.get(), run->MakeSeriesProvider(),
      tiered_timing_opts);

  fprintf(stderr, "[bench] timing wide-interval feature build ...\n");
  const double build_exact_s = TimeBest(reps, [&] {
    CheckResult(builder.Build(timing_specs, wide.reference.range),
                "exact build");
  });
  const double build_tiered_s = TimeBest(reps, [&] {
    CheckResult(builder.Build(timing_specs, wide.reference.range, nullptr,
                              nullptr, nullptr, /*allow_tiers=*/true),
                "tiered build");
  });
  fprintf(stderr, "[bench] timing wide-interval Explain ...\n");
  const double explain_exact_s = TimeBest(reps, [&] {
    CheckResult(exact_timing_engine.Explain(wide), "exact explain");
  });
  const double explain_tiered_s = TimeBest(reps, [&] {
    CheckResult(tiered_timing_engine.Explain(wide), "tiered explain");
  });
  const double build_speedup = build_exact_s / std::max(build_tiered_s, 1e-12);
  const double explain_speedup =
      explain_exact_s / std::max(explain_tiered_s, 1e-12);

  printf("\nArchive tiering & compression, %s (%zu events, %zu specs)\n",
         def.name.c_str(), sizes.events, specs.size());
  printf("%-28s %14s\n", "spill format", "bytes");
  printf("%-28s %14zu\n", "v3 (columnar)", sizes.v3);
  printf("%-28s %14zu\n", "v4 (compressed columnar)", sizes.v4);
  printf("compression: v4 = %.2fx smaller than v3\n", ratio_v3_v4);
  printf("\n%-28s %14s %14s\n", "wide-interval latency", "exact s", "tiered s");
  printf("%-28s %14.5f %14.5f  (%.2fx)\n", "feature build", build_exact_s,
         build_tiered_s, build_speedup);
  printf("%-28s %14.5f %14.5f  (%.2fx)\n", "Explain", explain_exact_s,
         explain_tiered_s, explain_speedup);
  printf("tier segments served per build: %zu; abnormal series bit-identical\n",
         tier_segments);
  printf("acceptance: compression %.2fx %s, tiered Explain %.2fx %s\n",
         ratio_v3_v4,
         smoke ? "(smoke; gate applies to the full run)"
               : (ratio_v3_v4 >= 5.0 ? "(PASS, >= 5x)" : "(FAIL, < 5x)"),
         explain_speedup,
         smoke ? "(smoke; gate applies to the full run)"
               : (explain_speedup >= 1.0 ? "(PASS, >= 1x)" : "(FAIL, < 1x)"));

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("archive_tiers");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("workload");
  json.String(def.name);
  json.Key("num_nodes");
  json.UInt(static_cast<size_t>(options.num_nodes));
  json.Key("events_total");
  json.UInt(sizes.events);
  json.Key("num_specs");
  json.UInt(specs.size());
  json.Key("tier_window");
  json.UInt(static_cast<size_t>(tier_window));
  json.Key("v3_bytes");
  json.UInt(sizes.v3);
  json.Key("v4_bytes");
  json.UInt(sizes.v4);
  json.Key("compression_ratio_v3_over_v4");
  json.Double(ratio_v3_v4);
  json.Key("build_exact_s");
  json.Double(build_exact_s);
  json.Key("build_tiered_s");
  json.Double(build_tiered_s);
  json.Key("build_speedup");
  json.Double(build_speedup);
  json.Key("explain_exact_s");
  json.Double(explain_exact_s);
  json.Key("explain_tiered_s");
  json.Double(explain_tiered_s);
  json.Key("explain_speedup");
  json.Double(explain_speedup);
  json.Key("tier_segments_served");
  json.UInt(tier_segments);
  json.Key("abnormal_series_identical");
  json.Bool(abnormal_identical);
  json.MemoryObject(SampleMemoryStats());
  json.EndObject();
  if (!json.WriteFile(out_path)) return 1;
  fprintf(stderr, "[bench] wrote %s\n", out_path.c_str());

  if (!smoke && (ratio_v3_v4 < 5.0 || explain_speedup < 1.0)) return 1;
  return 0;
}
