// Scan + feature-build throughput: FeatureBuilder's columnar ScanView path vs
// a row baseline, over the Hadoop-sim workload's annotated intervals (the
// exact access pattern of the explanation hot path). The row baseline is the
// row-folding reference oracle (tests/feature_oracle.h) over
// row-materializing EventArchive::Scan reads, in the cost shape of the
// retired row scan path: serial, one Scan per type, one raw series per
// (type, attribute).
//
// The two paths must be perf-different but result-identical, so this bench is
// also a correctness harness: it verifies bit-identical Feature series across
// modes before timing anything. (Explanation-level identity is gated by
// bench_explain_qps and explain_determinism_test.)
//
// Emits BENCH_scan_view.json (with memory counters). Acceptance gate, full
// mode only: view-path throughput >= 2x the row baseline (exit 1 otherwise).
// --smoke shrinks the workload for CI; the gate then only prints.

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"

#include "archive/archive.h"
#include "common/stopwatch.h"
#include "feature_oracle.h"
#include "features/builder.h"
#include "features/feature_space.h"

using namespace exstream;
using namespace exstream::bench;

namespace {

struct Measurement {
  double seconds_per_pass = 0.0;  ///< best-of-reps, one pass = both intervals
  double events_per_sec = 0.0;
  size_t iters = 0;
};

// Events the feature build actually reads per pass: in-range rows of every
// referenced type, across both annotation intervals.
size_t EventsPerPass(const WorkloadRun& run, const std::vector<FeatureSpec>& specs) {
  std::vector<EventTypeId> types;
  for (const FeatureSpec& s : specs) {
    if (std::find(types.begin(), types.end(), s.type) == types.end()) {
      types.push_back(s.type);
    }
  }
  size_t events = 0;
  for (const TimeInterval& interval :
       {run.annotation.abnormal.range, run.annotation.reference.range}) {
    for (const EventTypeId t : types) {
      events += CheckResult(run.archive->ScanColumns(t, interval), "count scan").rows();
    }
  }
  return events;
}

// Materializes the full feature space over one interval.
using BuildFn = std::function<Result<std::vector<Feature>>(const TimeInterval&)>;

// One pass: materialize the full feature space over both annotated intervals.
void BuildPass(const BuildFn& build, const WorkloadRun& run,
               std::vector<Feature>* sink) {
  for (const TimeInterval& interval :
       {run.annotation.abnormal.range, run.annotation.reference.range}) {
    std::vector<Feature> feats = CheckResult(build(interval), "feature build");
    if (sink != nullptr) {
      sink->insert(sink->end(), std::make_move_iterator(feats.begin()),
                   std::make_move_iterator(feats.end()));
    }
  }
}

Measurement TimePasses(const BuildFn& build, const WorkloadRun& run,
                       size_t events_per_pass, size_t iters, size_t reps) {
  Measurement m;
  m.iters = iters;
  double best = 1e30;
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    for (size_t i = 0; i < iters; ++i) BuildPass(build, run, nullptr);
    best = std::min(best, timer.ElapsedSeconds() / static_cast<double>(iters));
  }
  m.seconds_per_pass = best;
  m.events_per_sec = static_cast<double>(events_per_pass) / best;
  return m;
}

bool IdenticalFeatures(const std::vector<Feature>& a, const std::vector<Feature>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].spec.Name() != b[i].spec.Name()) return false;
    if (!SameSeriesBits(a[i].series, b[i].series)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  size_t reps = 0;  // 0 = default per mode (full: 5, smoke: 2)
  std::string out_path = "BENCH_scan_view.json";
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = strtoull(argv[++i], nullptr, 10);
    } else {
      fprintf(stderr, "usage: bench_scan_view [--smoke] [--out PATH] [--reps N]\n");
      return 2;
    }
  }
  if (reps == 0) reps = smoke ? 2 : 5;

  // The paper's Hadoop scenario; more nodes = more archived metric streams =
  // more rows behind every scan, which is the quantity under test.
  WorkloadRunOptions options;
  options.num_nodes = smoke ? 4 : 16;
  options.num_normal_jobs = smoke ? 2 : 4;
  const WorkloadDef def = HadoopWorkloads()[0];
  fprintf(stderr, "[bench] building %s (%d nodes) ...\n", def.name.c_str(),
          options.num_nodes);
  auto run = BuildRun(def, options);

  const std::vector<FeatureSpec> specs =
      GenerateFeatureSpecs(*run->registry, run->FeatureSpace());
  const size_t events_per_pass = EventsPerPass(*run, specs);
  fprintf(stderr, "[bench] %zu specs, %zu in-range events per pass\n", specs.size(),
          events_per_pass);

  const FeatureBuilder builder(run->archive.get());
  const BuildFn view_build = [&](const TimeInterval& interval) {
    return builder.Build(specs, interval);
  };
  const BuildFn row_build = [&](const TimeInterval& interval) {
    const FeatureRowSource rows = [&](EventTypeId type) {
      return run->archive->Scan(type, interval);
    };
    return OracleFeatures(rows, specs, interval);
  };

  // Correctness first: identical Features. A perf win that changes results
  // would be a bug, not a win.
  std::vector<Feature> view_feats;
  std::vector<Feature> row_feats;
  BuildPass(view_build, *run, &view_feats);
  BuildPass(row_build, *run, &row_feats);
  const bool features_identical = IdenticalFeatures(view_feats, row_feats);
  if (!features_identical) {
    fprintf(stderr, "FAIL: view path diverged from the row oracle\n");
    return 1;
  }
  view_feats.clear();
  row_feats.clear();

  // Calibrate the inner iteration count off the row baseline so each timed
  // rep runs long enough to shed scheduler noise.
  Stopwatch calibrate;
  BuildPass(row_build, *run, nullptr);
  const double single = calibrate.ElapsedSeconds();
  const double target = smoke ? 0.2 : 1.0;  // seconds per timed rep
  const size_t iters =
      std::clamp<size_t>(static_cast<size_t>(target / std::max(single, 1e-6)), 1, 512);

  fprintf(stderr, "[bench] timing row baseline (%zu iters x %zu reps) ...\n", iters,
          reps);
  const Measurement row = TimePasses(row_build, *run, events_per_pass, iters, reps);
  fprintf(stderr, "[bench] timing columnar view ...\n");
  const Measurement view = TimePasses(view_build, *run, events_per_pass, iters, reps);
  const double speedup = view.events_per_sec / std::max(row.events_per_sec, 1e-12);

  printf("\nScan + FeatureBuilder throughput, %s (%zu specs, %zu events/pass)\n",
         def.name.c_str(), specs.size(), events_per_pass);
  printf("%-22s %14s %16s\n", "mode", "s/pass", "events/sec");
  printf("%-22s %14.5f %16.0f\n", "row (oracle on Scan)", row.seconds_per_pass,
         row.events_per_sec);
  printf("%-22s %14.5f %16.0f\n", "columnar (ScanView)", view.seconds_per_pass,
         view.events_per_sec);
  printf("\nresults: features identical\n");
  printf("acceptance: view = %.2fx row baseline %s\n", speedup,
         smoke ? "(smoke run; gate applies to the full run)"
               : (speedup >= 2.0 ? "(PASS, >= 2x)" : "(FAIL, < 2x)"));

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("scan_view");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("workload");
  json.String(def.name);
  json.Key("num_nodes");
  json.UInt(static_cast<size_t>(options.num_nodes));
  json.Key("num_specs");
  json.UInt(specs.size());
  json.Key("events_per_pass");
  json.UInt(events_per_pass);
  json.Key("iters");
  json.UInt(iters);
  json.Key("reps");
  json.UInt(reps);
  json.Key("row_s_per_pass");
  json.Double(row.seconds_per_pass);
  json.Key("row_events_per_sec");
  json.Double(row.events_per_sec);
  json.Key("view_s_per_pass");
  json.Double(view.seconds_per_pass);
  json.Key("view_events_per_sec");
  json.Double(view.events_per_sec);
  json.Key("speedup");
  json.Double(speedup);
  json.Key("features_identical");
  json.Bool(features_identical);
  json.MemoryObject(SampleMemoryStats());
  json.EndObject();
  if (!json.WriteFile(out_path)) return 1;
  fprintf(stderr, "[bench] wrote %s\n", out_path.c_str());

  if (!smoke && speedup < 2.0) return 1;
  return 0;
}
