// Continuous-serving bench: interactive Explain throughput with the serving
// layer on — incremental sliding-window feature tails vs cold archive scans,
// and the keyed single-flight result cache vs recomputation.
//
// Correctness is checked before timing: the explanation must be bit-identical
// (every ranked feature's abnormal AND reference series, plus the final CNF)
// whether features come from the incremental tails or the columnar archive
// scan, the annotation's features built through the tails must equal the
// row-folding reference oracle's (tests/feature_oracle.h), and the cached
// repeat must return the very same report object. Single-flight is exercised
// with concurrent threads on one cold key: exactly one computation may run.
//
// Emits BENCH_explain_qps.json. Acceptance gates, full mode only:
//   - cached repeat Explain at least 20x faster than the uncached one
//   - incremental recent-interval feature build at least 2x faster than the
//     cold archive scan
// --smoke shrinks the workload for CI; gates then only print (the
// machine-independent subset is re-checked by scripts/check_explain_qps.py).

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"

#include "common/stopwatch.h"
#include "explain/engine.h"
#include "feature_oracle.h"
#include "features/builder.h"
#include "features/feature_space.h"
#include "io/file_util.h"
#include "xstream/system.h"

using namespace exstream;
using namespace exstream::bench;

namespace {

// Best-of-reps wall time of one thunk.
template <typename Fn>
double TimeBest(size_t reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

// Bitwise comparison of BOTH interval series of every ranked feature, plus
// the final explanation. Unlike tiering (which legitimately changes
// reference-side aggregates), the incremental path promises full identity.
bool ReportsIdentical(const ExplanationReport& a, const ExplanationReport& b) {
  if (a.ranked.size() != b.ranked.size()) return false;
  if (a.explanation.ToString() != b.explanation.ToString()) return false;
  std::map<std::string, const RankedFeature*> by_name;
  for (const RankedFeature& f : a.ranked) by_name[f.spec.Name()] = &f;
  for (const RankedFeature& f : b.ranked) {
    auto it = by_name.find(f.spec.Name());
    if (it == by_name.end()) return false;
    const RankedFeature& o = *it->second;
    if (o.abnormal_series.times() != f.abnormal_series.times()) return false;
    if (o.abnormal_series.values() != f.abnormal_series.values()) return false;
    if (o.reference_series.times() != f.reference_series.times()) return false;
    if (o.reference_series.values() != f.reference_series.values()) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  size_t reps = 0;  // 0 = default per mode (full: 5, smoke: 2)
  std::string out_path = "BENCH_explain_qps.json";
  std::string spill_dir = "/tmp/exstream_bench_qps";
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
              "usage: bench_explain_qps [--smoke] [--out PATH] [--reps N] "
              "[--spill-dir DIR]\n");
      return 2;
    }
  }
  if (reps == 0) reps = smoke ? 2 : 5;

  WorkloadRunOptions options;
  options.num_nodes = smoke ? 4 : 12;
  options.num_normal_jobs = smoke ? 2 : 4;
  const WorkloadDef def = HadoopWorkloads()[0];
  fprintf(stderr, "[bench] building %s (%d nodes) ...\n", def.name.c_str(),
          options.num_nodes);
  auto run = BuildRun(def, options);
  const std::string query_text =
      run->engine->compiled(run->monitor_query).query().ToString();

  // Pull the simulated stream back out of the reference archive, in global
  // timestamp order (stable: per-type append order is preserved).
  const TimeInterval everything{std::numeric_limits<Timestamp>::min() / 2,
                                std::numeric_limits<Timestamp>::max() / 2};
  const auto scans =
      CheckResult(run->archive->ScanAll(everything), "full archive scan");
  std::vector<Event> events;
  for (const auto& scan : scans) {
    events.insert(events.end(), scan.events.begin(), scan.events.end());
  }
  const size_t events_total = events.size();

  // Serving-enabled system over a COLD archive: every sealed chunk spills to
  // disk, so the incremental tails are the only in-memory copy of the stream
  // (the access pattern the serving layer exists to accelerate).
  CheckOk(EnsureDir(spill_dir), "spill dir");
  XStreamConfig config;
  config.archive.spill_dir = spill_dir;
  // Capacity must sit well below the per-type event counts or chunks never
  // seal and the "cold archive" is actually resident, zero-copy memory.
  config.archive.chunk_capacity = smoke ? 128 : 2048;
  config.archive.max_resident_chunks = 1;
  config.explain = run->DefaultExplainOptions();
  config.serving.incremental_features = true;
  config.serving.incremental_retention = 0;  // unbounded: bench wants full hits
  config.serving.explain_cache_capacity = 64;
  XStreamSystem system(run->registry.get(), config);
  const QueryId qid = CheckResult(
      system.AddQuery(query_text, run->monitor_query_name), "add query");

  fprintf(stderr, "[bench] ingesting %zu events ...\n", events_total);
  VectorEventSource source(std::move(events));
  source.SortByTime();
  source.ReplayMove(&system, 512);
  system.Flush();
  CheckOk(system.IndexPartitions(qid, {{"workload", def.name}}), "index");

  const AnomalyAnnotation annotation = run->annotation;
  const std::string& column = run->monitor_column;
  const FeatureSpaceOptions space = config.explain.feature_space;
  const std::vector<FeatureSpec> specs =
      GenerateFeatureSpecs(*run->registry, space);
  // The timed slice is a narrow (60 s) window inside the incident — the
  // dashboard-poll access pattern the tails exist for. Narrow matters: the
  // archive must read and decode every spilled chunk overlapping the window
  // (read amplification), while the tails slice exactly the rows asked for.
  // The window sits mid-incident so it lands on sealed, spilled chunks, not
  // the open resident tail chunk at stream end.
  const Timestamp mid = annotation.abnormal.range.lower +
                        annotation.abnormal.range.Length() / 2;
  const TimeInterval recent{mid - 30, mid + 30};

  // --- Correctness: one explanation, two feature paths and the oracle. ---
  fprintf(stderr, "[bench] checking bit-identity across scan paths ...\n");
  const auto incr_before = system.incremental()->stats();
  const ExplanationReport incremental_report = CheckResult(
      system.Explain(annotation, qid, column), "incremental explain");
  const auto incr_after = system.incremental()->stats();
  const uint64_t tail_hits = (incr_after.full_hits + incr_after.partial_hits) -
                             (incr_before.full_hits + incr_before.partial_hits);
  if (tail_hits == 0) {
    fprintf(stderr, "FAIL: incremental Explain never touched the tails\n");
    return 1;
  }

  ExplainOptions scan_opts = config.explain;
  const ExplanationEngine scan_engine(&system.archive(), &system.partitions(),
                                      system.MakeSeriesProvider(qid, column),
                                      scan_opts);
  const ExplanationReport scan_report =
      CheckResult(scan_engine.Explain(annotation), "scan explain");
  const bool incremental_identical =
      ReportsIdentical(incremental_report, scan_report);
  const FeatureBuilder scan_builder(&system.archive());
  const FeatureBuilder incr_builder(&system.archive(), system.incremental());
  const FeatureRowSource rows = [&](EventTypeId type) -> Result<std::vector<Event>> {
    for (const auto& scan : scans) {
      if (scan.type == type) return scan.events;
    }
    return std::vector<Event>{};
  };
  bool oracle_identical = true;
  for (const TimeInterval& interval :
       {annotation.abnormal.range, annotation.reference.range}) {
    const std::vector<Feature> built =
        CheckResult(incr_builder.Build(specs, interval), "incremental build");
    const std::vector<Feature> oracle =
        CheckResult(OracleFeatures(rows, specs, interval), "oracle features");
    for (size_t i = 0; i < specs.size(); ++i) {
      oracle_identical =
          oracle_identical && SameSeriesBits(built[i].series, oracle[i].series);
    }
  }
  if (!incremental_identical || !oracle_identical) {
    fprintf(stderr, "FAIL: feature paths diverged (incremental %d, oracle %d)\n",
            incremental_identical, oracle_identical);
    return 1;
  }

  // --- Timing: recent-interval feature build, tails vs cold archive. ---
  fprintf(stderr, "[bench] timing recent-interval feature build ...\n");
  const double build_scan_s = TimeBest(reps, [&] {
    CheckResult(scan_builder.Build(specs, recent), "scan build");
  });
  const double build_incremental_s = TimeBest(reps, [&] {
    CheckResult(incr_builder.Build(specs, recent), "incremental build");
  });
  const double incremental_speedup =
      build_scan_s / std::max(build_incremental_s, 1e-12);

  // --- Timing: cached repeat vs uncached Explain. ---
  fprintf(stderr, "[bench] timing cached vs uncached Explain ...\n");
  ExplainResultCache* cache = system.explain_cache();
  double uncached_explain_s = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < reps; ++r) {
    cache->Clear();
    Stopwatch timer;
    CheckResult(system.Explain(annotation, qid, column), "uncached explain");
    uncached_explain_s = std::min(uncached_explain_s, timer.ElapsedSeconds());
  }
  // Key is warm now; repeats are pure cache hits.
  const size_t hit_batch = 100;
  const double cached_batch_s = TimeBest(reps, [&] {
    for (size_t i = 0; i < hit_batch; ++i) {
      CheckResult(system.Explain(annotation, qid, column), "cached explain");
    }
  });
  const double cached_explain_s = cached_batch_s / hit_batch;
  const double cached_speedup =
      uncached_explain_s / std::max(cached_explain_s, 1e-12);
  const double cached_qps = 1.0 / std::max(cached_explain_s, 1e-12);

  // --- Single-flight: concurrent threads on one cold key. ---
  fprintf(stderr, "[bench] checking single-flight dedup ...\n");
  cache->Clear();
  const auto sf_before = cache->stats();
  {
    const size_t kThreads = 4;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        CheckResult(system.Explain(annotation, qid, column), "sf explain");
      });
    }
    for (auto& t : threads) t.join();
  }
  const auto sf_after = cache->stats();
  const uint64_t single_flight_computations =
      sf_after.computations - sf_before.computations;
  if (single_flight_computations != 1) {
    fprintf(stderr, "FAIL: %llu computations for one key (want 1)\n",
            static_cast<unsigned long long>(single_flight_computations));
    return 1;
  }

  const auto cache_stats = cache->stats();
  const auto incr_stats = system.incremental()->stats();

  printf("\nContinuous-serving Explain throughput, %s (%zu events, %zu specs)\n",
         def.name.c_str(), events_total, specs.size());
  printf("%-36s %12.6f s\n", "feature build, cold archive scan", build_scan_s);
  printf("%-36s %12.6f s  (%.2fx)\n", "feature build, incremental tails",
         build_incremental_s, incremental_speedup);
  printf("%-36s %12.6f s\n", "Explain, uncached", uncached_explain_s);
  printf("%-36s %12.6f s  (%.0fx, %.0f QPS)\n", "Explain, cached repeat",
         cached_explain_s, cached_speedup, cached_qps);
  printf("single-flight: %llu computation(s) for 4 concurrent cold callers\n",
         static_cast<unsigned long long>(single_flight_computations));
  printf("tails: %llu full hits, %llu partial, %llu misses, %llu buffered\n",
         static_cast<unsigned long long>(incr_stats.full_hits),
         static_cast<unsigned long long>(incr_stats.partial_hits),
         static_cast<unsigned long long>(incr_stats.misses),
         static_cast<unsigned long long>(incr_stats.events_buffered));
  printf("explanations bit-identical across incremental/scan paths; features "
         "equal the oracle's\n");
  printf("acceptance: cached %.0fx %s, incremental %.2fx %s\n", cached_speedup,
         smoke ? "(smoke; gate applies to the full run)"
               : (cached_speedup >= 20.0 ? "(PASS, >= 20x)" : "(FAIL, < 20x)"),
         incremental_speedup,
         smoke ? "(smoke; gate applies to the full run)"
               : (incremental_speedup >= 2.0 ? "(PASS, >= 2x)"
                                             : "(FAIL, < 2x)"));

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("explain_qps");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("workload");
  json.String(def.name);
  json.Key("num_nodes");
  json.UInt(static_cast<size_t>(options.num_nodes));
  json.Key("events_total");
  json.UInt(events_total);
  json.Key("num_specs");
  json.UInt(specs.size());
  json.Key("build_scan_s");
  json.Double(build_scan_s);
  json.Key("build_incremental_s");
  json.Double(build_incremental_s);
  json.Key("incremental_speedup");
  json.Double(incremental_speedup);
  json.Key("uncached_explain_s");
  json.Double(uncached_explain_s);
  json.Key("cached_explain_s");
  json.Double(cached_explain_s);
  json.Key("cached_speedup");
  json.Double(cached_speedup);
  json.Key("cached_qps");
  json.Double(cached_qps);
  json.Key("single_flight_computations");
  json.UInt(static_cast<size_t>(single_flight_computations));
  json.Key("incremental_identical");
  json.Bool(incremental_identical);
  json.Key("oracle_identical");
  json.Bool(oracle_identical);
  json.Key("tail_full_hits");
  json.UInt(static_cast<size_t>(incr_stats.full_hits));
  json.Key("tail_partial_hits");
  json.UInt(static_cast<size_t>(incr_stats.partial_hits));
  json.Key("tail_misses");
  json.UInt(static_cast<size_t>(incr_stats.misses));
  json.Key("tail_events_buffered");
  json.UInt(static_cast<size_t>(incr_stats.events_buffered));
  json.Key("cache_hits");
  json.UInt(static_cast<size_t>(cache_stats.hits));
  json.Key("cache_misses");
  json.UInt(static_cast<size_t>(cache_stats.misses));
  json.Key("cache_single_flight_waits");
  json.UInt(static_cast<size_t>(cache_stats.single_flight_waits));
  json.MemoryObject(SampleMemoryStats());
  json.EndObject();
  if (!json.WriteFile(out_path)) return 1;
  fprintf(stderr, "[bench] wrote %s\n", out_path.c_str());

  if (!smoke && (cached_speedup < 20.0 || incremental_speedup < 2.0)) return 1;
  return 0;
}
