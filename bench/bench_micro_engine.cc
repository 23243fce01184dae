// Microbenchmarks (google-benchmark) for the performance-critical substrate:
// CEP event processing with growing query counts, archive append/scan,
// sliding-window aggregation, the entropy distance, and end-to-end feature
// reward computation.

#include <algorithm>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include "archive/archive.h"
#include "cep/engine.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "explain/reward.h"
#include "features/builder.h"
#include "features/feature_space.h"
#include "sim/hadoop_sim.h"
#include "ts/aggregate.h"
#include "ts/entropy_distance.h"

namespace exstream {
namespace {

constexpr char kQ1[] =
    "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
    "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";

// Shared simulated stream, built once.
struct SharedStream {
  EventTypeRegistry registry;
  std::vector<Event> events;

  SharedStream() {
    (void)HadoopClusterSim::RegisterEventTypes(&registry);
    HadoopSimConfig config;
    config.num_nodes = 4;
    config.seed = 7;
    HadoopClusterSim sim(config, &registry);
    HadoopJobConfig job;
    job.job_id = "job-0";
    job.program = "bench";
    job.dataset = "bench";
    sim.AddJob(job);
    VectorSink sink;
    (void)sim.Run(&sink);
    events = sink.TakeEvents();
  }
};

SharedStream& Stream() {
  static SharedStream* stream = new SharedStream();
  return *stream;
}

void BM_CepEngineThroughput(benchmark::State& state) {
  SharedStream& s = Stream();
  CepEngine engine(&s.registry);
  for (int64_t q = 0; q < state.range(0); ++q) {
    (void)engine.AddQueryText(kQ1, "q" + std::to_string(q));
  }
  for (auto _ : state) {
    for (const Event& e : s.events) engine.OnEvent(e);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(s.events.size()));
}
BENCHMARK(BM_CepEngineThroughput)->Arg(1)->Arg(16)->Arg(256)->Arg(2000);

void BM_ArchiveAppend(benchmark::State& state) {
  SharedStream& s = Stream();
  for (auto _ : state) {
    EventArchive archive(&s.registry);
    for (const Event& e : s.events) archive.OnEvent(e);
    benchmark::DoNotOptimize(archive.TotalEvents());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(s.events.size()));
}
BENCHMARK(BM_ArchiveAppend);

void BM_ArchiveScan(benchmark::State& state) {
  SharedStream& s = Stream();
  EventArchive archive(&s.registry);
  for (const Event& e : s.events) archive.OnEvent(e);
  const EventTypeId mem = s.registry.IdOf("MemUsage").ValueOrDie();
  for (auto _ : state) {
    auto result = archive.Scan(mem, TimeInterval{100, 400});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ArchiveScan);

void BM_WindowAggregate(benchmark::State& state) {
  Rng rng(3);
  TimeSeries series;
  for (Timestamp t = 0; t < state.range(0); ++t) {
    (void)series.Append(t, rng.Gaussian(0, 1));
  }
  for (auto _ : state) {
    auto result = ApplyWindowAggregate(series, AggregateKind::kMean, 10);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WindowAggregate)->Arg(1000)->Arg(100000);

void BM_EntropyDistance(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> abnormal;
  std::vector<double> reference;
  for (int64_t i = 0; i < state.range(0); ++i) {
    abnormal.push_back(rng.Gaussian(0, 1));
    reference.push_back(rng.Gaussian(1.5, 1));
  }
  for (auto _ : state) {
    auto result = ComputeEntropyDistance(abnormal, reference);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          2 * state.range(0));
}
BENCHMARK(BM_EntropyDistance)->Arg(100)->Arg(1000)->Arg(10000);

// range(0) = worker threads; 1 runs the serial path (no pool).
void BM_FeatureRewards(benchmark::State& state) {
  SharedStream& s = Stream();
  EventArchive archive(&s.registry);
  for (const Event& e : s.events) archive.OnEvent(e);
  FeatureBuilder builder(&archive);
  const auto specs = GenerateFeatureSpecs(s.registry);
  const auto num_threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (num_threads != 1) pool = std::make_unique<ThreadPool>(num_threads);
  for (auto _ : state) {
    auto ranked = ComputeFeatureRewards(builder, specs, TimeInterval{60, 300},
                                        TimeInterval{300, 480}, 5, pool.get());
    benchmark::DoNotOptimize(ranked);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(specs.size()));
}
BENCHMARK(BM_FeatureRewards)->Arg(1)->Arg(2)->Arg(0);  // 0 = hardware threads

// Serial-vs-parallel reward sweep written to BENCH_explain_micro.json so the
// perf trajectory of the hottest analysis loop is machine-readable.
void WriteRewardComparisonJson() {
  SharedStream& s = Stream();
  EventArchive archive(&s.registry);
  for (const Event& e : s.events) archive.OnEvent(e);
  FeatureBuilder builder(&archive);
  const auto specs = GenerateFeatureSpecs(s.registry);
  ThreadPool pool(0);
  auto time_best = [&](ThreadPool* p) {
    double best = 1e30;
    for (int r = 0; r < 5; ++r) {
      Stopwatch timer;
      auto ranked = ComputeFeatureRewards(builder, specs, TimeInterval{60, 300},
                                          TimeInterval{300, 480}, 5, p);
      benchmark::DoNotOptimize(ranked);
      best = std::min(best, timer.ElapsedSeconds());
    }
    return best;
  };
  const double serial = time_best(nullptr);
  const double parallel = time_best(&pool);

  exstream::bench::JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("micro_engine");
  json.Key("feature_rewards");
  json.BeginObject();
  json.Key("num_specs");
  json.UInt(specs.size());
  json.Key("num_threads");
  json.UInt(pool.num_threads());
  json.Key("serial_s");
  json.Double(serial);
  json.Key("parallel_s");
  json.Double(parallel);
  json.Key("speedup");
  json.Double(serial / std::max(parallel, 1e-12));
  json.EndObject();
  json.MemoryObject(exstream::bench::SampleMemoryStats());
  json.EndObject();
  if (json.WriteFile("BENCH_explain_micro.json")) {
    fprintf(stderr, "[bench] wrote BENCH_explain_micro.json\n");
  }
}

}  // namespace
}  // namespace exstream

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  exstream::WriteRewardComparisonJson();
  return 0;
}
