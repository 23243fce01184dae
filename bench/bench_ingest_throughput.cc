// Ingestion throughput: per-event OnEvent vs batched IngestBatch across
// concurrent-query counts (the Fig. 20 axis), against a no-merge baseline.
//
// The batched path amortizes the per-event costs that dominate at high query
// counts: partition keys are extracted and hashed once per event instead of
// once per query per event. Multi-query merging collapses structurally
// equivalent queries into shared automata, so 1000 replicated monitoring
// queries cost one automaton traversal per event instead of 1000. The
// no-merge column runs the per-query reference oracle (tests/cep_oracle.h):
// one QueryRun per (query, partition), fed event by event.
//
// Emits BENCH_ingest_throughput.json. --smoke runs a seconds-scale subset for
// CI (the bench-smoke workflow gates on regressions against the committed
// smoke baseline). Acceptance gate, checked on the full run: merged batched
// >= 4x the no-merge baseline at the top query count (query-sharing win).
//
// Each configuration is measured --reps times and the best (fastest) rep is
// reported: the bench often shares its host with noisy neighbors, and the
// minimum-time rep is the standard estimator of the undisturbed cost.
//
//   bench_ingest_throughput [--smoke] [--out PATH] [--reps N]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "cep/engine.h"
#include "cep_oracle.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "sim/hadoop_sim.h"

using namespace exstream;
using bench::CheckOk;
using bench::CheckResult;
using bench::JsonWriter;

namespace {

constexpr char kQ1[] =
    "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
    "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";

// A multi-job Hadoop cluster stream: mostly metric events (irrelevant to the
// Q1 replicas), plus job/IO events spread over `num_jobs` partitions.
std::vector<Event> BuildStream(const EventTypeRegistry& registry, int num_nodes,
                               int num_jobs, Timestamp duration) {
  HadoopSimConfig config;
  config.num_nodes = num_nodes;
  config.seed = 20170321;  // EDBT'17
  HadoopClusterSim sim(config, &registry);
  for (int j = 0; j < num_jobs; ++j) {
    HadoopJobConfig job;
    job.job_id = StrFormat("job-%03d", j);
    job.program = "wordcount";
    job.dataset = "ds";
    job.start_time = (duration * j) / num_jobs;
    sim.AddJob(job);
  }
  VectorSink sink;
  CheckOk(sim.Run(&sink).status(), "hadoop sim");
  return sink.TakeEvents();
}

template <typename Evaluator>
std::unique_ptr<Evaluator> Make(const EventTypeRegistry& registry, size_t num_queries) {
  auto cep = std::make_unique<Evaluator>(&registry);
  for (size_t q = 0; q < num_queries; ++q) {
    CheckOk(cep->AddQueryText(kQ1, StrFormat("Q%zu", q)).status(), "AddQuery");
  }
  return cep;
}

enum class Mode { kPerEvent, kBatched, kNoMerge };

struct Measurement {
  size_t queries = 0;
  Mode mode = Mode::kBatched;
  size_t events = 0;
  double seconds = 0;
  double events_per_sec = 0;
  size_t match_rows = 0;  // cross-checks that all configs did the same work
  size_t merge_groups = 0;
  double merge_compression = 1.0;
};

void RecordMergeStats(const CepEngine& engine, Measurement* m) {
  const MergePlanStats& stats = engine.merge_stats();
  m->merge_groups = stats.groups;
  m->merge_compression = stats.compression();
}

// Best-of-`reps` time of one mode; a fresh evaluator per rep.
Measurement Run(const EventTypeRegistry& registry, const std::vector<Event>& stream,
                size_t num_queries, Mode mode, size_t reps, size_t batch_size) {
  // Pre-slice outside the timed region: a live source hands the engine ready
  // buffers, so slicing cost is the producer's, not the ingest path's.
  std::vector<EventBatch> slices;
  for (size_t i = 0; i < stream.size(); i += batch_size) {
    const size_t end = std::min(stream.size(), i + batch_size);
    slices.emplace_back(stream.begin() + static_cast<ptrdiff_t>(i),
                        stream.begin() + static_cast<ptrdiff_t>(end));
  }
  Measurement m;
  m.queries = num_queries;
  m.mode = mode;
  m.events = stream.size();
  for (size_t rep = 0; rep < reps; ++rep) {
    double secs = 0;
    if (mode == Mode::kNoMerge) {
      auto oracle = Make<CepOracle>(registry, num_queries);
      Stopwatch timer;
      for (const Event& e : stream) oracle->OnEvent(e);
      secs = timer.ElapsedSeconds();
      m.match_rows = oracle->match_table(0).TotalRows();
    } else {
      auto engine = Make<CepEngine>(registry, num_queries);
      Stopwatch timer;
      if (mode == Mode::kPerEvent) {
        for (const Event& e : stream) engine->OnEvent(e);
      } else {
        for (const EventBatch& slice : slices) engine->IngestBatch(slice);
      }
      secs = timer.ElapsedSeconds();
      m.match_rows = engine->match_table(0).TotalRows();
      RecordMergeStats(*engine, &m);
    }
    if (rep == 0 || secs < m.seconds) m.seconds = secs;
  }
  m.events_per_sec = static_cast<double>(m.events) / m.seconds;
  return m;
}

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kPerEvent:
      return "per-event";
    case Mode::kBatched:
      return "batched";
    case Mode::kNoMerge:
      return "no-merge";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  size_t reps = 0;  // 0 = default per mode (full: 5, smoke: 1)
  std::string out_path = "BENCH_ingest_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = strtoull(argv[++i], nullptr, 10);
    } else {
      fprintf(stderr,
              "usage: bench_ingest_throughput [--smoke] [--out PATH] [--reps N]\n");
      return 2;
    }
  }
  if (reps == 0) reps = smoke ? 1 : 5;

  EventTypeRegistry registry;
  CheckOk(HadoopClusterSim::RegisterEventTypes(&registry), "RegisterEventTypes");

  // The paper's monitoring shape: per-node metric streams at 1 Hz dominate
  // the event volume, with a handful of concurrently running jobs supplying
  // the query-relevant JobStart/DataIO/JobEnd events. 30 nodes matches the
  // paper's evaluation cluster (a 30-node Hadoop cluster + Ganglia metrics).
  const int num_nodes = smoke ? 2 : 30;
  // Few jobs relative to the metric volume, as in the paper's case studies
  // (Hadoop jobs replayed against cluster-wide Ganglia streams).
  const int num_jobs = 3;
  // Full runs replay in archive-chunk-sized batches (the natural granularity
  // of backlog replay); smoke stays at the small default to exercise slicing.
  const size_t batch_size = smoke ? kDefaultIngestBatchSize : 4096;
  const Timestamp duration = smoke ? 300 : 3600;
  // Smoke keeps the 1000-query point: the CI regression gate
  // (scripts/check_ingest_regression.py) compares it against the committed
  // baseline, and it is cheap on the short smoke stream.
  const std::vector<size_t> query_counts =
      smoke ? std::vector<size_t>{10, 1000} : std::vector<size_t>{10, 100, 1000};
  const size_t hw_threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());

  const std::vector<Event> stream =
      BuildStream(registry, num_nodes, num_jobs, duration);
  fprintf(stderr, "[bench] stream: %zu events, %d jobs, %zu hw threads\n",
          stream.size(), num_jobs, hw_threads);

  std::vector<Measurement> results;
  for (const size_t nq : query_counts) {
    size_t per_event_rows = 0;
    for (const Mode mode : {Mode::kPerEvent, Mode::kNoMerge, Mode::kBatched}) {
      fprintf(stderr, "[bench] %zu queries: %s ...\n", nq, ModeName(mode));
      results.push_back(Run(registry, stream, nq, mode, reps, batch_size));
      const size_t rows = results.back().match_rows;
      if (mode == Mode::kPerEvent) per_event_rows = rows;
      if (rows != per_event_rows) {
        fprintf(stderr, "FAIL: %s produced %zu rows, per-event %zu\n", ModeName(mode),
                rows, per_event_rows);
        return 1;
      }
    }
  }

  printf("\nIngestion throughput (events/sec), %zu events/batch\n", batch_size);
  printf("%8s %10s %14s %10s %8s\n", "queries", "mode", "events/sec", "speedup",
         "groups");
  // Gate at the top query count: merged batched vs the no-merge oracle.
  double gate_merge = 0;
  for (const Measurement& m : results) {
    double base_eps = 0;
    double nomerge_eps = 0;
    for (const Measurement& b : results) {
      if (b.queries != m.queries) continue;
      if (b.mode == Mode::kPerEvent) base_eps = b.events_per_sec;
      if (b.mode == Mode::kNoMerge) nomerge_eps = b.events_per_sec;
    }
    printf("%8zu %10s %14.0f %9.2fx %8zu\n", m.queries, ModeName(m.mode),
           m.events_per_sec, m.events_per_sec / base_eps, m.merge_groups);
    if (m.queries == query_counts.back() && m.mode == Mode::kBatched) {
      gate_merge = m.events_per_sec / nomerge_eps;
    }
  }
  printf("\nacceptance @ %zu queries:\n", query_counts.back());
  printf("  merged batched vs no-merge    = %.2fx %s\n", gate_merge,
         smoke ? "(smoke run; gate applies to the full run)"
               : (gate_merge >= 4.0 ? "(PASS, >= 4x)" : "(FAIL, < 4x)"));

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("ingest_throughput");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("batch_size");
  json.UInt(batch_size);
  json.Key("reps");
  json.UInt(reps);
  json.Key("stream_events");
  json.UInt(stream.size());
  json.Key("hardware_concurrency");
  json.UInt(hw_threads);
  json.Key("gate_merge_speedup");
  json.Double(gate_merge);
  json.Key("results");
  json.BeginArray();
  for (const Measurement& m : results) {
    json.BeginObject();
    json.Key("queries");
    json.UInt(m.queries);
    json.Key("mode");
    json.String(ModeName(m.mode));
    json.Key("events");
    json.UInt(m.events);
    json.Key("seconds");
    json.Double(m.seconds);
    json.Key("events_per_sec");
    json.Double(m.events_per_sec);
    json.Key("match_rows");
    json.UInt(m.match_rows);
    json.Key("merge_groups");
    json.UInt(m.merge_groups);
    json.Key("merge_compression");
    json.Double(m.merge_compression);
    json.EndObject();
  }
  json.EndArray();
  json.MemoryObject(bench::SampleMemoryStats());
  json.EndObject();
  if (!json.WriteFile(out_path)) return 1;
  fprintf(stderr, "[bench] wrote %s\n", out_path.c_str());

  if (!smoke && gate_merge < 4.0) return 1;
  return 0;
}
