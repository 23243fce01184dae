// Front-end hardening tests: the ingest guard's per-reason rejection and
// quarantine logs, the lateness watermark, a malformed-producer integration
// run, and bounded-queue overload protection (shedding that never wedges the
// producer and is accounted in fault_stats and explanation degradation).

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/serialization.h"
#include "common/fault_injection.h"
#include "io/file_util.h"
#include "sim/chaos.h"
#include "sim/hadoop_sim.h"
#include "xstream/ingest_guard.h"
#include "xstream/system.h"

namespace exstream {
namespace {

constexpr Timestamp kTsMax = std::numeric_limits<Timestamp>::max();

std::string MakeTempDir(const char* tag) {
  std::string tmpl = std::string("/tmp/exstream_") + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

// One type: M(d: double, s: string).
EventTypeRegistry MakeTinyRegistry() {
  EventTypeRegistry registry;
  EXPECT_TRUE(registry
                  .Register(EventSchema("M", {{"d", ValueType::kDouble},
                                              {"s", ValueType::kString}}))
                  .ok());
  return registry;
}

Event Ok(Timestamp ts, double d = 1.0) {
  return Event(0, ts, {Value(d), Value(std::string("s"))});
}

// Admits a batch of one; true if the event was released.
bool AdmitOne(IngestGuard* guard, Event event) {
  return guard->Admit({std::move(event)}).size() == 1;
}

TEST(IngestGuardTest, RejectsEachMalformationKind) {
  const EventTypeRegistry registry = MakeTinyRegistry();
  IngestGuard guard(&registry, {});

  EXPECT_TRUE(AdmitOne(&guard, Ok(1)));
  EXPECT_FALSE(AdmitOne(&guard, Event(7, 2, {Value(1.0)})));  // unknown type
  EXPECT_FALSE(AdmitOne(&guard, Event(0, 3, {Value(1.0)})));  // arity
  EXPECT_FALSE(AdmitOne(&guard,
      Event(0, 4, {Value(std::string("x")), Value(std::string("s"))})));
  EXPECT_FALSE(AdmitOne(&guard,
      Event(0, 5, {Value(std::nan("")), Value(std::string("s"))})));
  EXPECT_FALSE(AdmitOne(&guard, Ok(kTsMax)));
  EXPECT_FALSE(AdmitOne(&guard, Ok(std::numeric_limits<Timestamp>::min())));
  // int64 where double is declared passes (mirrors EventSchema::ValidateRow).
  EXPECT_TRUE(
      AdmitOne(&guard, Event(0, 6, {Value(int64_t{3}), Value(std::string("s"))})));

  const RejectReport r = guard.report();
  EXPECT_EQ(r.unknown_type, 1u);
  EXPECT_EQ(r.arity_mismatch, 1u);
  EXPECT_EQ(r.value_kind_mismatch, 1u);
  EXPECT_EQ(r.non_finite, 1u);
  EXPECT_EQ(r.invalid_timestamp, 2u);
  EXPECT_EQ(r.late, 0u);
  EXPECT_EQ(r.total(), 6u);
  EXPECT_FALSE(r.ToString().empty());
}

TEST(IngestGuardTest, QuarantineFilesAreReadableAndCapped) {
  const EventTypeRegistry registry = MakeTinyRegistry();
  const std::string dir = MakeTempDir("rejects");
  IngestGuardOptions options;
  options.reject_dir = dir;
  options.reject_file_events = 2;  // cut a file every 2 rejects
  options.max_reject_files = 2;    // keep only the newest 2
  size_t rejected = 0;
  {
    IngestGuard guard(&registry, options);
    for (Timestamp ts = 0; ts < 7; ++ts) {
      EXPECT_FALSE(AdmitOne(&guard, Event(9, ts, {})));  // unknown type
      ++rejected;
    }
    const RejectReport r = guard.report();
    EXPECT_EQ(r.unknown_type, rejected);
    // 3 full files cut so far (6 events); the 7th is still buffered.
    EXPECT_EQ(r.reject_files_written, 3u);
    EXPECT_EQ(r.reject_file_evictions, 1u);
    // Destruction flushes the partial buffer as a 4th file.
  }
  const auto files = ListDirFiles(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u) << "cap must hold after the final flush";
  size_t quarantined = 0;
  for (const std::string& f : *files) {
    EXPECT_NE(f.find(".quarantine"), std::string::npos);
    const auto events = ReadEventsFile(dir + "/" + f);
    ASSERT_TRUE(events.ok()) << events.status().ToString();
    quarantined += events->size();
    for (const Event& e : *events) EXPECT_EQ(e.type, 9u);
  }
  // Newest two files hold the last 3 rejects (one full pair + the flush).
  EXPECT_EQ(quarantined, 3u);
}

TEST(IngestGuardTest, LatenessWatermarkReordersAndRejectsLate) {
  const EventTypeRegistry registry = MakeTinyRegistry();
  IngestGuardOptions options;
  options.lateness_slack = 10;
  IngestGuard guard(&registry, options);

  // 95 arrives after 105 but within the slack: held and re-ordered.
  EventBatch released = guard.Admit({Ok(100), Ok(105), Ok(95), Ok(120)});
  std::vector<Timestamp> ts;
  for (const Event& e : released) ts.push_back(e.ts);
  EXPECT_EQ(ts, (std::vector<Timestamp>{95, 100, 105}));
  EXPECT_EQ(guard.buffered(), 1u);  // 120 held back

  // 80 is older than the newest release (105): impossible to emit in order.
  released = guard.Admit({Ok(80), Ok(111)});
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(guard.report().late, 1u);
  EXPECT_EQ(guard.buffered(), 2u);

  released = guard.Drain();
  ts.clear();
  for (const Event& e : released) ts.push_back(e.ts);
  EXPECT_EQ(ts, (std::vector<Timestamp>{111, 120}));
  EXPECT_EQ(guard.buffered(), 0u);
}

TEST(IngestGuardTest, MalformingProducerDoesNotWedgeMonitoring) {
  EventTypeRegistry registry;
  ASSERT_TRUE(HadoopClusterSim::RegisterEventTypes(&registry).ok());
  HadoopSimConfig sim_config;
  sim_config.num_nodes = 3;
  sim_config.seed = 5;
  HadoopClusterSim sim(sim_config, &registry);
  HadoopJobConfig job;
  job.job_id = "job-m";
  job.program = "p";
  job.dataset = "d";
  job.num_mappers = 6;
  job.num_reducers = 2;
  sim.AddJob(job);
  VectorSink raw;
  ASSERT_TRUE(sim.Run(&raw).ok());

  XStreamConfig config;
  config.guard.reject_dir = MakeTempDir("malformed");
  XStreamSystem system(&registry, config);
  ASSERT_TRUE(system
                  .AddQuery("PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) "
                            "WHERE [jobId] RETURN (b[i].timestamp, a.jobId, "
                            "sum(b[1..i].dataSize))",
                            "Q1")
                  .ok());

  MalformingSinkOptions chaos;
  chaos.malformed_fraction = 0.05;
  chaos.seed = 9;
  chaos.num_known_types = static_cast<uint32_t>(registry.size());
  MalformingSink producer(&system, chaos);
  VectorEventSource source(raw.events());
  source.ReplayBatched(&producer, 128);

  ASSERT_GT(producer.malformed_emitted(), 10u);
  // Every corrupted event was rejected; every clean one was processed.
  EXPECT_EQ(system.reject_report().total(), producer.malformed_emitted());
  EXPECT_EQ(system.engine().events_processed(),
            raw.events().size() - producer.malformed_emitted());
  EXPECT_EQ(system.fault_stats().rejected_events, producer.malformed_emitted());
  // Monitoring still produced matches for the (clean) job pattern events.
  EXPECT_GT(system.engine().match_table(0).TotalRows(), 0u);
}

// A 10x burst against a bounded queue with ShedOldest: the producer never
// blocks, and every event is either processed or accounted as shed.
TEST(IngestGuardTest, ShedOldestBurstNeverBlocksProducer) {
  const EventTypeRegistry registry = MakeTinyRegistry();
  const std::string spill_dir = MakeTempDir("spill");
  XStreamConfig config;
  config.archive.chunk_capacity = 16;
  config.archive.max_resident_chunks = 0;  // every sealed chunk spills
  config.archive.spill_dir = spill_dir;
  config.overload.queue_capacity = 2;
  config.overload.policy = BackpressurePolicy::kShedOldest;
  XStreamSystem system(&registry, config);

  // Slow the worker down: every spill write sleeps, so the queue stays full
  // while the producer bursts.
  FaultPlan plan;
  plan.mode = FaultMode::kDelay;
  plan.op = FaultOp::kWrite;
  plan.path_substring = spill_dir;
  plan.delay_ms = 3;
  FaultInjector::Global().Arm(plan);

  constexpr size_t kBatches = 100;
  constexpr size_t kPerBatch = 16;
  const auto start = std::chrono::steady_clock::now();
  Timestamp ts = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    EventBatch batch;
    for (size_t i = 0; i < kPerBatch; ++i) batch.push_back(Ok(ts++));
    system.OnEventBatch(std::move(batch));
  }
  const auto produce_elapsed = std::chrono::steady_clock::now() - start;
  system.Flush();
  FaultInjector::Global().Disarm();

  // ShedOldest never waits for space: the burst must go through at memory
  // speed even though the worker is orders of magnitude slower.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(produce_elapsed)
                .count(),
            2000);
  const XStreamSystem::FaultStats stats = system.fault_stats();
  EXPECT_GT(stats.shed_events, 0u);
  EXPECT_GT(stats.shed_batches, 0u);
  EXPECT_EQ(system.shed_events(), stats.shed_events);
  EXPECT_EQ(system.engine().events_processed() + stats.shed_events,
            kBatches * kPerBatch);
}

// Block policy: a full queue stalls the producer at most block_deadline_ms
// per batch, then sheds — overload degrades, never deadlocks.
TEST(IngestGuardTest, BlockPolicyShedsAfterDeadline) {
  const EventTypeRegistry registry = MakeTinyRegistry();
  const std::string spill_dir = MakeTempDir("spill");
  XStreamConfig config;
  config.archive.chunk_capacity = 16;
  config.archive.max_resident_chunks = 0;
  config.archive.spill_dir = spill_dir;
  config.overload.queue_capacity = 1;
  config.overload.policy = BackpressurePolicy::kBlock;
  config.overload.block_deadline_ms = 10;
  XStreamSystem system(&registry, config);

  FaultPlan plan;
  plan.mode = FaultMode::kDelay;
  plan.op = FaultOp::kWrite;
  plan.path_substring = spill_dir;
  plan.delay_ms = 25;  // applying one batch far exceeds the block deadline
  FaultInjector::Global().Arm(plan);

  constexpr size_t kBatches = 10;
  constexpr size_t kPerBatch = 32;
  const auto start = std::chrono::steady_clock::now();
  Timestamp ts = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    EventBatch batch;
    for (size_t i = 0; i < kPerBatch; ++i) batch.push_back(Ok(ts++));
    system.OnEventBatch(std::move(batch));
  }
  const auto produce_elapsed = std::chrono::steady_clock::now() - start;
  system.Flush();
  FaultInjector::Global().Disarm();

  // 10 batches x 10ms deadline plus scheduling slack, not 10 x 50ms of I/O.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(produce_elapsed)
                .count(),
            1500);
  const XStreamSystem::FaultStats stats = system.fault_stats();
  EXPECT_GT(stats.shed_events, 0u);
  EXPECT_EQ(system.engine().events_processed() + stats.shed_events,
            kBatches * kPerBatch);
}

// Shed events surface in the DegradationReport of a later explanation and
// mark it degraded (the analysis ran on incomplete data).
TEST(IngestGuardTest, ShedEventsMarkExplanationsDegraded) {
  EventTypeRegistry registry;
  ASSERT_TRUE(HadoopClusterSim::RegisterEventTypes(&registry).ok());
  HadoopSimConfig sim_config;
  sim_config.num_nodes = 3;
  sim_config.seed = 77;
  HadoopClusterSim sim(sim_config, &registry);
  HadoopJobConfig job;
  job.job_id = "job-x";
  job.program = "p";
  job.dataset = "d";
  sim.AddJob(job);
  AnomalySpec anomaly;
  anomaly.type = AnomalyType::kHighMemory;
  anomaly.start = 60;
  anomaly.end = 300;
  sim.AddAnomaly(anomaly);
  VectorSink raw;
  ASSERT_TRUE(sim.Run(&raw).ok());

  const std::string spill_dir = MakeTempDir("spill");
  XStreamConfig config;
  config.explain.feature_space.windows = {10};
  config.archive.chunk_capacity = 16;
  config.archive.max_resident_chunks = 0;
  config.archive.spill_dir = spill_dir;
  config.overload.queue_capacity = 1;
  config.overload.policy = BackpressurePolicy::kShedOldest;
  XStreamSystem system(&registry, config);
  const auto qid = system.AddQuery(
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
      "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))",
      "Q1");
  ASSERT_TRUE(qid.ok());

  // Phase 1: the real workload, unsheddable — the queue is drained after
  // every batch, so the tiny capacity never overflows.
  const std::vector<Event>& events = raw.events();
  for (size_t i = 0; i < events.size(); i += 256) {
    const size_t n = std::min<size_t>(256, events.size() - i);
    system.OnEventBatch(EventBatch(events.begin() + i, events.begin() + i + n));
    system.Flush();
  }
  ASSERT_EQ(system.shed_events(), 0u);

  // Phase 2: a post-workload burst of valid metric events that the slowed
  // worker cannot keep up with — these shed without touching the pattern
  // matches the explanation reads.
  const auto cpu_type = registry.IdOf("CpuUsage");
  ASSERT_TRUE(cpu_type.ok());
  EventBatch tail;
  for (const Event& e : raw.events()) {
    if (e.type == *cpu_type) {
      Event shifted = e;
      shifted.ts += 100000;
      tail.push_back(std::move(shifted));
    }
  }
  ASSERT_GT(tail.size(), 100u);
  FaultPlan plan;
  plan.mode = FaultMode::kDelay;
  plan.op = FaultOp::kWrite;
  plan.path_substring = spill_dir;
  plan.delay_ms = 10;
  FaultInjector::Global().Arm(plan);
  for (size_t i = 0; i < tail.size(); i += 16) {
    const size_t n = std::min<size_t>(16, tail.size() - i);
    system.OnEventBatch(EventBatch(tail.begin() + i, tail.begin() + i + n));
  }
  system.Flush();
  FaultInjector::Global().Disarm();
  ASSERT_GT(system.shed_events(), 0u);

  ASSERT_TRUE(system.IndexPartitions(*qid, {{"program", "p"}}).ok());
  AnomalyAnnotation annotation;
  annotation.abnormal = {"Q1", {60, 300}, "job-x"};
  annotation.reference = {"Q1", {360, 600}, "job-x"};
  const auto report = system.Explain(annotation, *qid, "sum_dataSize");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->degradation.events_shed, system.shed_events());
  EXPECT_TRUE(report->degradation.degraded());
  EXPECT_NE(report->degradation.ToString().find("shed"), std::string::npos);
}

}  // namespace
}  // namespace exstream
