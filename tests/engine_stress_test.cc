// Stress and consistency tests of the CEP engine: many concurrent queries,
// many interleaved partitions, agreement between replicated queries, and
// (meant for TSan) MatchTable readers, checkpoints and an Explain running
// while batches are ingested.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cep/engine.h"
#include "cep_compare.h"
#include "cep_oracle.h"
#include "common/rng.h"
#include "common/strings.h"
#include "sim/hadoop_sim.h"
#include "xstream/system.h"

namespace exstream {
namespace {

class EngineStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Start", {{"job", ValueType::kString}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Tick", {{"job", ValueType::kString},
                                                   {"size", ValueType::kDouble}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("End", {{"job", ValueType::kString}}))
                    .ok());
  }

  std::vector<Event> RandomStream(uint64_t seed, int num_jobs, int num_events) {
    Rng rng(seed);
    std::vector<Event> events;
    Timestamp ts = 0;
    std::vector<int> phase(static_cast<size_t>(num_jobs), 0);  // 0 idle, 1 running
    for (int i = 0; i < num_events; ++i) {
      ts += rng.UniformInt(1, 3);
      const int j = static_cast<int>(rng.UniformInt(0, num_jobs - 1));
      const std::string job = StrFormat("job-%d", j);
      auto& p = phase[static_cast<size_t>(j)];
      const int64_t kind = rng.UniformInt(0, 5);
      if (p == 0 && kind == 0) {
        events.emplace_back(0, ts, std::vector<Value>{Value(job)});
        p = 1;
      } else if (p == 1 && kind == 5) {
        events.emplace_back(2, ts, std::vector<Value>{Value(job)});
        p = 0;
      } else {
        events.emplace_back(
            1, ts, std::vector<Value>{Value(job), Value(rng.Gaussian(5, 2))});
      }
    }
    return events;
  }

  EventTypeRegistry registry_;
};

constexpr char kQuery[] =
    "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
    "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))";

TEST_F(EngineStressTest, ManyInterleavedPartitions) {
  CepEngine engine(&registry_);
  auto qid = engine.AddQueryText(kQuery, "Q");
  ASSERT_TRUE(qid.ok());
  const auto stream = RandomStream(1, 50, 20000);
  for (const Event& e : stream) engine.OnEvent(e);

  const MatchTable& table = engine.match_table(*qid);
  EXPECT_GT(table.TotalRows(), 1000u);
  // Per partition, the running sum must be consistent: the last row's sum
  // equals the sum of all size values of rows in that partition's last run.
  // Weaker invariant checked here: sums change monotonically in count.
  for (const std::string& partition : table.Partitions()) {
    const auto rows = table.Rows(partition);
    for (size_t i = 1; i < rows.size(); ++i) {
      EXPECT_GE(rows[i].ts, rows[i - 1].ts) << partition;
    }
  }
}

TEST_F(EngineStressTest, ReplicatedQueriesAgree) {
  // 64 replicas of the same query must produce identical match tables.
  CepEngine engine(&registry_);
  std::vector<QueryId> ids;
  for (int i = 0; i < 64; ++i) {
    auto qid = engine.AddQueryText(kQuery, StrFormat("Q%d", i));
    ASSERT_TRUE(qid.ok());
    ids.push_back(*qid);
  }
  const auto stream = RandomStream(2, 10, 5000);
  for (const Event& e : stream) engine.OnEvent(e);

  const MatchTable& reference = engine.match_table(ids[0]);
  for (size_t q = 1; q < ids.size(); ++q) {
    const MatchTable& other = engine.match_table(ids[q]);
    ASSERT_EQ(other.TotalRows(), reference.TotalRows());
    for (const std::string& partition : reference.Partitions()) {
      const auto a = reference.Rows(partition);
      const auto b = other.Rows(partition);
      ASSERT_EQ(a.size(), b.size()) << partition;
      for (size_t i = 0; i < a.size(); i += 37) {  // spot check
        EXPECT_EQ(a[i].ts, b[i].ts);
        EXPECT_DOUBLE_EQ(a[i].values[2].AsDouble(), b[i].values[2].AsDouble());
      }
    }
  }
}

TEST_F(EngineStressTest, EventCountingAndRelevance) {
  CepEngine engine(&registry_);
  ASSERT_TRUE(engine.AddQueryText(kQuery, "Q").ok());
  const auto stream = RandomStream(3, 5, 1000);
  for (const Event& e : stream) engine.OnEvent(e);
  EXPECT_EQ(engine.events_processed(), 1000u);
}

TEST_F(EngineStressTest, BatchedIngestManyQueriesMatchesSequential) {
  // 64 replicas ingested in batches must agree with a single query fed per
  // event — the batched flavor of ReplicatedQueriesAgree.
  const auto stream = RandomStream(5, 10, 5000);

  CepEngine serial(&registry_);
  ASSERT_TRUE(serial.AddQueryText(kQuery, "ref").ok());
  for (const Event& e : stream) serial.OnEvent(e);
  const MatchTable& reference = serial.match_table(0);

  CepEngine engine(&registry_);
  std::vector<QueryId> ids;
  for (int i = 0; i < 64; ++i) {
    auto qid = engine.AddQueryText(kQuery, StrFormat("Q%d", i));
    ASSERT_TRUE(qid.ok());
    ids.push_back(*qid);
  }
  for (size_t i = 0; i < stream.size(); i += 256) {
    engine.OnEventBatch(EventBatch(
        stream.begin() + static_cast<ptrdiff_t>(i),
        stream.begin() + static_cast<ptrdiff_t>(std::min(stream.size(), i + 256))));
  }

  for (const QueryId id : ids) {
    const MatchTable& other = engine.match_table(id);
    ASSERT_EQ(other.TotalRows(), reference.TotalRows());
    ASSERT_EQ(other.Partitions(), reference.Partitions());
    for (const std::string& partition : reference.Partitions()) {
      const auto a = reference.Rows(partition);
      const auto b = other.Rows(partition);
      ASSERT_EQ(a.size(), b.size()) << partition;
      for (size_t i = 0; i < a.size(); i += 41) {  // spot check
        EXPECT_EQ(a[i].ts, b[i].ts);
        EXPECT_DOUBLE_EQ(a[i].values[2].AsDouble(), b[i].values[2].AsDouble());
      }
    }
  }
}

TEST(SystemStressTest, BatchedIngestWhileExplanationInFlight) {
  // End-to-end race test (meant for TSan): batched ingestion keeps feeding
  // the system while an explanation analysis scans the archive, and a
  // checkpoint is taken mid-stream with the analysis still in flight.
  EventTypeRegistry registry;
  ASSERT_TRUE(HadoopClusterSim::RegisterEventTypes(&registry).ok());

  XStreamConfig config;
  config.explain.feature_space.windows = {10};
  config.explain.num_threads = 2;
  XStreamSystem system(&registry, config);

  constexpr char kQ1[] =
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
      "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";
  std::vector<QueryId> ids;
  for (int i = 0; i < 8; ++i) {
    auto qid = system.AddQuery(kQ1, StrFormat("Q%d", i));
    ASSERT_TRUE(qid.ok()) << qid.status().ToString();
    ids.push_back(*qid);
  }

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
  ASSERT_TRUE(sim.Run(&system).ok());  // ReplayMove: batched ingest
  ASSERT_GT(system.engine().match_table(ids[0]).NumRows("job-x"), 50u);
  ASSERT_TRUE(system.IndexPartitions(ids[0], {{"program", "p"}}).ok());

  AnomalyAnnotation annotation;
  annotation.abnormal = {"Q0", {60, 300}, "job-x"};
  annotation.reference = {"Q0", {360, 600}, "job-x"};
  auto future = system.ExplainAsync(annotation, ids[0], "sum_dataSize");

  // Keep the monitoring side hot while the analysis runs: batches of fresh
  // metric events (ts past the simulated horizon, so archive order holds).
  const EventTypeId cpu = *registry.IdOf("CpuUsage");
  const EventTypeId mem = *registry.IdOf("MemUsage");
  const std::string dir = ::testing::TempDir() + "/engine_stress_ckpt";
  Timestamp ts = 1000000;
  for (int round = 0; round < 40; ++round) {
    EventBatch batch;
    batch.reserve(100);
    for (int i = 0; i < 50; ++i) {
      ++ts;
      batch.emplace_back(cpu, ts,
                         MakeValues(int64_t{i % 3}, 50.0, 50.0, 1.0,
                                    static_cast<double>(ts)));
      batch.emplace_back(mem, ++ts,
                         MakeValues(int64_t{i % 3}, 1e6, 1e5, 1e4, 1e6, 2e6, 4e6,
                                    100.0));
    }
    system.OnEventBatch(std::move(batch));
    if (round == 15) {
      // Mid-stream, explanation still in flight: the checkpoint drains the
      // ingest queue and serializes engine + merged-run state.
      const Status st = system.Checkpoint(dir);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  }

  auto report = future.get();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->final_features.empty());
  EXPECT_FALSE(system.explanation_active());
  // All 8 replicas saw the identical stream.
  for (const QueryId id : ids) {
    EXPECT_EQ(system.engine().match_table(id).TotalRows(),
              system.engine().match_table(ids[0]).TotalRows());
  }

  // The checkpoint a concurrent run produced must recover cleanly (same
  // queries added in the same order first, per the Recover contract).
  XStreamSystem recovered(&registry, config);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(recovered.AddQuery(kQ1, StrFormat("Q%d", i)).ok());
  }
  auto recovery = recovered.Recover(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_TRUE(recovery->manifest_loaded);
  EXPECT_EQ(recovered.engine().match_table(ids[0]).NumRows("job-x"),
            system.engine().match_table(ids[0]).NumRows("job-x"));
}

TEST_F(EngineStressTest, ReadersAndCheckpointsDuringBatchedIngest) {
  // MatchTable readers (the Explain access pattern) and engine snapshots at
  // batch boundaries run while batches are ingested; afterwards the callback
  // sequence and the tables must equal the oracle's, and every snapshot must
  // restore into a fresh engine that continues to the uninterrupted end state.
  constexpr char kVariant[] =
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
      "RETURN (b[i].timestamp, a.job, count(b[1..i].size))";
  std::vector<std::string> queries;
  for (int q = 0; q < 12; ++q) queries.push_back(q % 3 == 2 ? kVariant : kQuery);
  const auto stream = RandomStream(13, 24, 30000);
  constexpr size_t kBatch = 256;
  auto snapshot_due = [](size_t batch_index) { return batch_index % 16 == 5; };

  CepCapture want;
  {
    CepOracle oracle(&registry_);
    AddQueries(&oracle, queries);
    oracle.SetMatchCallback([&want](const MatchNotification& n) {
      want.notes.push_back(NoteCopy::From(n));
    });
    for (const Event& e : stream) oracle.OnEvent(e);
    CaptureState(oracle, &want);
  }
  ASSERT_FALSE(want.notes.empty());

  CepCapture got;
  CepEngine engine(&registry_);
  AddQueries(&engine, queries);
  engine.SetMatchCallback([&got](const MatchNotification& n) {
    got.notes.push_back(NoteCopy::From(n));
  });
  std::atomic<bool> done{false};
  std::atomic<size_t> rows_seen{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&engine, &done, &rows_seen, r] {
      size_t local = 0;
      while (!done.load(std::memory_order_acquire)) {
        const MatchTable& table = engine.match_table(static_cast<QueryId>(r == 0 ? 0 : 2));
        for (const std::string& partition : table.Partitions()) {
          local += table.Rows(partition).size();
          (void)table.IsComplete(partition);
        }
        (void)table.TotalRows();
      }
      rows_seen.fetch_add(local, std::memory_order_relaxed);
    });
  }
  struct Cut {
    size_t events = 0;  // stream prefix the snapshot covers
    size_t notes = 0;   // callbacks delivered by then
    std::string snapshot;
  };
  std::vector<Cut> cuts;
  for (size_t i = 0, batch_index = 0; i < stream.size(); i += kBatch, ++batch_index) {
    const size_t end = std::min(stream.size(), i + kBatch);
    engine.IngestBatch(std::span<const Event>(stream).subspan(i, end - i));
    if (snapshot_due(batch_index)) {
      BytesWriter w;
      engine.SaveState(&w);
      cuts.push_back(Cut{end, got.notes.size(), w.Take()});
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(rows_seen.load(), 0u);

  CaptureState(engine, &got);
  ExpectSameCapture(want, got, "concurrent readers");
  ASSERT_GE(cuts.size(), 2u);
  for (size_t s = 0; s < cuts.size(); ++s) {
    // Every mid-stream snapshot restores into a fresh engine, re-checkpoints
    // to the same bytes and continues exactly like the uninterrupted engine.
    const std::string label = StrFormat("snapshot #%zu", s);
    CepEngine restored(&registry_);
    AddQueries(&restored, queries);
    BytesReader reader(cuts[s].snapshot);
    const Status st = restored.RestoreState(&reader);
    ASSERT_TRUE(st.ok()) << label << ": " << st.ToString();
    BytesWriter resnapshot;
    restored.SaveState(&resnapshot);
    ASSERT_TRUE(resnapshot.str() == cuts[s].snapshot) << label;
    CepCapture resumed;
    restored.SetMatchCallback([&resumed](const MatchNotification& n) {
      resumed.notes.push_back(NoteCopy::From(n));
    });
    const auto rest = std::span<const Event>(stream).subspan(cuts[s].events);
    for (size_t i = 0; i < rest.size(); i += kBatch) {
      restored.IngestBatch(rest.subspan(i, std::min(kBatch, rest.size() - i)));
    }
    CaptureState(restored, &resumed);
    CepCapture want_rest = got;
    want_rest.notes.erase(want_rest.notes.begin(),
                          want_rest.notes.begin() + static_cast<ptrdiff_t>(cuts[s].notes));
    ExpectSameCapture(want_rest, resumed, label);
  }
}

TEST_F(EngineStressTest, DeterministicAcrossRuns) {
  auto run_once = [&] {
    CepEngine engine(&registry_);
    auto qid = engine.AddQueryText(kQuery, "Q");
    EXPECT_TRUE(qid.ok());
    const auto stream = RandomStream(4, 20, 8000);
    for (const Event& e : stream) engine.OnEvent(e);
    return engine.match_table(*qid).TotalRows();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace exstream
