// Tests of the multi-query optimizer: signature canonicalization
// (query_merge.h), merge-class assignment, and full differential
// bit-identity of the merged shared-NFA engine against the per-query
// reference oracle (tests/cep_oracle.h) on both paper simulators (Hadoop
// cluster and supply chain), mid-stream query adds and checkpoints.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "cep/query_merge.h"
#include "cep_compare.h"
#include "cep_oracle.h"
#include "common/strings.h"
#include "query/parser.h"
#include "sim/hadoop_sim.h"
#include "sim/supply_chain_sim.h"

namespace exstream {
namespace {

// ---------------------------------------------------------------------------
// Signature canonicalization
// ---------------------------------------------------------------------------

class MergeSignatureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Start", {{"job", ValueType::kString},
                                                    {"region", ValueType::kString}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("Tick", {{"job", ValueType::kString},
                                                   {"region", ValueType::kString},
                                                   {"size", ValueType::kDouble}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("End", {{"job", ValueType::kString},
                                                  {"region", ValueType::kString}}))
                    .ok());
  }

  CompiledQuery Compile(const std::string& text) {
    auto query = ParseQuery(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto cq = CompiledQuery::Compile(*query, &registry_);
    EXPECT_TRUE(cq.ok()) << cq.status().ToString();
    return std::move(*cq);
  }

  MergeSignature Sig(const std::string& text) {
    return BuildMergeSignature(Compile(text));
  }

  EventTypeRegistry registry_;
};

constexpr char kBase[] =
    "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
    "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))";

TEST_F(MergeSignatureTest, ReplicasShareAllKeys) {
  const MergeSignature s1 = Sig(kBase);
  const MergeSignature s2 = Sig(kBase);
  EXPECT_TRUE(s1.mergeable);
  EXPECT_EQ(s1.group_key, s2.group_key);
  EXPECT_EQ(s1.residue_key, s2.residue_key);
  EXPECT_EQ(s1.table_key, s2.table_key);
}

TEST_F(MergeSignatureTest, PredicateReorderingCanonicalizes) {
  // WHERE predicates are an AND conjunction; their order must not split
  // groups.
  const MergeSignature s1 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) "
      "WHERE [job] AND b.size > 1 AND b.size < 9 "
      "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))");
  const MergeSignature s2 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) "
      "WHERE [job] AND b.size < 9 AND b.size > 1 "
      "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))");
  EXPECT_TRUE(s1.mergeable);
  EXPECT_EQ(s1.group_key, s2.group_key);
  EXPECT_EQ(s1.residue_key, s2.residue_key);
}

TEST_F(MergeSignatureTest, AliasRenamingCanonicalizes) {
  // Compiled references are positional; variable names must not matter.
  const MergeSignature s2 = Sig(
      "PATTERN SEQ(Start x, Tick+ y[], End z) WHERE [job] "
      "RETURN (y[i].timestamp, x.job, sum(y[1..i].size))");
  const MergeSignature s1 = Sig(kBase);
  EXPECT_EQ(s1.group_key, s2.group_key);
  EXPECT_EQ(s1.residue_key, s2.residue_key);
}

TEST_F(MergeSignatureTest, DifferentPredicateConstantsSplitGroups) {
  const MergeSignature s1 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] AND b.size > 1 "
      "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))");
  const MergeSignature s2 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] AND b.size > 2 "
      "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))");
  EXPECT_NE(s1.group_key, s2.group_key);
}

TEST_F(MergeSignatureTest, DifferentPartitionAttributesSplitGroups) {
  const MergeSignature by_job = Sig(kBase);
  const MergeSignature by_region = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [region] "
      "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))");
  EXPECT_TRUE(by_region.mergeable);
  EXPECT_NE(by_job.group_key, by_region.group_key);
}

TEST_F(MergeSignatureTest, WithinSplitsGroups) {
  const MergeSignature s1 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] WITHIN 100 "
      "RETURN (a.job)");
  const MergeSignature s2 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] WITHIN 200 "
      "RETURN (a.job)");
  EXPECT_NE(s1.group_key, s2.group_key);
}

TEST_F(MergeSignatureTest, DifferentReturnsShareGroupSplitResidue) {
  const MergeSignature s1 = Sig(kBase);
  const MergeSignature s2 = Sig(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
      "RETURN (b[i].timestamp, a.job, count(b[1..i].size))");
  EXPECT_EQ(s1.group_key, s2.group_key);
  EXPECT_NE(s1.residue_key, s2.residue_key);
}

TEST_F(MergeSignatureTest, NegationIsUnmergeable) {
  const MergeSignature sig =
      Sig("PATTERN SEQ(Start a, !Tick b, End c) WHERE [job] RETURN (a.job)");
  EXPECT_FALSE(sig.mergeable);
}

TEST_F(MergeSignatureTest, PlannerAssignsClasses) {
  MergePlanner planner;
  const CompiledQuery replica1 = Compile(kBase);
  const CompiledQuery replica2 = Compile(kBase);
  const CompiledQuery other_return = Compile(
      "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
      "RETURN (b[i].timestamp, a.job, count(b[1..i].size))");
  const CompiledQuery other_pattern = Compile(
      "PATTERN SEQ(Start a, End c) WHERE [job] RETURN (a.job)");

  const MergeAssignment a1 = planner.Assign(replica1);
  const MergeAssignment a2 = planner.Assign(replica2);
  const MergeAssignment a3 = planner.Assign(other_return);
  const MergeAssignment a4 = planner.Assign(other_pattern);

  EXPECT_TRUE(a1.new_group);
  EXPECT_FALSE(a2.new_group);
  EXPECT_EQ(a1.group, a2.group);
  EXPECT_EQ(a1.residue, a2.residue);
  EXPECT_EQ(a1.table, a2.table);

  EXPECT_EQ(a1.group, a3.group);     // same pattern
  EXPECT_TRUE(a3.new_residue);       // different RETURN
  EXPECT_NE(a1.residue, a3.residue);

  EXPECT_TRUE(a4.new_group);  // different SEQ shape
  EXPECT_NE(a1.group, a4.group);

  const MergePlanStats& stats = planner.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.residue_classes, 3u);
  EXPECT_EQ(stats.table_classes, 3u);
  EXPECT_EQ(stats.unmergeable, 0u);
}

TEST_F(MergeSignatureTest, PlannerSingletonsNeverMerge) {
  MergePlanner planner;
  const CompiledQuery neg = Compile(
      "PATTERN SEQ(Start a, !Tick b, End c) WHERE [job] RETURN (a.job)");
  const MergeAssignment a1 = planner.Assign(neg);
  const MergeAssignment a2 = planner.Assign(neg);
  EXPECT_NE(a1.group, a2.group);  // identical text, still isolated
  EXPECT_EQ(planner.stats().unmergeable, 2u);

  // force_singleton isolates even a mergeable query (mid-stream AddQuery).
  const CompiledQuery plain = Compile(kBase);
  const MergeAssignment a3 = planner.Assign(plain);
  const MergeAssignment a4 = planner.Assign(plain, /*force_singleton=*/true);
  EXPECT_NE(a3.group, a4.group);
}

// ---------------------------------------------------------------------------
// Differential bit-identity on the paper simulators
// ---------------------------------------------------------------------------

void CheckMergedMatchesOracle(const EventTypeRegistry& registry,
                              const std::vector<std::string>& queries,
                              const std::vector<Event>& stream,
                              const std::string& label) {
  const CepCapture want = RunOracle(registry, queries, stream);
  ASSERT_FALSE(want.notes.empty()) << label << ": stream produced no matches";
  for (const size_t batch : {size_t{0}, size_t{64}, size_t{512}}) {
    ExpectSameCapture(want, RunEngine(registry, queries, stream, batch),
                      StrFormat("%s batch=%zu", label.c_str(), batch));
  }
}

std::vector<Event> BuildHadoopStream(const EventTypeRegistry& registry) {
  HadoopSimConfig config;
  config.num_nodes = 3;
  config.seed = 99;
  HadoopClusterSim sim(config, &registry);
  for (int j = 0; j < 4; ++j) {
    HadoopJobConfig job;
    job.job_id = StrFormat("job-%d", j);
    job.program = "wordcount";
    job.dataset = "ds";
    job.start_time = j * 120;
    sim.AddJob(job);
  }
  VectorSink sink;
  EXPECT_TRUE(sim.Run(&sink).ok());
  return sink.TakeEvents();
}

TEST(QueryMergeDifferentialTest, HadoopSimulatorBitIdentical) {
  EventTypeRegistry registry;
  ASSERT_TRUE(HadoopClusterSim::RegisterEventTypes(&registry).ok());
  const std::vector<Event> stream = BuildHadoopStream(registry);
  ASSERT_FALSE(stream.empty());

  // A mixed portfolio: replicas (merge fully), a residue-mate with a
  // different RETURN, an alias-renamed replica, and a WITHIN variant that
  // must stay in its own group.
  const std::vector<std::string> queries = {
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
      "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))",
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
      "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))",
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
      "RETURN (b[i].timestamp, a.jobId, count(b[1..i].dataSize))",
      "PATTERN SEQ(JobStart x, DataIO+ y[], JobEnd z) WHERE [jobId] "
      "RETURN (y[i].timestamp, x.jobId, sum(y[1..i].dataSize))",
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] WITHIN 500 "
      "RETURN (b[i].timestamp, a.jobId, max(b[1..i].dataSize))",
  };
  CheckMergedMatchesOracle(registry, queries, stream, "hadoop");
}

TEST(QueryMergeDifferentialTest, SupplyChainSimulatorBitIdentical) {
  EventTypeRegistry registry;
  SupplyChainConfig config;
  config.num_sensors = 4;
  config.num_machines = 4;
  config.num_products = 4;
  config.seed = 23;
  ASSERT_TRUE(SupplyChainSim::RegisterEventTypes(&registry, config).ok());
  SupplyChainSim sim(config, &registry);
  ScAnomalySpec spec;
  spec.type = ScAnomalyType::kSubParMaterial;
  spec.product_index = 1;
  spec.targets = {0};
  sim.AddAnomaly(spec);
  VectorSink sink;
  ASSERT_TRUE(sim.Run(&sink).ok());
  const std::vector<Event> stream = sink.TakeEvents();
  ASSERT_FALSE(stream.empty());

  const std::vector<std::string> queries = {
      "PATTERN SEQ(ProductStart a, ProductProgress+ b[], ProductEnd c) "
      "WHERE [productId] RETURN (b[i].timestamp, a.productId, "
      "avg(b[1..i].quality))",
      "PATTERN SEQ(ProductStart a, ProductProgress+ b[], ProductEnd c) "
      "WHERE [productId] RETURN (b[i].timestamp, a.productId, "
      "avg(b[1..i].quality))",
      "PATTERN SEQ(ProductStart a, ProductProgress+ b[], ProductEnd c) "
      "WHERE [productId] RETURN (b[i].timestamp, a.productId, "
      "min(b[1..i].quality))",
  };
  CheckMergedMatchesOracle(registry, queries, stream, "supply-chain");
}

// ---------------------------------------------------------------------------
// Engine-level merge behavior
// ---------------------------------------------------------------------------

class MergedEngineTest : public MergeSignatureTest {};

TEST_F(MergedEngineTest, StatsReportCompression) {
  CepEngine engine(&registry_);
  for (int q = 0; q < 10; ++q) {
    ASSERT_TRUE(engine.AddQueryText(kBase, StrFormat("Q%d", q)).ok());
  }
  const MergePlanStats& stats = engine.merge_stats();
  EXPECT_EQ(stats.queries, 10u);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.residue_classes, 1u);
  EXPECT_EQ(stats.table_classes, 1u);
  EXPECT_DOUBLE_EQ(stats.compression(), 10.0);
}

TEST_F(MergedEngineTest, MidStreamAddQueryIsIsolatedAndCorrect) {
  // A query added after events have flowed must not inherit the group's
  // partial-match history, and must still agree with the oracle fed the same
  // add-mid-stream sequence.
  std::vector<Event> first_half;
  std::vector<Event> second_half;
  Timestamp ts = 0;
  for (int i = 0; i < 40; ++i) {
    const std::string job = StrFormat("j%d", i % 3);
    auto& dst = i < 20 ? first_half : second_half;
    dst.emplace_back(0, ++ts, MakeValues(job, std::string("r")));
    dst.emplace_back(1, ++ts, MakeValues(job, std::string("r"), 1.5 * i));
    dst.emplace_back(2, ++ts, MakeValues(job, std::string("r")));
  }

  auto run = [&](auto* cep) {
    AddQueries(cep, {kBase});
    for (const Event& e : first_half) cep->OnEvent(e);
    AddQueries(cep, {kBase});  // mid-stream replica
    for (const Event& e : second_half) cep->OnEvent(e);
    CepCapture out;
    CaptureState(*cep, &out);
    return out;
  };
  CepOracle oracle(&registry_);
  CepEngine engine(&registry_);
  const CepCapture want = run(&oracle);
  const CepCapture got = run(&engine);
  ExpectSameCapture(want, got, "mid-stream");
  EXPECT_EQ(engine.merge_stats().groups, 2u);
  // Q1 saw only the second half: strictly fewer rows than Q0.
  EXPECT_LT(engine.match_table(1).TotalRows(), engine.match_table(0).TotalRows());
  EXPECT_GT(engine.match_table(1).TotalRows(), 0u);
}

TEST_F(MergedEngineTest, MidStreamAddQueryCheckpointRestores) {
  // Regression: a query added mid-stream is a forced-singleton merge group,
  // but recovery re-adds every query before any event flows — without the
  // persisted mid-stream flags the restoring planner merged it into its
  // structural group and RestoreState rejected the snapshot as corrupt.
  std::vector<Event> part1;
  std::vector<Event> part2;
  std::vector<Event> part3;
  Timestamp ts = 0;
  auto triplet = [&](std::vector<Event>* dst, const std::string& job,
                     double size) {
    dst->emplace_back(0, ++ts, MakeValues(job, std::string("r")));
    dst->emplace_back(1, ++ts, MakeValues(job, std::string("r"), size));
    dst->emplace_back(2, ++ts, MakeValues(job, std::string("r")));
  };
  for (int i = 0; i < 12; ++i) triplet(&part1, StrFormat("j%d", i % 3), 0.5 * i);
  for (int i = 0; i < 12; ++i) triplet(&part2, StrFormat("j%d", i % 4), 1.5 * i);
  // Leave one run mid-kleene at the snapshot point; part3 closes it.
  part2.emplace_back(0, ++ts, MakeValues(std::string("open"), std::string("r")));
  part2.emplace_back(1, ++ts, MakeValues(std::string("open"), std::string("r"), 7.0));
  for (int i = 0; i < 12; ++i) triplet(&part3, StrFormat("j%d", i % 4), 2.5 * i);
  part3.emplace_back(2, ++ts, MakeValues(std::string("open"), std::string("r")));

  // The uninterrupted reference, by the oracle and by the engine; the engine
  // also snapshots after part2.
  CepCapture want;
  {
    CepOracle oracle(&registry_);
    AddQueries(&oracle, {kBase});
    for (const Event& e : part1) oracle.OnEvent(e);
    AddQueries(&oracle, {kBase});  // mid-stream replica
    for (const Event& e : part2) oracle.OnEvent(e);
    for (const Event& e : part3) oracle.OnEvent(e);
    CaptureState(oracle, &want);
  }
  std::string snapshot;
  CepCapture engine_want;
  {
    CepEngine engine(&registry_);
    AddQueries(&engine, {kBase});
    for (const Event& e : part1) engine.OnEvent(e);
    AddQueries(&engine, {kBase});
    for (const Event& e : part2) engine.OnEvent(e);
    BytesWriter w;
    engine.SaveState(&w);
    snapshot = w.Take();
    for (const Event& e : part3) engine.OnEvent(e);
    CaptureState(engine, &engine_want);
  }
  ExpectSameCapture(want, engine_want, "uninterrupted");

  // Recovery shape: both queries re-added before any event, so without the
  // persisted flags Q1 would merge into Q0's group.
  auto restore = [&](CepEngine* engine, const std::string& bytes) {
    AddQueries(engine, {kBase, kBase});
    BytesReader reader(bytes);
    return engine->RestoreState(&reader);
  };
  CepEngine restored(&registry_);
  const Status st = restore(&restored, snapshot);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(restored.merge_stats().groups, 2u);

  // The flags must survive a re-checkpoint of the restored engine too.
  BytesWriter resnapshot;
  restored.SaveState(&resnapshot);
  ASSERT_TRUE(resnapshot.str() == snapshot);
  CepEngine second(&registry_);
  const Status st2 = restore(&second, resnapshot.str());
  ASSERT_TRUE(st2.ok()) << "re-checkpoint: " << st2.ToString();

  // Both continue exactly like the uninterrupted engine (which matched the
  // oracle above), snapshot bytes included.
  engine_want.notes.clear();  // the restored engines run without a callback
  for (CepEngine* engine : {&restored, &second}) {
    for (const Event& e : part3) engine->OnEvent(e);
    CepCapture got;
    CaptureState(*engine, &got);
    ExpectSameCapture(engine_want, got, "restored");
  }
}

// Starts and ticks for four jobs, and the End events that close them: a
// snapshot between the two leaves every run mid-kleene.
void MidKleeneHalves(std::vector<Event>* first_half, std::vector<Event>* second_half) {
  Timestamp ts = 0;
  for (int i = 0; i < 30; ++i) {
    const std::string job = StrFormat("j%d", i % 4);
    first_half->emplace_back(0, ++ts, MakeValues(job, std::string("r")));
    first_half->emplace_back(1, ++ts, MakeValues(job, std::string("r"), 0.5 * i));
    first_half->emplace_back(1, ++ts, MakeValues(job, std::string("r"), 1.5 * i));
    second_half->emplace_back(2, ++ts, MakeValues(job, std::string("r")));
  }
}

constexpr char kCountVariant[] =
    "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
    "RETURN (b[i].timestamp, a.job, count(b[1..i].size))";

TEST_F(MergedEngineTest, CheckpointRestoreContinuesLikeOracle) {
  // An engine snapshot taken mid-pattern restores into a fresh engine, which
  // continues exactly like the uninterrupted oracle.
  std::vector<Event> first_half;
  std::vector<Event> second_half;
  MidKleeneHalves(&first_half, &second_half);
  const std::vector<std::string> queries = {kBase, kBase, kCountVariant};

  CepOracle oracle(&registry_);
  AddQueries(&oracle, queries);
  for (const Event& e : first_half) oracle.OnEvent(e);
  for (const Event& e : second_half) oracle.OnEvent(e);
  CepCapture want;
  CaptureState(oracle, &want);

  CepEngine source(&registry_);
  AddQueries(&source, queries);
  for (const Event& e : first_half) source.OnEvent(e);
  BytesWriter w;
  source.SaveState(&w);
  const std::string snapshot = w.Take();
  for (const Event& e : second_half) source.OnEvent(e);
  CepCapture uninterrupted;
  CaptureState(source, &uninterrupted);
  ExpectSameCapture(want, uninterrupted, "uninterrupted");

  CepEngine restored(&registry_);
  AddQueries(&restored, queries);
  BytesReader reader(snapshot);
  const Status st = restored.RestoreState(&reader);
  ASSERT_TRUE(st.ok()) << st.ToString();
  BytesWriter resnapshot;
  restored.SaveState(&resnapshot);
  ASSERT_TRUE(resnapshot.str() == snapshot);
  for (const Event& e : second_half) restored.OnEvent(e);
  CepCapture got;
  CaptureState(restored, &got);
  ExpectSameCapture(want, got, "restored vs oracle");
  ExpectSameCapture(uninterrupted, got, "restored vs uninterrupted engine");
}

std::string SnapshotOf(const CepEngine& engine) {
  BytesWriter w;
  engine.SaveState(&w);
  return w.Take();
}

TEST_F(MergedEngineTest, ReplicasSnapshotEachFactOnce) {
  // Eight replicas share one group, one residue and one physical table: the
  // snapshot holds them once, not once per member query.
  std::vector<Event> first_half;
  std::vector<Event> second_half;
  MidKleeneHalves(&first_half, &second_half);
  auto snapshot_size = [&](size_t replicas) {
    CepEngine engine(&registry_);
    AddQueries(&engine, std::vector<std::string>(replicas, kBase));
    for (const Event& e : first_half) engine.OnEvent(e);
    return SnapshotOf(engine).size();
  };
  const size_t one = snapshot_size(1);
  const size_t eight = snapshot_size(8);
  EXPECT_LT(static_cast<double>(eight), 1.5 * static_cast<double>(one))
      << "one query: " << one << " B, eight replicas: " << eight << " B";
}

TEST_F(MergedEngineTest, GroupTablesThatDisagreeOnKeysAreCorrupt) {
  // Q0 and Q1 are residue-mates: one group, two physical tables, whose
  // records close the snapshot. Swapping in Q1's table from a run that saw
  // the same partitions in another order (or one more partition) must not
  // restore.
  const std::vector<std::string> queries = {kBase, kCountVariant};
  auto run = [&](const std::vector<std::string>& jobs, CepEngine* engine) {
    AddQueries(engine, queries);
    Timestamp ts = 0;
    for (const std::string& job : jobs) {
      engine->OnEvent(Event(0, ++ts, MakeValues(job, std::string("r"))));
      engine->OnEvent(Event(1, ++ts, MakeValues(job, std::string("r"), 2.0)));
    }
  };
  auto table_bytes = [](const CepEngine& engine, QueryId q) {
    BytesWriter w;
    engine.match_table(q).SaveState(&w);
    return w.Take();
  };
  CepEngine source(&registry_);
  run({"a", "b"}, &source);
  ASSERT_EQ(source.merge_stats().groups, 1u);
  const std::string snapshot = SnapshotOf(source);
  const std::string tables = table_bytes(source, 0) + table_bytes(source, 1);
  ASSERT_GT(snapshot.size(), tables.size());
  ASSERT_EQ(snapshot.substr(snapshot.size() - tables.size()), tables);
  const std::string head = snapshot.substr(0, snapshot.size() - tables.size());

  CepEngine swapped(&registry_);
  run({"b", "a"}, &swapped);
  CepEngine extra(&registry_);
  run({"a", "b", "c"}, &extra);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"keys in another order", head + table_bytes(source, 0) + table_bytes(swapped, 1)},
      {"one key more than runs", head + table_bytes(extra, 0) + table_bytes(extra, 1)},
  };
  for (const auto& [label, bytes] : cases) {
    CepEngine restored(&registry_);
    AddQueries(&restored, queries);
    BytesReader reader(bytes);
    const Status st = restored.RestoreState(&reader);
    EXPECT_TRUE(st.IsCorruption()) << label << ": " << st.ToString();
  }
  // The untouched snapshot restores.
  CepEngine restored(&registry_);
  AddQueries(&restored, queries);
  BytesReader reader(snapshot);
  EXPECT_TRUE(restored.RestoreState(&reader).ok());
}

TEST_F(MergedEngineTest, RunPositionOutsideThePatternIsCorrupt) {
  // Step indexes the pattern's components with a run's NFA position, so a
  // position that does not fit the three-component pattern must not restore.
  CepEngine source(&registry_);
  AddQueries(&source, {kBase});
  source.OnEvent(Event(0, 1, MakeValues(std::string("j"), std::string("r"))));
  source.OnEvent(Event(1, 2, MakeValues(std::string("j"), std::string("r"), 1.0)));
  const std::string snapshot = SnapshotOf(source);
  // The only run's record follows the event count, the query count, one
  // flag, the group count and the run count: u64 state, i32 last positive
  // component, i64 run start, u8 kleene flag.
  constexpr size_t kState = 8 + 4 + 1 + 4 + 4;
  constexpr size_t kLastPositive = kState + 8;
  constexpr size_t kKleene = kLastPositive + 4 + 8;
  auto patched = [&](size_t offset, auto value) {
    std::string bytes = snapshot;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"state past the pattern", patched(kState, uint64_t{99})},
      {"open closure past the last component", patched(kState, uint64_t{3})},
      {"open closure on a non-kleene component", patched(kState, uint64_t{0})},
      {"last positive past the pattern", patched(kLastPositive, int32_t{3})},
      {"last positive below -1", patched(kLastPositive, int32_t{-2})},
  };
  for (const auto& [label, bytes] : cases) {
    CepEngine restored(&registry_);
    AddQueries(&restored, {kBase});
    BytesReader reader(bytes);
    const Status st = restored.RestoreState(&reader);
    EXPECT_TRUE(st.IsCorruption()) << label << ": " << st.ToString();
  }
  // The unpatched snapshot is mid-closure on component 1 and restores.
  ASSERT_EQ(patched(kKleene, uint8_t{1}), snapshot);
  ASSERT_EQ(patched(kState, uint64_t{1}), snapshot);
  CepEngine restored(&registry_);
  AddQueries(&restored, {kBase});
  BytesReader reader(snapshot);
  EXPECT_TRUE(restored.RestoreState(&reader).ok());
}

}  // namespace
}  // namespace exstream
