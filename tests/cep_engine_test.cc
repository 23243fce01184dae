#include "cep/engine.h"

#include <gtest/gtest.h>

#include "event/codec.h"
#include "query/parser.h"

namespace exstream {
namespace {

class CepEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_
                    .Register(EventSchema("JobStart", {{"jobId", ValueType::kString},
                                                       {"node", ValueType::kInt64}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("DataIO", {{"jobId", ValueType::kString},
                                                     {"size", ValueType::kDouble}}))
                    .ok());
    ASSERT_TRUE(registry_
                    .Register(EventSchema("JobEnd", {{"jobId", ValueType::kString}}))
                    .ok());
  }

  Event Start(Timestamp ts, const char* job, int64_t node = 0) {
    return Event(0, ts, {Value(job), Value(node)});
  }
  Event Io(Timestamp ts, const char* job, double size) {
    return Event(1, ts, {Value(job), Value(size)});
  }
  Event End(Timestamp ts, const char* job) { return Event(2, ts, {Value(job)}); }

  EventTypeRegistry registry_;
};

constexpr char kQueueQuery[] =
    "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
    "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].size))";

TEST_F(CepEngineTest, RunningSumPerKleeneEvent) {
  CepEngine engine(&registry_);
  auto qid = engine.AddQueryText(kQueueQuery, "Q");
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();

  engine.OnEvent(Start(0, "j1"));
  engine.OnEvent(Io(1, "j1", 10));
  engine.OnEvent(Io(2, "j1", 5));
  engine.OnEvent(Io(3, "j1", -8));
  engine.OnEvent(End(4, "j1"));

  const MatchTable& table = engine.match_table(*qid);
  auto rows = table.Rows("j1");
  ASSERT_EQ(rows.size(), 3u);  // one row per DataIO event
  EXPECT_DOUBLE_EQ(rows[0].values[2].AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(rows[1].values[2].AsDouble(), 15.0);
  EXPECT_DOUBLE_EQ(rows[2].values[2].AsDouble(), 7.0);
  EXPECT_TRUE(table.IsComplete("j1"));
}

TEST_F(CepEngineTest, PartitionsIsolated) {
  CepEngine engine(&registry_);
  auto qid = engine.AddQueryText(kQueueQuery, "Q");
  ASSERT_TRUE(qid.ok());

  engine.OnEvent(Start(0, "j1"));
  engine.OnEvent(Start(0, "j2"));
  engine.OnEvent(Io(1, "j1", 10));
  engine.OnEvent(Io(1, "j2", 99));
  engine.OnEvent(End(2, "j1"));

  const MatchTable& table = engine.match_table(*qid);
  ASSERT_EQ(table.Rows("j1").size(), 1u);
  ASSERT_EQ(table.Rows("j2").size(), 1u);
  EXPECT_DOUBLE_EQ(table.Rows("j2")[0].values[2].AsDouble(), 99.0);
  EXPECT_TRUE(table.IsComplete("j1"));
  EXPECT_FALSE(table.IsComplete("j2"));
}

TEST_F(CepEngineTest, KleeneRequiresAtLeastOneEvent) {
  CepEngine engine(&registry_);
  auto qid = engine.AddQueryText(kQueueQuery, "Q");
  ASSERT_TRUE(qid.ok());
  // JobEnd directly after JobStart: the kleene-plus is unsatisfied, so the
  // pattern must not complete.
  engine.OnEvent(Start(0, "j1"));
  engine.OnEvent(End(1, "j1"));
  EXPECT_FALSE(engine.match_table(*qid).IsComplete("j1"));
  // A full match afterwards still works (run was not corrupted).
  engine.OnEvent(Io(2, "j1", 1));
  engine.OnEvent(End(3, "j1"));
  EXPECT_TRUE(engine.match_table(*qid).IsComplete("j1"));
}

TEST_F(CepEngineTest, SkipTillNextMatchIgnoresIrrelevantEvents) {
  CepEngine engine(&registry_);
  auto qid = engine.AddQueryText(kQueueQuery, "Q");
  ASSERT_TRUE(qid.ok());
  // A second JobStart mid-pattern is ignored (skip-till-next-match).
  engine.OnEvent(Start(0, "j1"));
  engine.OnEvent(Io(1, "j1", 3));
  engine.OnEvent(Start(2, "j1"));
  engine.OnEvent(Io(3, "j1", 4));
  engine.OnEvent(End(4, "j1"));
  auto rows = engine.match_table(*qid).Rows("j1");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[1].values[2].AsDouble(), 7.0);
}

TEST_F(CepEngineTest, ConstantPredicateFiltersKleeneEvents) {
  CepEngine engine(&registry_);
  auto qid = engine.AddQueryText(
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] AND "
      "b.size > 0 RETURN (b[i].timestamp, sum(b[1..i].size))",
      "Q");
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();
  engine.OnEvent(Start(0, "j1"));
  engine.OnEvent(Io(1, "j1", 10));
  engine.OnEvent(Io(2, "j1", -5));  // filtered out
  engine.OnEvent(Io(3, "j1", 2));
  engine.OnEvent(End(4, "j1"));
  auto rows = engine.match_table(*qid).Rows("j1");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[1].values[1].AsDouble(), 12.0);
}

TEST_F(CepEngineTest, AttrToAttrPredicate) {
  CepEngine engine(&registry_);
  // Only accept DataIO whose size is greater than the start node id.
  auto qid = engine.AddQueryText(
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] AND "
      "b.size > a.node RETURN (b[i].timestamp, count(b[1..i].size))",
      "Q");
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();
  engine.OnEvent(Start(0, "j1", 5));
  engine.OnEvent(Io(1, "j1", 3));   // 3 <= 5 -> rejected
  engine.OnEvent(Io(2, "j1", 8));   // accepted
  engine.OnEvent(End(3, "j1"));
  auto rows = engine.match_table(*qid).Rows("j1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values[1].AsInt64(), 1);
}

TEST_F(CepEngineTest, AggregateKinds) {
  CepEngine engine(&registry_);
  auto qid = engine.AddQueryText(
      "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] RETURN "
      "(b[i].timestamp, sum(b[1..i].size), count(b[1..i].size), "
      "avg(b[1..i].size), min(b[1..i].size), max(b[1..i].size))",
      "Q");
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();
  engine.OnEvent(Start(0, "j1"));
  engine.OnEvent(Io(1, "j1", 4));
  engine.OnEvent(Io(2, "j1", -2));
  engine.OnEvent(Io(3, "j1", 10));
  engine.OnEvent(End(4, "j1"));
  auto rows = engine.match_table(*qid).Rows("j1");
  ASSERT_EQ(rows.size(), 3u);
  const MatchRow& last = rows[2];
  EXPECT_DOUBLE_EQ(last.values[1].AsDouble(), 12.0);  // sum
  EXPECT_EQ(last.values[2].AsInt64(), 3);             // count
  EXPECT_DOUBLE_EQ(last.values[3].AsDouble(), 4.0);   // avg
  EXPECT_DOUBLE_EQ(last.values[4].AsDouble(), -2.0);  // min
  EXPECT_DOUBLE_EQ(last.values[5].AsDouble(), 10.0);  // max
}

TEST_F(CepEngineTest, SingleEventPatternEmitsOnCompletion) {
  CepEngine engine(&registry_);
  auto qid = engine.AddQueryText(
      "PATTERN SEQ(JobStart a, JobEnd b) WHERE [jobId] RETURN (a.jobId)", "Q");
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();
  engine.OnEvent(Start(0, "j1"));
  engine.OnEvent(End(5, "j1"));
  auto rows = engine.match_table(*qid).Rows("j1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].ts, 5);
  EXPECT_EQ(rows[0].values[0].AsString(), "j1");
}

TEST_F(CepEngineTest, MatchCallbackInvoked) {
  CepEngine engine(&registry_);
  auto qid = engine.AddQueryText(kQueueQuery, "Q");
  ASSERT_TRUE(qid.ok());
  std::vector<MatchNotification> notifications;
  engine.SetMatchCallback(
      [&](const MatchNotification& n) { notifications.push_back(n); });
  engine.OnEvent(Start(0, "j1"));
  engine.OnEvent(Io(1, "j1", 1));
  engine.OnEvent(End(2, "j1"));
  ASSERT_EQ(notifications.size(), 2u);  // one row + one completion signal
  EXPECT_FALSE(notifications[0].complete);
  EXPECT_TRUE(notifications[1].complete);
  EXPECT_EQ(notifications[0].partition, "j1");
}

// Queries notified by a callback, in delivery order.
std::vector<QueryId> NotifiedQueries(const std::vector<MatchNotification>& notes) {
  std::vector<QueryId> out;
  for (const MatchNotification& n : notes) out.push_back(n.query);
  return out;
}

std::string Snapshot(const CepEngine& engine) {
  BytesWriter w;
  engine.SaveState(&w);
  return w.Take();
}

TEST_F(CepEngineTest, EmptySubscriptionFiresNothing) {
  CepEngine quiet(&registry_);
  CepEngine plain(&registry_);
  for (CepEngine* e : {&quiet, &plain}) {
    ASSERT_TRUE(e->AddQueryText(kQueueQuery, "Q").ok());
    ASSERT_TRUE(e->AddQueryText(kQueueQuery, "R").ok());
  }
  size_t calls = 0;
  ASSERT_TRUE(
      quiet.SetMatchCallback({}, [&](const MatchNotification&) { ++calls; }).ok());
  const std::vector<Event> events = {Start(0, "j1"), Io(1, "j1", 3), Io(2, "j1", 4),
                                     End(3, "j1")};
  quiet.IngestBatch(events);
  plain.IngestBatch(events);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(quiet.match_table(0).NumRows("j1"), 2u);
  EXPECT_EQ(Snapshot(quiet), Snapshot(plain));
}

TEST_F(CepEngineTest, SubscriptionToUnknownQueryIsRejected) {
  CepEngine engine(&registry_);
  ASSERT_TRUE(engine.AddQueryText(kQueueQuery, "Q").ok());
  size_t calls = 0;
  engine.SetMatchCallback([&](const MatchNotification&) { ++calls; });
  const std::vector<QueryId> bad = {0, 1};
  const Status st =
      engine.SetMatchCallback(bad, [](const MatchNotification&) { FAIL(); });
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  // Nothing was installed: the earlier all-queries callback still fires.
  engine.OnEvent(Start(0, "j1"));
  engine.OnEvent(Io(1, "j1", 1));
  EXPECT_EQ(calls, 1u);
}

TEST_F(CepEngineTest, QueryAddedAfterSubscribingGetsNoNotes) {
  CepEngine engine(&registry_);
  ASSERT_TRUE(engine.AddQueryText(kQueueQuery, "Q").ok());
  std::vector<MatchNotification> notes;
  const std::vector<QueryId> subscribed = {0};
  auto record = [&](const MatchNotification& n) { notes.push_back(n); };
  ASSERT_TRUE(engine.SetMatchCallback(subscribed, record).ok());
  engine.OnEvent(Start(0, "j1"));
  auto late = engine.AddQueryText(kQueueQuery, "late");
  ASSERT_TRUE(late.ok());
  engine.OnEvent(Start(1, "j2"));
  engine.OnEvent(Io(2, "j2", 1));
  engine.OnEvent(End(3, "j2"));
  EXPECT_EQ(engine.match_table(*late).NumRows("j2"), 1u);  // evaluated...
  EXPECT_EQ(NotifiedQueries(notes), (std::vector<QueryId>{0, 0}));  // ...not notified
}

TEST_F(CepEngineTest, AllQueriesCallbackCoversLaterQueries) {
  CepEngine engine(&registry_);
  ASSERT_TRUE(engine.AddQueryText(kQueueQuery, "Q").ok());
  std::vector<MatchNotification> notes;
  engine.SetMatchCallback([&](const MatchNotification& n) { notes.push_back(n); });
  engine.OnEvent(Start(0, "j1"));
  ASSERT_TRUE(engine.AddQueryText(kQueueQuery, "late").ok());
  engine.OnEvent(Start(1, "j2"));
  engine.OnEvent(Io(2, "j2", 1));
  engine.OnEvent(End(3, "j2"));
  // Row then completion, for each query in id order.
  EXPECT_EQ(NotifiedQueries(notes), (std::vector<QueryId>{0, 1, 0, 1}));
}

TEST_F(CepEngineTest, SubscriptionSurvivesRestoreState) {
  // The saving engine adds R mid-stream, so the restoring engine (every
  // query added up front) must rebuild its merge plan on restore.
  const std::vector<Event> head = {Start(0, "j1"), Io(1, "j1", 2)};
  const std::vector<Event> middle = {Start(2, "j2"), Io(3, "j2", 5)};
  const std::vector<Event> tail = {Io(4, "j1", 1), Io(5, "j2", 1), End(6, "j1"),
                                   End(7, "j2")};
  CepEngine live(&registry_);
  ASSERT_TRUE(live.AddQueryText(kQueueQuery, "Q").ok());
  live.IngestBatch(head);
  ASSERT_TRUE(live.AddQueryText(kQueueQuery, "R").ok());
  live.IngestBatch(middle);
  const std::string snapshot = Snapshot(live);
  std::vector<MatchNotification> want;
  live.SetMatchCallback([&](const MatchNotification& n) {
    if (n.query == 1) want.push_back(n);
  });
  live.IngestBatch(tail);

  CepEngine restored(&registry_);
  ASSERT_TRUE(restored.AddQueryText(kQueueQuery, "Q").ok());
  ASSERT_TRUE(restored.AddQueryText(kQueueQuery, "R").ok());
  std::vector<MatchNotification> got;
  const std::vector<QueryId> subscribed = {1};
  auto record = [&](const MatchNotification& n) { got.push_back(n); };
  ASSERT_TRUE(restored.SetMatchCallback(subscribed, record).ok());
  BytesReader reader(snapshot);
  ASSERT_TRUE(restored.RestoreState(&reader).ok());
  restored.IngestBatch(tail);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), 2u);  // R never saw j1 start: j2's row and completion
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].query, 1u);
    EXPECT_EQ(got[i].partition, want[i].partition);
    EXPECT_EQ(got[i].row.ts, want[i].row.ts);
    EXPECT_EQ(got[i].row.values, want[i].row.values);
    EXPECT_EQ(got[i].complete, want[i].complete);
  }
  EXPECT_EQ(Snapshot(restored), Snapshot(live));
}

TEST_F(CepEngineTest, CompileErrors) {
  CepEngine engine(&registry_);
  // Unknown event type.
  EXPECT_FALSE(engine.AddQueryText("PATTERN SEQ(Nope a)", "Q").ok());
  // Unknown attribute.
  EXPECT_FALSE(
      engine.AddQueryText("PATTERN SEQ(JobStart a) RETURN (a.nope)", "Q").ok());
  // Partition attribute missing from a component's schema.
  EXPECT_FALSE(
      engine.AddQueryText("PATTERN SEQ(JobStart a, JobEnd b) WHERE [node]", "Q")
          .ok());
  // Aggregate over a non-kleene variable.
  EXPECT_FALSE(engine
                   .AddQueryText(
                       "PATTERN SEQ(JobStart a, JobEnd b) RETURN (sum(a.node))", "Q")
                   .ok());
  // rhs referencing a later variable.
  EXPECT_FALSE(engine
                   .AddQueryText(
                       "PATTERN SEQ(JobStart a, JobEnd b) WHERE a.jobId = b.jobId",
                       "Q")
                   .ok());
}

TEST_F(CepEngineTest, QueryIdByName) {
  CepEngine engine(&registry_);
  ASSERT_TRUE(engine.AddQueryText(kQueueQuery, "alpha").ok());
  ASSERT_TRUE(engine.AddQueryText(kQueueQuery, "beta").ok());
  EXPECT_EQ(*engine.QueryIdByName("beta"), 1u);
  EXPECT_TRUE(engine.QueryIdByName("gamma").status().IsNotFound());
  EXPECT_EQ(engine.num_queries(), 2u);
}

TEST_F(CepEngineTest, MatchTableSeriesExtraction) {
  CepEngine engine(&registry_);
  auto qid = engine.AddQueryText(kQueueQuery, "Q");
  ASSERT_TRUE(qid.ok());
  engine.OnEvent(Start(0, "j1"));
  for (Timestamp t = 1; t <= 5; ++t) engine.OnEvent(Io(t, "j1", 2));
  engine.OnEvent(End(6, "j1"));
  auto series = engine.match_table(*qid).ExtractSeries("j1", "sum_size");
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->size(), 5u);
  EXPECT_DOUBLE_EQ(series->value(4), 10.0);
  EXPECT_FALSE(engine.match_table(*qid).ExtractSeries("j1", "nope").ok());
  EXPECT_FALSE(engine.match_table(*qid).ExtractSeries("nope", "sum_size").ok());
}

// One handcrafted MatchTable::SaveState bucket record: `n_cells` cells,
// row offsets `ends`.
void PutBucket(BytesWriter* w, const std::string& key,
               const std::vector<Timestamp>& ts, uint32_t n_cells,
               const std::vector<uint32_t>& ends) {
  w->PutString(key);
  w->Put<uint8_t>(0);
  w->PutPodVector(ts);
  w->Put<uint32_t>(n_cells);
  for (uint32_t c = 0; c < n_cells; ++c) PutValue(w, Value(1.0));
  w->PutPodVector(ends);
}

Status RestoreTable(const std::string& bytes) {
  MatchTable table({"v"});
  BytesReader reader(bytes);
  return table.RestoreState(&reader);
}

TEST(MatchTableSnapshotTest, WellFramedBucketsRestore) {
  BytesWriter w;
  w.Put<uint32_t>(2);
  PutBucket(&w, "p", {1, 2}, 2, {1, 2});
  PutBucket(&w, "q", {}, 0, {});
  MatchTable table({"v"});
  BytesReader reader(w.str());
  ASSERT_TRUE(table.RestoreState(&reader).ok());
  EXPECT_EQ(table.NumRows("p"), 2u);
  EXPECT_EQ(table.BucketKeys(), (std::vector<std::string>{"p", "q"}));
}

TEST(MatchTableSnapshotTest, MalformedBucketsAreCorrupt) {
  // Each would restore a bucket that Rows(), ExtractSeries() or Append()
  // index out of bounds, or a second bucket the key index cannot reach.
  struct Case {
    const char* label;
    std::vector<Timestamp> ts;
    uint32_t n_cells;
    std::vector<uint32_t> ends;
  };
  const std::vector<Case> cases = {
      {"fewer ends than rows", {1, 2}, 2, {2}},
      {"more ends than rows", {1}, 1, {1, 1}},
      {"decreasing ends", {1, 2, 3}, 3, {2, 1, 3}},
      {"last end short of the cells", {1}, 2, {1}},
      {"end past the cells", {1}, 1, {5}},
      {"cells without rows", {}, 1, {}},
  };
  for (const Case& c : cases) {
    BytesWriter w;
    w.Put<uint32_t>(1);
    PutBucket(&w, "p", c.ts, c.n_cells, c.ends);
    const Status st = RestoreTable(w.str());
    EXPECT_TRUE(st.IsCorruption()) << c.label << ": " << st.ToString();
  }
  BytesWriter dup;
  dup.Put<uint32_t>(2);
  PutBucket(&dup, "p", {1}, 1, {1});
  PutBucket(&dup, "p", {2}, 1, {1});
  const Status st = RestoreTable(dup.str());
  EXPECT_TRUE(st.IsCorruption()) << "duplicate key: " << st.ToString();
}

TEST(MatchTableSnapshotTest, HugeCellCountFailsWithoutAllocating) {
  // A cell count far beyond the bytes left must not size a reservation.
  BytesWriter w;
  w.Put<uint32_t>(1);
  w.PutString("p");
  w.Put<uint8_t>(0);
  w.PutPodVector(std::vector<Timestamp>{1});
  w.Put<uint32_t>(0xFFFFFFFFu);
  PutValue(&w, Value(1.0));
  EXPECT_FALSE(RestoreTable(w.str()).ok());
}

}  // namespace
}  // namespace exstream
