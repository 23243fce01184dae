// Differential tests of CepEngine against the per-query reference oracle
// (tests/cep_oracle.h).
//
// Contract under test (see cep/engine.h): for ANY batch split — per-event
// OnEvent and batches of one included — the engine's MatchTables and match
// callback sequence equal the oracle's, which evaluates every query on its
// own, one QueryRun per partition, event by event; the engine's SaveState
// bytes are the same for every split.
//
// Two families:
//  * fixed streams with adversarial partition-key skew — one hot key (every
//    event in the same partition) and all-unique keys (every completion is a
//    fresh partition: maximal interner churn) — plus a random mixed stream;
//  * a property test over seeded random query sets (Kleene+, negation,
//    WITHIN, predicates, string/int/absent partition attributes, replicas and
//    residue-mates that merge, a mid-stream AddQuery) fed with random batch
//    splits, which also restores the engine's own snapshot into a fresh
//    engine and checks that it continues exactly like the oracle; and engines
//    subscribed to a random subset of the queries (live and restored) deliver
//    exactly the oracle's notes for that subset.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "cep_compare.h"
#include "cep_oracle.h"
#include "common/rng.h"
#include "common/strings.h"

namespace exstream {
namespace {

constexpr char kQuery[] =
    "PATTERN SEQ(Start a, Tick+ b[], End c) WHERE [job] "
    "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))";

class IngestDifferentialTest : public ::testing::Test {
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

  // Random interleaving over `num_jobs` partitions (the stress-test stream).
  std::vector<Event> MixedStream(uint64_t seed, int num_jobs, int num_events) {
    Rng rng(seed);
    std::vector<Event> events;
    Timestamp ts = 0;
    std::vector<int> phase(static_cast<size_t>(num_jobs), 0);
    for (int i = 0; i < num_events; ++i) {
      ts += rng.UniformInt(1, 3);
      const int j = static_cast<int>(rng.UniformInt(0, num_jobs - 1));
      const std::string job = StrFormat("job-%d", j);
      auto& p = phase[static_cast<size_t>(j)];
      const int64_t kind = rng.UniformInt(0, 5);
      if (p == 0 && kind == 0) {
        events.emplace_back(0, ts, MakeValues(job));
        p = 1;
      } else if (p == 1 && kind == 5) {
        events.emplace_back(2, ts, MakeValues(job));
        p = 0;
      } else {
        events.emplace_back(1, ts, MakeValues(job, rng.Gaussian(5, 2)));
      }
    }
    return events;
  }

  // One hot key: every event belongs to the same partition.
  std::vector<Event> HotKeyStream(int num_events) {
    std::vector<Event> events;
    Timestamp ts = 0;
    const std::string job = "the-one-job";
    int phase = 0;
    for (int i = 0; i < num_events; ++i) {
      ++ts;
      if (phase == 0) {
        events.emplace_back(0, ts, MakeValues(job));
        phase = 1;
      } else if (phase > 8) {
        events.emplace_back(2, ts, MakeValues(job));
        phase = 0;
      } else {
        events.emplace_back(1, ts, MakeValues(job, static_cast<double>(i)));
        ++phase;
      }
    }
    return events;
  }

  // All-unique keys: every Start/Tick/End triple is a brand-new partition.
  std::vector<Event> UniqueKeyStream(int num_triples) {
    std::vector<Event> events;
    Timestamp ts = 0;
    for (int i = 0; i < num_triples; ++i) {
      const std::string job = StrFormat("uniq-%d", i);
      events.emplace_back(0, ++ts, MakeValues(job));
      events.emplace_back(1, ++ts, MakeValues(job, static_cast<double>(i)));
      events.emplace_back(2, ++ts, MakeValues(job));
    }
    return events;
  }

  // `queries` through the engine per event and at several batch sizes; every
  // run must equal the oracle's.
  void CheckDifferential(const std::vector<Event>& stream,
                         const std::vector<std::string>& queries,
                         const std::string& stream_label) {
    const CepCapture want = RunOracle(registry_, queries, stream);
    ASSERT_FALSE(want.notes.empty()) << stream_label << ": stream produced no matches";
    for (const size_t batch : {size_t{0}, size_t{1}, size_t{7}, size_t{512}}) {
      ExpectSameCapture(want, RunEngine(registry_, queries, stream, batch),
                        StrFormat("%s batch=%zu", stream_label.c_str(), batch));
    }
  }

  EventTypeRegistry registry_;
};

TEST_F(IngestDifferentialTest, MixedStreamBitIdentical) {
  CheckDifferential(MixedStream(7, 20, 6000), std::vector<std::string>(5, kQuery),
                    "mixed");
}

TEST_F(IngestDifferentialTest, HotKeyBitIdentical) {
  CheckDifferential(HotKeyStream(4000), std::vector<std::string>(5, kQuery), "hot-key");
}

TEST_F(IngestDifferentialTest, UniqueKeysBitIdentical) {
  CheckDifferential(UniqueKeyStream(1500), std::vector<std::string>(5, kQuery),
                    "unique-keys");
}

TEST_F(IngestDifferentialTest, SingleQuery) {
  CheckDifferential(MixedStream(11, 8, 2000), {kQuery}, "single-query");
}

TEST_F(IngestDifferentialTest, UnpartitionedQueryBatched) {
  // A query with no WHERE [key] clause routes through the empty-key path.
  CheckDifferential(HotKeyStream(1200),
                    {"PATTERN SEQ(Start a, Tick+ b[], End c) "
                     "RETURN (b[i].timestamp, a.job, sum(b[1..i].size))"},
                    "unpartitioned");
}

// ---------------------------------------------------------------------------
// Property test: random query sets x random batch splits vs the oracle
// ---------------------------------------------------------------------------

// Event types of the property test; every type carries all three candidate
// partition attributes (two strings, one integer).
enum PropType : EventTypeId { kStart = 0, kTick = 1, kEnd = 2, kAlert = 3 };

void RegisterPropTypes(EventTypeRegistry* registry) {
  const std::vector<AttributeDef> keys = {{"job", ValueType::kString},
                                          {"region", ValueType::kString},
                                          {"node", ValueType::kInt64}};
  auto with = [&](std::vector<AttributeDef> extra) {
    std::vector<AttributeDef> attrs = keys;
    attrs.insert(attrs.end(), extra.begin(), extra.end());
    return attrs;
  };
  ASSERT_TRUE(registry->Register(EventSchema("Start", keys)).ok());
  ASSERT_TRUE(registry->Register(EventSchema("Tick", with({{"size", ValueType::kDouble}}))).ok());
  ASSERT_TRUE(registry->Register(EventSchema("End", keys)).ok());
  ASSERT_TRUE(
      registry->Register(EventSchema("Alert", with({{"level", ValueType::kDouble}}))).ok());
}

std::vector<Event> RandomPropStream(Rng* rng, int num_events) {
  std::vector<Event> events;
  Timestamp ts = 0;
  for (int i = 0; i < num_events; ++i) {
    ts += rng->UniformInt(1, 4);
    const int64_t r = rng->UniformInt(0, 99);
    const EventTypeId type = r < 20 ? kStart : r < 65 ? kTick : r < 85 ? kEnd : kAlert;
    std::vector<Value> values =
        MakeValues(StrFormat("j%d", static_cast<int>(rng->UniformInt(0, 4))),
                   StrFormat("r%d", static_cast<int>(rng->UniformInt(0, 1))),
                   rng->UniformInt(0, 2));
    if (type == kTick || type == kAlert) {
      values.emplace_back(static_cast<double>(rng->UniformInt(0, 20)) / 2.0);
    }
    events.emplace_back(type, ts, std::move(values));
  }
  return events;
}

// A random matching structure: pattern, partition attribute, predicates and
// WITHIN. Queries built from the same head share a merge group unless the
// head is unmergeable (negation).
struct QueryHead {
  int shape = 0;
  std::string text;
};

QueryHead RandomHead(Rng* rng) {
  static const char* const kShapes[] = {
      "SEQ(Start a, Tick+ b[], End c)",          // kleene, streaming-capable
      "SEQ(Start a, Tick+ b[], !Alert x, End c)",  // kleene + negation guard
      "SEQ(Start a, !Alert x, End c)",           // negation, no kleene
      "SEQ(Start a, End c)",                     // plain sequence
      "SEQ(Start a, Tick+ b[])",                 // trailing kleene
      "SEQ(Start a, Tick b, End c)",             // single Tick
  };
  static const char* const kPartitions[] = {"[job]", "[region]", "[node]", ""};
  QueryHead head;
  head.shape = static_cast<int>(rng->UniformInt(0, 5));
  std::vector<std::string> where;
  const std::string partition = kPartitions[rng->UniformInt(0, 3)];
  if (!partition.empty()) where.push_back(partition);
  const bool has_b = head.shape == 0 || head.shape == 1 || head.shape >= 4;
  if (has_b && rng->Chance(0.4)) {
    where.push_back(StrFormat("b.size > %d", static_cast<int>(rng->UniformInt(1, 6))));
  }
  if ((head.shape == 1 || head.shape == 2) && rng->Chance(0.5)) {
    where.push_back("x.level > 5");
  }
  head.text = std::string("PATTERN ") + kShapes[head.shape];
  for (size_t i = 0; i < where.size(); ++i) {
    head.text += (i == 0 ? " WHERE " : " AND ") + where[i];
  }
  if (rng->Chance(0.4)) {
    head.text += StrFormat(" WITHIN %d", static_cast<int>(rng->UniformInt(8, 60)));
  }
  return head;
}

std::string RandomQuery(Rng* rng, const QueryHead& head) {
  static const char* const kKleeneReturns[] = {
      "(b[i].timestamp, a.job, sum(b[1..i].size))",
      "(b[i].timestamp, count(b[1..i].size))",
      "(a.region, max(b[1..i].size), min(b[1..i].size))",
      "(b[i].size, avg(b[1..i].size))",
      "(a.job, a.node)",  // completion-only row on a kleene pattern
  };
  static const char* const kPlainReturns[] = {
      "(a.job, c.timestamp)",
      "(c.region, a.node)",
      "(a.timestamp)",
  };
  std::string ret;
  switch (head.shape) {
    case 0:
    case 1:
      ret = kKleeneReturns[rng->UniformInt(0, 4)];
      break;
    case 4:
      ret = kKleeneReturns[rng->UniformInt(0, 3)];
      break;
    case 5:
      ret = rng->Chance(0.5) ? "(b.size, a.region)" : "(c.timestamp, b.size)";
      break;
    default:
      ret = kPlainReturns[rng->UniformInt(0, 2)];
  }
  return head.text + " RETURN " + ret;
}

// Random batch sizes covering `n` events: many batches of one, small and
// large ones.
std::vector<size_t> RandomSplit(Rng* rng, size_t n) {
  std::vector<size_t> sizes;
  for (size_t done = 0; done < n;) {
    const int64_t kind = rng->UniformInt(0, 3);
    size_t size = kind == 0   ? 1
                  : kind == 1 ? static_cast<size_t>(rng->UniformInt(2, 7))
                  : kind == 2 ? static_cast<size_t>(rng->UniformInt(8, 64))
                              : static_cast<size_t>(rng->UniformInt(65, 400));
    size = std::min(size, n - done);
    sizes.push_back(size);
    done += size;
  }
  return sizes;
}

// Feeds `events` in the given batch sizes; batches of one alternate between
// OnEvent and a one-event IngestBatch.
void IngestSplit(CepEngine* engine, std::span<const Event> events,
                 const std::vector<size_t>& split) {
  size_t at = 0;
  for (const size_t size : split) {
    if (size == 1 && at % 2 == 0) {
      engine->OnEvent(events[at]);
    } else {
      engine->IngestBatch(events.subspan(at, size));
    }
    at += size;
  }
}

// A random subscription over query ids [0, num_ids): sometimes empty,
// otherwise each id with probability 0.4.
std::vector<QueryId> RandomSubscription(Rng* rng, size_t num_ids) {
  std::vector<QueryId> ids;
  if (rng->Chance(0.15)) return ids;
  for (QueryId q = 0; q < num_ids; ++q) {
    if (rng->Chance(0.4)) ids.push_back(q);
  }
  return ids;
}

// The notes of `notes` whose query is in `subscribed`, in order.
std::vector<NoteCopy> FilterNotes(const std::vector<NoteCopy>& notes,
                                  const std::vector<QueryId>& subscribed) {
  std::vector<NoteCopy> out;
  for (const NoteCopy& n : notes) {
    if (std::find(subscribed.begin(), subscribed.end(), n.query) != subscribed.end()) {
      out.push_back(n);
    }
  }
  return out;
}

// Totals over all seeds, so the property test can prove it exercised merging,
// negation, emissions and completions rather than vacuously agreeing.
struct PropCoverage {
  size_t queries = 0;
  size_t groups = 0;
  size_t unmergeable = 0;
  size_t rows = 0;
  size_t completions = 0;
  size_t empty_subscriptions = 0;
  size_t late_subscriptions = 0;
};

void CheckRandomQuerySet(uint64_t seed, PropCoverage* coverage) {
  const std::string label = StrFormat("seed %llu", static_cast<unsigned long long>(seed));
  Rng rng(seed);
  EventTypeRegistry registry;
  RegisterPropTypes(&registry);
  if (::testing::Test::HasFatalFailure()) return;

  std::vector<QueryHead> heads;
  const int num_heads = static_cast<int>(rng.UniformInt(2, 4));
  for (int h = 0; h < num_heads; ++h) heads.push_back(RandomHead(&rng));
  auto pick_query = [&] {
    return RandomQuery(&rng, heads[rng.UniformInt(0, num_heads - 1)]);
  };
  std::vector<std::string> initial;
  const int num_queries = static_cast<int>(rng.UniformInt(3, 10));
  for (int q = 0; q < num_queries; ++q) {
    // Replicas merge into one table class; residue-mates share a group.
    initial.push_back(q > 0 && rng.Chance(0.3) ? initial[rng.UniformInt(0, q - 1)]
                                               : pick_query());
  }
  const std::string late = rng.Chance(0.5) ? initial[0] : pick_query();

  const std::vector<Event> stream =
      RandomPropStream(&rng, static_cast<int>(rng.UniformInt(150, 600)));
  const std::span<const Event> all(stream);
  const size_t cut = static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(stream.size()) - 1));

  // Reference: the oracle, with `late` added mid-stream at `cut`.
  CepCapture want;
  CepCapture want_at_cut;
  CepOracle oracle(&registry);
  AddQueries(&oracle, initial);
  oracle.SetMatchCallback(
      [&want](const MatchNotification& n) { want.notes.push_back(NoteCopy::From(n)); });
  for (const Event& e : all.first(cut)) oracle.OnEvent(e);
  AddQueries(&oracle, {late});
  CaptureState(oracle, &want_at_cut);
  const size_t notes_at_cut = want.notes.size();
  for (const Event& e : all.subspan(cut)) oracle.OnEvent(e);
  CaptureState(oracle, &want);

  // The engine, same schedule, random batch splits on both sides of the cut.
  CepCapture got;
  CepCapture got_at_cut;
  CepEngine engine(&registry);
  AddQueries(&engine, initial);
  engine.SetMatchCallback(
      [&got](const MatchNotification& n) { got.notes.push_back(NoteCopy::From(n)); });
  IngestSplit(&engine, all.first(cut), RandomSplit(&rng, cut));
  AddQueries(&engine, {late});
  CaptureState(engine, &got_at_cut);
  got_at_cut.notes = got.notes;
  want_at_cut.notes.assign(want.notes.begin(), want.notes.begin() + notes_at_cut);
  ExpectSameCapture(want_at_cut, got_at_cut, label + " at the mid-stream AddQuery");
  if (::testing::Test::HasFatalFailure()) return;
  IngestSplit(&engine, all.subspan(cut), RandomSplit(&rng, stream.size() - cut));
  CaptureState(engine, &got);
  ExpectSameCapture(want, got, label);
  coverage->queries += engine.merge_stats().queries;
  coverage->groups += engine.merge_stats().groups;
  coverage->unmergeable += engine.merge_stats().unmergeable;
  for (const NoteCopy& n : got.notes) {
    coverage->rows += n.values.empty() ? 0 : 1;
    coverage->completions += n.complete ? 1 : 0;
  }
  if (::testing::Test::HasFatalFailure()) return;

  // Recovery shape: every query re-added before any event, then the engine's
  // snapshot from the cut restored; the engine must continue exactly like the
  // oracle and re-checkpoint to the uninterrupted engine's bytes.
  CepCapture resumed;
  CepEngine restored(&registry);
  AddQueries(&restored, initial);
  AddQueries(&restored, {late});
  BytesReader reader(got_at_cut.snapshot);
  const Status st = restored.RestoreState(&reader);
  ASSERT_TRUE(st.ok()) << label << ": " << st.ToString();
  BytesWriter resnapshot;
  restored.SaveState(&resnapshot);
  ASSERT_TRUE(resnapshot.str() == got_at_cut.snapshot) << label << ": re-checkpoint";
  restored.SetMatchCallback([&resumed](const MatchNotification& n) {
    resumed.notes.push_back(NoteCopy::From(n));
  });
  IngestSplit(&restored, all.subspan(cut), RandomSplit(&rng, stream.size() - cut));
  CaptureState(restored, &resumed);
  CepCapture want_after_cut = want;
  want_after_cut.notes.erase(want_after_cut.notes.begin(),
                             want_after_cut.notes.begin() + notes_at_cut);
  ExpectSameCapture(want_after_cut, resumed, label + " restored");
  EXPECT_TRUE(resumed.snapshot == got.snapshot) << label << ": restored final snapshot";
  if (::testing::Test::HasFatalFailure()) return;

  // Subscriptions: an engine that names a random subset of the queries sees
  // exactly the oracle's notes for that subset, in the same order, and leaves
  // the same tables and checkpoint bytes as the all-queries engine. A draw
  // from its own generator keeps the splits above unchanged per seed.
  Rng sub_rng(seed ^ 0x5eed5eed5eedULL);
  const QueryId late_id = static_cast<QueryId>(initial.size());
  const std::vector<QueryId> subscribed =
      RandomSubscription(&sub_rng, initial.size() + 1);
  const bool late_subscribed = !subscribed.empty() && subscribed.back() == late_id;
  coverage->empty_subscriptions += subscribed.empty() ? 1 : 0;
  coverage->late_subscriptions += late_subscribed ? 1 : 0;
  auto sub_label = [&](const char* what) {
    std::string ids;
    for (const QueryId q : subscribed) ids += StrFormat(" %u", q);
    return StrFormat("%s %s (subscribed:%s)", label.c_str(), what, ids.c_str());
  };
  CepCapture sub_got;
  auto record = [&sub_got](const MatchNotification& n) {
    sub_got.notes.push_back(NoteCopy::From(n));
  };
  CepEngine sub(&registry);
  AddQueries(&sub, initial);
  if (late_subscribed) {
    // The late query is not registered yet: naming it is refused, and the
    // rest is subscribed until it is.
    EXPECT_TRUE(sub.SetMatchCallback(subscribed, record).IsInvalidArgument())
        << sub_label("early");
    const std::span<const QueryId> early(subscribed.data(), subscribed.size() - 1);
    ASSERT_TRUE(sub.SetMatchCallback(early, record).ok()) << sub_label("early");
  } else {
    ASSERT_TRUE(sub.SetMatchCallback(subscribed, record).ok()) << sub_label("set");
  }
  IngestSplit(&sub, all.first(cut), RandomSplit(&sub_rng, cut));
  AddQueries(&sub, {late});
  if (late_subscribed) {
    ASSERT_TRUE(sub.SetMatchCallback(subscribed, record).ok()) << sub_label("late");
  }
  IngestSplit(&sub, all.subspan(cut), RandomSplit(&sub_rng, stream.size() - cut));
  CaptureState(sub, &sub_got);
  CepCapture sub_want = got;
  sub_want.notes = FilterNotes(want.notes, subscribed);
  ExpectSameCapture(sub_want, sub_got, sub_label("subscribed"));
  if (::testing::Test::HasFatalFailure()) return;

  // The same subscription, installed before RestoreState, survives it.
  CepCapture sub_resumed;
  CepEngine sub_restored(&registry);
  AddQueries(&sub_restored, initial);
  AddQueries(&sub_restored, {late});
  auto record_resumed = [&sub_resumed](const MatchNotification& n) {
    sub_resumed.notes.push_back(NoteCopy::From(n));
  };
  ASSERT_TRUE(sub_restored.SetMatchCallback(subscribed, record_resumed).ok());
  BytesReader sub_reader(got_at_cut.snapshot);
  const Status sub_st = sub_restored.RestoreState(&sub_reader);
  ASSERT_TRUE(sub_st.ok()) << sub_label("restore") << ": " << sub_st.ToString();
  IngestSplit(&sub_restored, all.subspan(cut),
              RandomSplit(&sub_rng, stream.size() - cut));
  CaptureState(sub_restored, &sub_resumed);
  CepCapture sub_want_resumed = resumed;
  sub_want_resumed.notes = FilterNotes(want_after_cut.notes, subscribed);
  ExpectSameCapture(sub_want_resumed, sub_resumed, sub_label("restored subscribed"));
}

TEST(CepOraclePropertyTest, RandomQuerySetsAndSplitsMatchOracle) {
  PropCoverage coverage;
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    CheckRandomQuerySet(seed, &coverage);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Mergeable queries share groups: at most half as many groups as queries.
  EXPECT_LT(2 * (coverage.groups - coverage.unmergeable),
            coverage.queries - coverage.unmergeable);
  EXPECT_GT(coverage.unmergeable, 100u);  // negation singletons
  EXPECT_GT(coverage.rows, 10000u);
  EXPECT_GT(coverage.completions, 1000u);
  EXPECT_GT(coverage.empty_subscriptions, 10u);
  EXPECT_GT(coverage.late_subscriptions, 30u);
}

}  // namespace
}  // namespace exstream
