#include "archive/archive.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "archive/serialization.h"
#include "archive/tiers.h"
#include "common/rng.h"

namespace exstream {
namespace {

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.Register(EventSchema("A", {{"x", ValueType::kDouble}})).ok());
    ASSERT_TRUE(registry_.Register(EventSchema("B", {{"y", ValueType::kInt64}})).ok());
  }

  Event MakeA(Timestamp ts, double x) { return Event(0, ts, {Value(x)}); }
  Event MakeB(Timestamp ts, int64_t y) { return Event(1, ts, {Value(y)}); }

  EventTypeRegistry registry_;
};

TEST_F(ArchiveTest, AppendAndScan) {
  EventArchive archive(&registry_);
  for (Timestamp t = 0; t < 100; ++t) {
    ASSERT_TRUE(archive.Append(MakeA(t, t * 1.0)).ok());
  }
  auto events = archive.Scan(0, {10, 19});
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 10u);
  EXPECT_EQ((*events)[0].ts, 10);
  EXPECT_EQ((*events)[9].ts, 19);
}

TEST_F(ArchiveTest, ScanRespectsType) {
  EventArchive archive(&registry_);
  ASSERT_TRUE(archive.Append(MakeA(1, 1)).ok());
  ASSERT_TRUE(archive.Append(MakeB(1, 2)).ok());
  auto a = archive.Scan(0, {0, 10});
  auto b = archive.Scan(1, {0, 10});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->size(), 1u);
  EXPECT_EQ(b->size(), 1u);
  EXPECT_EQ((*b)[0].values[0].AsInt64(), 2);
}

TEST_F(ArchiveTest, ChunkBoundaries) {
  ArchiveOptions options;
  options.chunk_capacity = 16;
  EventArchive archive(&registry_, options);
  for (Timestamp t = 0; t < 100; ++t) {
    ASSERT_TRUE(archive.Append(MakeA(t, 0)).ok());
  }
  EXPECT_EQ(archive.CountEvents(0), 100u);
  EXPECT_EQ(archive.NumChunks(0), 100u / 16 + 1);
  // A scan crossing several chunk boundaries returns all matching events.
  auto events = archive.Scan(0, {10, 60});
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 51u);
}

TEST_F(ArchiveTest, OutOfOrderEventCountsAsError) {
  EventArchive archive(&registry_);
  ASSERT_TRUE(archive.Append(MakeA(10, 0)).ok());
  EXPECT_FALSE(archive.Append(MakeA(5, 0)).ok());
  archive.OnEvent(MakeA(3, 0));  // swallowed, counted
  EXPECT_EQ(archive.append_errors(), 1u);
}

TEST_F(ArchiveTest, UnknownTypeRejected) {
  EventArchive archive(&registry_);
  Event bogus(57, 0, {});
  EXPECT_FALSE(archive.Append(bogus).ok());
  EXPECT_FALSE(archive.Scan(57, {0, 1}).ok());
}

TEST_F(ArchiveTest, ScanAllGroupsByType) {
  EventArchive archive(&registry_);
  ASSERT_TRUE(archive.Append(MakeA(1, 0)).ok());
  ASSERT_TRUE(archive.Append(MakeB(2, 0)).ok());
  auto all = archive.ScanAll({0, 10});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].type, 0u);
  EXPECT_EQ((*all)[0].events.size(), 1u);
  EXPECT_EQ((*all)[1].type, 1u);
  EXPECT_EQ((*all)[1].events.size(), 1u);
  EXPECT_EQ(archive.TotalEvents(), 2u);
}

TEST_F(ArchiveTest, ScanAllSkipsTypesWithNoInRangeEvents) {
  EventArchive archive(&registry_);
  ASSERT_TRUE(archive.Append(MakeA(1, 0)).ok());
  ASSERT_TRUE(archive.Append(MakeB(50, 0)).ok());
  // B's only event is outside the interval: no placeholder entry for it.
  auto all = archive.ScanAll({0, 10});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].type, 0u);
  // An interval matching nothing yields an empty result, not empty groups.
  auto none = archive.ScanAll({100, 200});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(ArchiveTest, ScanColumnsMatchesRowScan) {
  ArchiveOptions options;
  options.chunk_capacity = 8;  // force several sealed chunks plus an open tail
  EventArchive archive(&registry_, options);
  for (Timestamp t = 0; t < 43; ++t) {
    ASSERT_TRUE(archive.Append(MakeA(t, t * 2.0)).ok());
  }
  auto view = archive.ScanColumns(0, {4, 20});
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->rows(), 17u);
  ASSERT_FALSE(view->segments.empty());
  // Timestamps across segments concatenate in time order, and the numeric
  // column carries the attribute values.
  Timestamp prev = -1;
  for (const auto& seg : view->segments) {
    for (size_t i = seg.begin; i < seg.end; ++i) {
      const Timestamp ts = seg.columns->ts()[i];
      EXPECT_GE(ts, prev);
      prev = ts;
      EXPECT_DOUBLE_EQ(seg.columns->attr(0).nums[i], ts * 2.0);
    }
  }
  // Materializing the view reproduces the row Scan exactly.
  std::vector<Event> rows;
  rows.reserve(view->rows());
  view->MaterializeEvents(&rows);
  auto scanned = archive.Scan(0, {4, 20});
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(rows.size(), scanned->size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].ts, (*scanned)[i].ts);
    ASSERT_EQ(rows[i].values.size(), (*scanned)[i].values.size());
    EXPECT_DOUBLE_EQ(rows[i].values[0].AsDouble(), (*scanned)[i].values[0].AsDouble());
  }
}

TEST_F(ArchiveTest, SpillToDiskAndReload) {
  char tmpl[] = "/tmp/exstream_spill_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  ArchiveOptions options;
  options.chunk_capacity = 8;
  options.spill_dir = std::string(tmpl);
  options.max_resident_chunks = 2;
  EventArchive archive(&registry_, options);
  for (Timestamp t = 0; t < 200; ++t) {
    ASSERT_TRUE(archive.Append(MakeA(t, t * 0.5)).ok());
  }
  // Scans transparently reload spilled chunks.
  auto events = archive.Scan(0, {0, 199});
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 200u);
  EXPECT_DOUBLE_EQ((*events)[100].values[0].AsDouble(), 50.0);
}

TEST(SerializationTest, RoundTripAllTypes) {
  std::vector<Event> events;
  events.emplace_back(0, 10,
                      std::vector<Value>{Value(int64_t{-3}), Value(2.75),
                                         Value("hello world")});
  events.emplace_back(5, 20, std::vector<Value>{});
  const std::string data = SerializeEvents(events);
  auto parsed = DeserializeEvents(data);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].type, 0u);
  EXPECT_EQ((*parsed)[0].ts, 10);
  EXPECT_EQ((*parsed)[0].values[0].AsInt64(), -3);
  EXPECT_DOUBLE_EQ((*parsed)[0].values[1].AsDouble(), 2.75);
  EXPECT_EQ((*parsed)[0].values[2].AsString(), "hello world");
  EXPECT_EQ((*parsed)[1].type, 5u);
  EXPECT_TRUE((*parsed)[1].values.empty());
}

TEST(SerializationTest, CorruptionDetected) {
  std::vector<Event> events;
  events.emplace_back(0, 1, std::vector<Value>{Value(1.0)});
  std::string data = SerializeEvents(events);
  // Bad magic.
  std::string bad_magic = data;
  bad_magic[0] = 'x';
  EXPECT_FALSE(DeserializeEvents(bad_magic).ok());
  // Truncation.
  EXPECT_FALSE(DeserializeEvents(std::string_view(data).substr(0, data.size() - 3)).ok());
  // Trailing garbage.
  EXPECT_FALSE(DeserializeEvents(data + "zz").ok());
}

TEST(SerializationTest, FileRoundTrip) {
  char tmpl[] = "/tmp/exstream_file_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/events.bin";
  std::vector<Event> events;
  Rng rng(9);
  for (Timestamp t = 0; t < 64; ++t) {
    events.emplace_back(0, t, std::vector<Value>{Value(rng.Gaussian(0, 1))});
  }
  ASSERT_TRUE(WriteEventsFile(path, events).ok());
  auto loaded = ReadEventsFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 64u);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ((*loaded)[i].values[0].AsDouble(),
                     events[i].values[0].AsDouble());
  }
}

TEST(SerializationTest, MissingFileErrors) {
  EXPECT_TRUE(ReadEventsFile("/nonexistent/path.bin").status().IsIOError());
}

// One same-type event run with every value kind, the shape a chunk spill has.
std::vector<Event> ChunkLikeEvents() {
  std::vector<Event> events;
  for (Timestamp t = 0; t < 32; ++t) {
    events.emplace_back(
        3, t,
        std::vector<Value>{Value(t * 0.5), Value(int64_t{100 - t}),
                           Value(std::string(t % 2 ? "odd" : "even"))});
  }
  return events;
}

TEST(SerializationTest, SingleTypeBuffersRoundTripAsColumns) {
  const std::vector<Event> events = ChunkLikeEvents();
  const std::string data = SerializeEvents(events);
  auto parsed = DeserializeEvents(data);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ((*parsed)[i].type, events[i].type);
    EXPECT_EQ((*parsed)[i].ts, events[i].ts);
    ASSERT_EQ((*parsed)[i].values.size(), 3u);
    EXPECT_DOUBLE_EQ((*parsed)[i].values[0].AsDouble(),
                     events[i].values[0].AsDouble());
    EXPECT_EQ((*parsed)[i].values[1].AsInt64(), events[i].values[1].AsInt64());
    EXPECT_EQ((*parsed)[i].values[2].AsString(), events[i].values[2].AsString());
  }
  // The same buffer parses straight into columns.
  auto cols = DeserializeColumns(data);
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  EXPECT_EQ(cols->rows(), events.size());
  EXPECT_EQ(cols->type(), 3u);
  ASSERT_EQ(cols->num_columns(), 3u);
  EXPECT_DOUBLE_EQ(cols->attr(0).nums[4], 2.0);
}

TEST(SerializationTest, ColumnsFileRoundTrips) {
  char tmpl[] = "/tmp/exstream_file_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/chunk.bin";
  const std::vector<Event> events = ChunkLikeEvents();
  ASSERT_TRUE(WriteEventsFile(path, events).ok());
  auto cols = ReadColumnsFile(path);
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  EXPECT_EQ(cols->rows(), events.size());
  std::vector<Event> rows;
  cols->MaterializeRows(0, cols->rows(), &rows);
  ASSERT_EQ(rows.size(), events.size());
  EXPECT_EQ(rows[7].values[2].AsString(), "odd");
}

// The codec reads v4 columns and v2 rows only; a buffer in a retired layout
// (EXS1 rows without a checksum, EXS3 uncompressed columns) is rejected, and
// the error names the magic.
TEST(SerializationTest, RetiredFormatsAreRejected) {
  for (const auto& [magic, name] :
       {std::pair<uint32_t, const char*>{0x45585331u, "EXS1"},
        std::pair<uint32_t, const char*>{0x45585333u, "EXS3"}}) {
    SCOPED_TRACE(name);
    std::string data(64, '\0');
    std::memcpy(data.data(), &magic, sizeof(magic));
    for (const Status& st :
         {DeserializeEvents(data).status(), DeserializeColumns(data).status()}) {
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      EXPECT_NE(st.message().find(name), std::string::npos) << st.ToString();
    }
  }
}

TEST(SerializationTest, MixedTypeBuffersFallBackToRows) {
  std::vector<Event> mixed;
  mixed.emplace_back(0, 1, std::vector<Value>{Value(1.0)});
  mixed.emplace_back(1, 2, std::vector<Value>{Value(int64_t{7})});
  // Columnar chunks are single-type by construction, so a mixed-type buffer
  // is written in the v2 row layout; rows still round-trip.
  const std::string data = SerializeEvents(mixed);
  auto parsed = DeserializeEvents(data);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1].type, 1u);
  // A row buffer is not a chunk's columns.
  EXPECT_TRUE(DeserializeColumns(data).status().IsCorruption());
}

TEST(SerializationTest, V4CompressesBelowRawColumns) {
  // A chunk-sized run with the value mix spills actually carry: slowly
  // drifting doubles, small ints, and a low-cardinality string column.
  std::vector<Event> events;
  Rng rng(17);
  double level = 40.0;
  for (Timestamp t = 0; t < 2048; ++t) {
    level += rng.Gaussian(0.0, 0.5);
    events.emplace_back(
        2, t,
        std::vector<Value>{Value(level), Value(int64_t{t % 16}),
                           Value(std::string(t % 3 ? "ok" : "slow"))});
  }
  // Uncompressed columns: a raw i64 ts, f64, i64 and u32 string id per row.
  const size_t raw = events.size() * (sizeof(Timestamp) + sizeof(double) +
                                      sizeof(int64_t) + sizeof(uint32_t));
  const std::string v4 = SerializeEvents(events);
  EXPECT_LT(v4.size(), raw / 2) << "v4=" << v4.size() << " raw=" << raw;
  auto parsed = DeserializeColumns(v4);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->rows(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed->ts()[i], events[i].ts);
    // Bitwise: the compressed double codec must be lossless.
    EXPECT_EQ(parsed->attr(0).nums[i], events[i].values[0].AsDouble());
  }
}

TEST(SerializationTest, V4CorruptedColumnIsPinpointed) {
  const std::string data = SerializeEvents(ChunkLikeEvents());
  // Flip one bit in the last column's compressed payload: the per-block CRC
  // must catch it and name the column, never crash or misdecode.
  std::string bad = data;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x40);
  const Status st = DeserializeEvents(bad).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("column"), std::string::npos) << st.ToString();
}

// ---- Storage tiers ---------------------------------------------------------

class TierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_.Register(EventSchema("A", {{"x", ValueType::kDouble}})).ok());
  }

  Event MakeA(Timestamp ts, double x) { return Event(0, ts, {Value(x)}); }

  EventTypeRegistry registry_;
};

TEST_F(TierTest, BuildSelectAndWindowRange) {
  ChunkColumns cols(0, &registry_.schema(0));
  for (Timestamp t = 0; t < 16; ++t) {
    cols.AppendEvent(MakeA(t, static_cast<double>(t)));
  }
  const ChunkTiers tiers = BuildChunkTiers(cols, {4, 8});
  ASSERT_EQ(tiers.size(), 2u);
  EXPECT_EQ(tiers[0].window, 4);
  EXPECT_EQ(tiers[1].window, 8);
  // Rows 0..15 at window 4: ends 4, 8, 12, 16.
  ASSERT_EQ(tiers[0].windows(), 4u);
  EXPECT_EQ(tiers[0].ts.front(), 4);
  EXPECT_EQ(tiers[0].ts.back(), 16);
  ASSERT_EQ(tiers[0].attrs.size(), 1u);
  EXPECT_EQ(tiers[0].attrs[0].count[0], 4u);
  EXPECT_DOUBLE_EQ(tiers[0].attrs[0].sum[0], 0 + 1 + 2 + 3);
  EXPECT_DOUBLE_EQ(tiers[0].attrs[0].min[0], 0.0);
  EXPECT_DOUBLE_EQ(tiers[0].attrs[0].max[0], 3.0);
  // Tier selection: the coarsest tier whose window divides the resolution.
  EXPECT_EQ(SelectTier(tiers, 8), 1);
  EXPECT_EQ(SelectTier(tiers, 4), 0);
  EXPECT_EQ(SelectTier(tiers, 12), 0);  // 8 does not divide 12, 4 does
  EXPECT_EQ(SelectTier(tiers, 6), -1);
  EXPECT_EQ(SelectTier(tiers, 0), -1);
  // Window range: [5, 9] intersects windows ending at 8 and 12.
  const auto range = tiers[0].WindowRange({5, 9});
  EXPECT_EQ(range.first, 1u);
  EXPECT_EQ(range.second, 3u);
}

TEST_F(TierTest, SidecarRoundTripAndCorruptionDetected) {
  ChunkColumns cols(0, &registry_.schema(0));
  for (Timestamp t = 0; t < 64; ++t) {
    cols.AppendEvent(MakeA(t * 3, t * 0.25));
  }
  const ChunkTiers tiers = BuildChunkTiers(cols, {10});
  const std::string data = SerializeTiers(tiers, 0);
  auto parsed = DeserializeTiers(data, 0);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), tiers.size());
  EXPECT_EQ((*parsed)[0].ts, tiers[0].ts);
  EXPECT_EQ((*parsed)[0].attrs[0].count, tiers[0].attrs[0].count);
  EXPECT_EQ((*parsed)[0].attrs[0].sum, tiers[0].attrs[0].sum);
  // Wrong event type: the sidecar is rejected, not silently adopted.
  EXPECT_FALSE(DeserializeTiers(data, 9).ok());
  // Bit flip in the tier block: CRC failure, not a crash.
  std::string bad = data;
  bad[bad.size() - 2] = static_cast<char>(bad[bad.size() - 2] ^ 0x10);
  EXPECT_FALSE(DeserializeTiers(bad, 0).ok());
  // File round trip.
  char tmpl[] = "/tmp/exstream_tiers_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string path = TiersSidecarPath(std::string(tmpl) + "/c0.bin");
  ASSERT_TRUE(WriteTiersFile(path, tiers, 0).ok());
  auto loaded = ReadTiersFile(path, 0);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)[0].ts, tiers[0].ts);
}

TEST_F(TierTest, ScanColumnsServesTiersAtResolution) {
  ArchiveOptions options;
  options.chunk_capacity = 8;
  options.tier_windows = {4};
  EventArchive archive(&registry_, options);
  for (Timestamp t = 0; t < 40; ++t) {
    ASSERT_TRUE(archive.Append(MakeA(t, static_cast<double>(t))).ok());
  }
  // Exact scan: raw rows only, no tier segments.
  auto exact = archive.ScanColumns(0, {0, 39});
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->rows(), 40u);
  EXPECT_TRUE(exact->tier_segments.empty());
  // Resolution 4: sealed chunks answer from their 4 s tier; only the open
  // tail contributes raw rows.
  auto tiered = archive.ScanColumns(0, {0, 39}, nullptr, nullptr, 4);
  ASSERT_TRUE(tiered.ok());
  EXPECT_FALSE(tiered->tier_segments.empty());
  EXPECT_GT(archive.tier_segments_served(), 0u);
  size_t tier_rows = 0;
  double tier_sum = 0.0;
  for (const auto& seg : tiered->tier_segments) {
    for (size_t i = seg.begin; i < seg.end; ++i) {
      tier_rows += seg.tier->attrs[0].count[i];
      tier_sum += seg.tier->attrs[0].sum[i];
    }
  }
  size_t raw_rows = tiered->rows();
  double raw_sum = 0.0;
  for (const auto& seg : tiered->segments) {
    for (size_t i = seg.begin; i < seg.end; ++i) {
      raw_sum += seg.columns->attr(0).nums[i];
    }
  }
  // Tier aggregates plus the raw tail cover exactly the 40 appended rows.
  EXPECT_EQ(tier_rows + raw_rows, 40u);
  EXPECT_DOUBLE_EQ(tier_sum + raw_sum, 39.0 * 40.0 / 2.0);
  // Resolution 6 matches no tier: identical to the exact scan.
  auto mismatched = archive.ScanColumns(0, {0, 39}, nullptr, nullptr, 6);
  ASSERT_TRUE(mismatched.ok());
  EXPECT_TRUE(mismatched->tier_segments.empty());
  EXPECT_EQ(mismatched->rows(), 40u);
}

TEST_F(TierTest, Tier0RetentionEvictsRawButKeepsTiers) {
  char tmpl[] = "/tmp/exstream_tier0_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  ArchiveOptions options;
  options.chunk_capacity = 8;
  options.spill_dir = std::string(tmpl);
  options.max_resident_chunks = 1;
  options.tier_windows = {4};
  options.tier0_retention_chunks = 1;
  EventArchive archive(&registry_, options);
  for (Timestamp t = 0; t < 80; ++t) {
    ASSERT_TRUE(archive.Append(MakeA(t, 1.0)).ok());
  }
  EXPECT_GT(archive.tier0_evictions(), 0u);

  // An exact scan refuses to silently substitute tier aggregates for the
  // evicted raw rows: it degrades, names the loss, and returns what is left.
  DegradationReport degradation;
  auto exact = archive.Scan(0, {0, 79}, &degradation);
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(exact->size(), 80u);
  EXPECT_TRUE(degradation.degraded());
  EXPECT_GT(degradation.resolution_degraded, 0u);
  EXPECT_GT(degradation.events_lost_estimate, 0u);
  EXPECT_NE(degradation.ToString().find("resolution-degraded"),
            std::string::npos);

  // A resolution-aligned scan is answered from the surviving tiers with no
  // degradation: every appended row is still accounted for.
  DegradationReport tiered_degradation;
  auto tiered =
      archive.ScanColumns(0, {0, 79}, &tiered_degradation, nullptr, 4);
  ASSERT_TRUE(tiered.ok());
  EXPECT_FALSE(tiered_degradation.degraded());
  size_t covered = tiered->rows();
  for (const auto& seg : tiered->tier_segments) {
    for (size_t i = seg.begin; i < seg.end; ++i) {
      covered += seg.tier->attrs[0].count[i];
    }
  }
  EXPECT_EQ(covered, 80u);
}

}  // namespace
}  // namespace exstream
