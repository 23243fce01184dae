#include "archive/archive.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "archive/columns.h"
#include "archive/compress.h"
#include "archive/serialization.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "io/file_util.h"

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

// ---- Shared spill decodes -------------------------------------------------

// Counts spill-file decodes through the read hook: chunks of 8 rows, every
// sealed chunk past the first two on disk, so chunk 0 (ts 0..7) is spilled.
class SharedDecodeTest : public ArchiveTest {
 protected:
  void SetUp() override {
    ArchiveTest::SetUp();
    char tmpl[] = "/tmp/exstream_shared_decode_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    ArchiveOptions options;
    options.chunk_capacity = 8;
    options.spill_dir = std::string(tmpl);
    options.max_resident_chunks = 2;
    options.spill_read_hook_for_testing = [this] { ++decodes_; };
    archive_ = std::make_unique<EventArchive>(&registry_, options);
    for (Timestamp t = 0; t < 200; ++t) {
      ASSERT_TRUE(archive_->Append(MakeA(t, t * 0.5)).ok());
    }
  }

  std::unique_ptr<EventArchive> archive_;
  size_t decodes_ = 0;
};

TEST_F(SharedDecodeTest, ScansShareADecodeWhileAViewIsAlive) {
  auto first = archive_->ScanColumns(0, {0, 7});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->segments.size(), 1u);
  EXPECT_EQ(decodes_, 1u);

  // A narrower scan of the same chunk reuses the live decode: same columns,
  // its own row range, no second file read.
  auto second = archive_->ScanColumns(0, {2, 5});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->segments.size(), 1u);
  EXPECT_EQ(decodes_, 1u);
  EXPECT_EQ(second->segments[0].columns, first->segments[0].columns);
  EXPECT_EQ(second->segments[0].begin, 2u);
  EXPECT_EQ(second->segments[0].end, 6u);
}

TEST_F(SharedDecodeTest, ScanAfterEveryViewIsDroppedDecodesAgain) {
  {
    auto view = archive_->ScanColumns(0, {0, 7});
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    auto again = archive_->ScanColumns(0, {0, 7});
    ASSERT_TRUE(again.ok()) << again.status().ToString();
  }
  EXPECT_EQ(decodes_, 1u);
  // Nothing pins the decode any more: the archive holds only a weak handle,
  // so the memory is gone and the next scan reads the file.
  auto events = archive_->Scan(0, {0, 7});
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events->size(), 8u);
  EXPECT_EQ(decodes_, 2u);
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

// The codec reads one frame layout; a buffer in a retired layout (EXS1 rows
// without a checksum, EXS2 CRC rows, EXS3 uncompressed columns, EXS4
// single-type columns) is rejected, and the error names the magic.
TEST(SerializationTest, RetiredFormatsAreRejected) {
  for (const auto& [magic, name] :
       {std::pair<uint32_t, const char*>{0x45585331u, "EXS1"},
        std::pair<uint32_t, const char*>{0x45585332u, "EXS2"},
        std::pair<uint32_t, const char*>{0x45585333u, "EXS3"},
        std::pair<uint32_t, const char*>{0x45585334u, "EXS4"}}) {
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

TEST(SerializationTest, MixedTypeBuffersRoundTripAsGroups) {
  std::vector<Event> mixed;
  mixed.emplace_back(0, 1, std::vector<Value>{Value(1.0)});
  mixed.emplace_back(1, 2, std::vector<Value>{Value(int64_t{7})});
  // A mixed-type buffer is one column group per type plus the runs that
  // restore the interleaving.
  const std::string data = SerializeEvents(mixed);
  auto parsed = DeserializeEvents(data);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1].type, 1u);
  // Columns hold one type, so a multi-run frame is not a chunk.
  const Status st = DeserializeColumns(data).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("one type"), std::string::npos) << st.ToString();
}

// Bit-exact event equality: doubles compare by their bits (NaN, -0.0).
void ExpectSameEvents(const std::vector<Event>& got, const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].type, want[i].type);
    EXPECT_EQ(got[i].ts, want[i].ts);
    ASSERT_EQ(got[i].values.size(), want[i].values.size());
    for (size_t j = 0; j < want[i].values.size(); ++j) {
      const Value& g = got[i].values[j];
      const Value& w = want[i].values[j];
      ASSERT_EQ(g.type(), w.type());
      switch (w.type()) {
        case ValueType::kInt64:
          EXPECT_EQ(g.AsInt64(), w.AsInt64());
          break;
        case ValueType::kDouble: {
          const double gd = g.AsDouble();
          const double wd = w.AsDouble();
          EXPECT_EQ(std::memcmp(&gd, &wd, sizeof(double)), 0) << gd << " vs " << wd;
          break;
        }
        case ValueType::kString:
          EXPECT_EQ(g.AsString(), w.AsString());
          break;
      }
    }
  }
}

Value RandomValue(Rng& rng) {
  static const double kDoubles[] = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(), 1e300, 0.1, 42.25};
  static const int64_t kInts[] = {0, -1, 1, std::numeric_limits<int64_t>::min(),
                                  std::numeric_limits<int64_t>::max()};
  switch (rng.UniformInt(0, 5)) {
    case 0:
      return Value(kDoubles[rng.UniformInt(0, 8)]);
    case 1:
      return Value(rng.Gaussian(50.0, 20.0));
    case 2:
      return Value(std::round(rng.Uniform(0, 1000)) / 100.0);  // Ganglia-style
    case 3:
      return Value(kInts[rng.UniformInt(0, 4)]);
    case 4:
      return Value(rng.UniformInt(-1000000, 1000000));
    default:
      return Value(std::string(static_cast<size_t>(rng.UniformInt(0, 3)),
                               static_cast<char>('a' + rng.UniformInt(0, 2))));
  }
}

// Property: every batch round-trips bit-exactly through one frame — runs of
// one, a single type, empty batches, events missing trailing values, every
// value kind, NaN and signed zeros, non-monotone and extreme ts within a type.
TEST(SerializationTest, RandomBatchesRoundTripBitExactly) {
  const EventTypeId kTypes[] = {0, 1, 2, 7, 1000, 0xFFFFFFFEu};
  size_t runs_of_one = 0, single_type = 0, empty = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    // A uniform index in [lo, hi].
    auto pick = [&rng](size_t lo, size_t hi) {
      return static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
    };
    const size_t shape = pick(0, 3);  // 0: one type, 1: runs of one, else random
    const size_t n = seed % 25 == 0 ? 0 : pick(1, 300);
    const size_t n_types = shape == 0 ? 1 : pick(2, 6);
    std::vector<size_t> width(n_types);
    for (size_t& w : width) w = pick(0, 5);
    std::vector<Event> batch;
    size_t t = pick(0, n_types - 1);
    for (size_t i = 0; i < n; ++i) {
      if (shape == 1) {
        t = (t + pick(1, n_types - 1)) % n_types;
      } else if (shape >= 2 && pick(0, 3) == 0) {
        t = pick(0, n_types - 1);
      }
      Event e;
      e.type = kTypes[t];
      e.ts = pick(0, 15) == 0 ? (pick(0, 1) ? std::numeric_limits<int64_t>::max()
                                            : std::numeric_limits<int64_t>::min())
                              : rng.UniformInt(-(int64_t{1} << 40), int64_t{1} << 40);
      const size_t nvals = pick(0, width[t]);
      for (size_t j = 0; j < nvals; ++j) e.values.push_back(RandomValue(rng));
      batch.push_back(std::move(e));
    }
    empty += batch.empty();
    single_type += shape == 0 && !batch.empty();
    runs_of_one += shape == 1 && batch.size() > 1;

    const std::string data = SerializeEvents(batch);
    auto parsed = DeserializeEvents(data);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectSameEvents(*parsed, batch);
    // A single-type frame also reads as columns, and a chunk's frame
    // (SerializeColumns) reads back as the same rows.
    if (shape == 0) {
      auto cols = DeserializeColumns(data);
      ASSERT_TRUE(cols.ok()) << cols.status().ToString();
      std::vector<Event> rows;
      cols->MaterializeRows(0, cols->rows(), &rows);
      ExpectSameEvents(rows, batch);
      auto reread = DeserializeEvents(SerializeColumns(*cols));
      ASSERT_TRUE(reread.ok()) << reread.status().ToString();
      ExpectSameEvents(*reread, batch);
    }
  }
  EXPECT_GT(runs_of_one, 0u);
  EXPECT_GT(single_type, 0u);
  EXPECT_GT(empty, 0u);
}

// Hand-built frames: magic, row count, header block, then `body`.
struct FrameGroup {
  uint32_t type;
  uint32_t columns;
};
struct FrameRun {
  uint32_t group;
  uint32_t length;
};
std::string BuildFrame(uint32_t rows, const std::vector<FrameGroup>& groups,
                       const std::vector<FrameRun>& runs, std::string_view body) {
  std::string header;
  PutVarint(&header, groups.size());
  for (const FrameGroup& g : groups) {
    PutVarint(&header, g.type);
    PutVarint(&header, g.columns);
  }
  PutVarint(&header, runs.size());
  for (const FrameRun& r : runs) {
    PutVarint(&header, r.group);
    PutVarint(&header, r.length);
  }
  std::string out;
  const uint32_t words[] = {0x45585335u, rows, static_cast<uint32_t>(header.size()),
                            Crc32(header.data(), header.size())};
  out.append(reinterpret_cast<const char*>(words), sizeof(words));
  out.append(header);
  out.append(body);
  return out;
}

TEST(SerializationTest, MalformedFramesAreCorruption) {
  // Two types in runs of two: type 0 rows, then type 1 rows.
  std::vector<Event> events;
  events.emplace_back(0, 1, std::vector<Value>{Value(1.5)});
  events.emplace_back(0, 2, std::vector<Value>{Value(2.5)});
  events.emplace_back(1, 3, std::vector<Value>{Value(int64_t{3})});
  events.emplace_back(1, 4, std::vector<Value>{Value(int64_t{4})});
  const std::string data = SerializeEvents(events);
  uint32_t header_len = 0;
  std::memcpy(&header_len, data.data() + 8, sizeof(header_len));
  const std::string_view body = std::string_view(data).substr(16 + header_len);
  const std::vector<FrameGroup> groups = {{0, 1}, {1, 1}};
  ASSERT_EQ(BuildFrame(4, groups, {{0, 2}, {1, 2}}, body), data);

  const struct {
    const char* name;
    std::string frame;
    const char* message;
  } cases[] = {
      {"bad run sum", BuildFrame(4, groups, {{0, 2}, {1, 1}}, body), "runs hold 3 rows"},
      {"zero-length run", BuildFrame(4, groups, {{0, 0}, {0, 2}, {1, 2}}, body),
       "run 0 is empty"},
      {"repeated run group", BuildFrame(4, groups, {{0, 1}, {0, 1}, {1, 2}}, body),
       "both hold group 0"},
      {"run with no group", BuildFrame(4, {{0, 1}}, {{0, 2}, {1, 2}}, body),
       "run 1 names group 1 of 1"},
      // The runs give group 0 one row; its ts block holds two.
      {"group rows differ from its body", BuildFrame(4, groups, {{0, 1}, {1, 3}}, body),
       "type 0 ts column"},
      {"trailing bytes", data + "zz", "2 trailing bytes"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const Status st = DeserializeEvents(c.frame).status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.message().find(c.message), std::string::npos) << st.ToString();
  }
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

// ---- Checkpoint restore ----------------------------------------------------

// Archive with every sealed chunk past the first spilled: 40 rows of type A
// in chunks of 8, so chunks 0-3 are sealed and chunks 0-2 live on disk.
ArchiveOptions SpillingOptions(const std::string& dir) {
  ArchiveOptions options;
  options.chunk_capacity = 8;
  options.spill_dir = dir;
  options.max_resident_chunks = 1;
  return options;
}

TEST_F(ArchiveTest, RestoreRejectsEvictedChunkKind) {
  // Kind 3 marked a spilled chunk whose raw file an earlier archive deleted,
  // keeping only downsampled aggregates. The archive reads exact rows only,
  // so restore must refuse the entry rather than revive the chunk as empty
  // or as an ordinary spilled one — even with the spill file still present.
  char spill[] = "/tmp/exstream_kind3_spill_XXXXXX";
  char ckpt[] = "/tmp/exstream_kind3_ckpt_XXXXXX";
  ASSERT_NE(mkdtemp(spill), nullptr);
  ASSERT_NE(mkdtemp(ckpt), nullptr);
  EventArchive archive(&registry_, SpillingOptions(spill));
  for (Timestamp t = 0; t < 40; ++t) {
    ASSERT_TRUE(archive.Append(MakeA(t, t * 0.5)).ok());
  }
  BytesWriter snapshot;
  ASSERT_TRUE(archive.CheckpointTo(ckpt, &snapshot).ok());

  // Manifest layout: u64 spill seq, u32 type count, then per type a u32
  // chunk count and per chunk a u8 kind first. Byte 16 is the kind of type
  // A's chunk 0, which is spilled (kind 2).
  std::string bytes = snapshot.Take();
  ASSERT_GT(bytes.size(), 16u);
  ASSERT_EQ(bytes[16], 2);
  bytes[16] = 3;

  EventArchive restored(&registry_, SpillingOptions(spill));
  BytesReader reader(bytes);
  const Status st = restored.RestoreFrom(&reader);
  ASSERT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("kind 3"), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("exact rows"), std::string::npos) << st.ToString();
}

TEST_F(ArchiveTest, RestoreIgnoresLeftoverTierSidecars) {
  // Earlier archives wrote a `<spill>.tiers` aggregate sidecar beside every
  // spilled chunk. A checkpoint taken then restores unchanged: the chunk is
  // read back exactly from its spill file and the sidecar is left on disk
  // untouched.
  char spill[] = "/tmp/exstream_sidecar_spill_XXXXXX";
  char ckpt[] = "/tmp/exstream_sidecar_ckpt_XXXXXX";
  ASSERT_NE(mkdtemp(spill), nullptr);
  ASSERT_NE(mkdtemp(ckpt), nullptr);
  EventArchive archive(&registry_, SpillingOptions(spill));
  for (Timestamp t = 0; t < 40; ++t) {
    ASSERT_TRUE(archive.Append(MakeA(t, t * 0.5)).ok());
  }
  BytesWriter snapshot;
  ASSERT_TRUE(archive.CheckpointTo(ckpt, &snapshot).ok());

  auto names = ListDirFiles(spill);
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  std::string sidecar;
  for (const std::string& name : *names) {
    const std::string suffix = ".bin";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sidecar = std::string(spill) + "/" + name + ".tiers";
      break;
    }
  }
  ASSERT_FALSE(sidecar.empty()) << "no spilled chunk in " << spill;
  const std::string sidecar_bytes = "EXT1 leftover aggregate sidecar";
  ASSERT_TRUE(WriteFileAtomic(sidecar, sidecar_bytes).ok());

  EventArchive restored(&registry_, SpillingOptions(spill));
  BytesReader reader(snapshot.str());
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_EQ(restored.NumChunks(0), archive.NumChunks(0));

  DegradationReport degradation;
  auto original = archive.Scan(0, {0, 39});
  auto scanned = restored.Scan(0, {0, 39}, &degradation);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_FALSE(degradation.degraded()) << degradation.ToString();
  ASSERT_EQ(scanned->size(), 40u);
  ASSERT_EQ(scanned->size(), original->size());
  for (size_t i = 0; i < scanned->size(); ++i) {
    EXPECT_EQ((*scanned)[i].ts, (*original)[i].ts);
    EXPECT_EQ((*scanned)[i].values[0].AsDouble(),
              (*original)[i].values[0].AsDouble());
  }

  auto left = ReadFileToString(sidecar);
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  EXPECT_EQ(*left, sidecar_bytes);
}

// GetVarint's fast path must hand every error to the checked path unchanged:
// a varint that runs off the end, and a 10th byte carrying more than the top
// bit, both right at the end of the buffer.
TEST(ByteReaderTest, VarintErrorsAtBufferEnd) {
  {
    ByteReader r(std::string_view("\x81\x80\x80", 3));
    const auto v = r.GetVarint();
    ASSERT_FALSE(v.ok());
    EXPECT_TRUE(v.status().IsTruncated()) << v.status().ToString();
    EXPECT_NE(v.status().message().find("varint runs past end of buffer at offset 3"),
              std::string::npos)
        << v.status().ToString();
  }
  {
    const std::string bytes = std::string(9, '\xFF') + '\x02';
    ByteReader r(bytes);
    const auto v = r.GetVarint();
    ASSERT_FALSE(v.ok());
    EXPECT_TRUE(v.status().IsCorruption()) << v.status().ToString();
    EXPECT_NE(v.status().message().find("varint overflows 64 bits at offset 9"),
              std::string::npos)
        << v.status().ToString();
  }
}

TEST(ByteReaderTest, VarintRoundTripsEveryLength) {
  std::string bytes;
  std::vector<uint64_t> values;
  for (int bits = 0; bits <= 64; ++bits) {
    const uint64_t v = bits == 64 ? std::numeric_limits<uint64_t>::max()
                                  : (uint64_t{1} << bits) - 1;
    values.push_back(v);
    PutVarint(&bytes, v);
  }
  ByteReader r(bytes);
  for (const uint64_t want : values) {
    const auto got = r.GetVarint();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want);
  }
  EXPECT_TRUE(r.AtEnd());
}

// Random mixed-kind rows with widening events: ints, doubles, strings and
// missing trailing values in every column.
ChunkColumns RandomColumns(Rng& rng, size_t rows, std::vector<Event>* events) {
  ChunkColumns cols(3, nullptr);
  size_t width = static_cast<size_t>(rng.UniformInt(0, 2));
  for (size_t i = 0; i < rows; ++i) {
    if (rng.Chance(0.1)) ++width;  // a wider event than any before it
    Event e;
    e.type = 3;
    e.ts = static_cast<Timestamp>(i);
    const size_t nvals = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(width)));
    for (size_t j = 0; j < nvals; ++j) e.values.push_back(RandomValue(rng));
    cols.AppendEvent(e);
    events->push_back(std::move(e));
  }
  return cols;
}

TEST(ColumnsTest, SliceMaterializesLikeSourceRange) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<Event> events;
    const ChunkColumns cols =
        RandomColumns(rng, static_cast<size_t>(rng.UniformInt(0, 40)), &events);
    for (size_t lo = 0; lo <= cols.rows(); ++lo) {
      for (size_t hi = lo; hi <= cols.rows(); ++hi) {
        const ChunkColumns slice = cols.Slice(lo, hi);
        ASSERT_EQ(slice.rows(), hi - lo);
        std::vector<Event> got;
        std::vector<Event> want;
        slice.MaterializeRows(0, slice.rows(), &got);
        cols.MaterializeRows(lo, hi, &want);
        ExpectSameEvents(got, want);
        ExpectSameEvents(want, std::vector<Event>(events.begin() + lo, events.begin() + hi));
        // Each dictionary holds exactly the strings its rows use.
        for (size_t j = 0; j < slice.num_columns(); ++j) {
          const AttributeColumn& col = slice.attr(j);
          std::vector<std::string> used;
          for (const uint32_t id : col.str_ids) used.push_back(col.dict.at(id));
          std::sort(used.begin(), used.end());
          used.erase(std::unique(used.begin(), used.end()), used.end());
          EXPECT_EQ(col.dict.size(), used.size()) << "column " << j;
        }
      }
    }
  }
}

// An incremental tail compacts with Slice and keeps appending: the dictionary
// must stay at the distinct live strings instead of re-interning them.
TEST(ColumnsTest, RepeatedCompactionKeepsDictionaryBounded) {
  ChunkColumns cols(3, nullptr);
  std::vector<Event> live;
  Timestamp ts = 0;
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    for (int i = 0; i < 100; ++i) {
      Event e(3, ts++, {Value(i % 2 == 0 ? "a" : "b"), Value(int64_t{i})});
      cols.AppendEvent(e);
      live.push_back(std::move(e));
    }
    const size_t half = cols.rows() / 2;
    cols = cols.Slice(half, cols.rows());
    live.erase(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(half));
    EXPECT_EQ(cols.attr(0).dict.size(), 2u);
    std::vector<Event> got;
    cols.MaterializeRows(0, cols.rows(), &got);
    ExpectSameEvents(got, live);
  }
  // Appends after the last compaction reuse the two known ids.
  cols.AppendEvent(Event(3, ts++, {Value("b")}));
  cols.AppendEvent(Event(3, ts++, {Value("c")}));
  EXPECT_EQ(cols.attr(0).dict.size(), 3u);
}


}  // namespace
}  // namespace exstream
