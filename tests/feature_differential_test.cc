// Feature differential property test: FeatureBuilder, reading the columnar
// archive alone or through the incremental tails, serial or on a 4-thread
// pool, must equal the row-folding reference oracle (feature_oracle.h) bit
// for bit on random streams. Each seed draws random schemas (double, int and
// string attributes, events missing trailing values), per-type non-decreasing
// timestamps with repeats, a chunk capacity, a spill budget, a tail retention,
// a mid-stream checkpoint restore into a fresh archive and fresh tails, every
// aggregate kind, and intervals at every edge of the archive's and the tails'
// coverage. The oracle is fed the generator's own event list.

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archive.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "feature_oracle.h"
#include "features/builder.h"
#include "features/incremental.h"

namespace exstream {
namespace {

constexpr int kSeeds = 200;

/// Summed across seeds: the coverage asserts check that every path the
/// property claims to cover was actually taken.
struct Coverage {
  std::atomic<size_t> spill_reads{0};
  size_t full_hits = 0;
  size_t partial_hits = 0;
  size_t misses = 0;
  size_t restores = 0;
  size_t features = 0;
};

std::string MakeTempDir(const char* tag) {
  std::string tmpl = std::string("/tmp/exstream_featprop_") + tag + "_XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) return "";
  return tmpl;
}

EventTypeRegistry RandomRegistry(Rng* rng) {
  EventTypeRegistry registry;
  const int num_types = static_cast<int>(rng->UniformInt(1, 3));
  for (int t = 0; t < num_types; ++t) {
    std::vector<AttributeDef> attrs;
    const int num_attrs = static_cast<int>(rng->UniformInt(1, 4));
    for (int a = 0; a < num_attrs; ++a) {
      const ValueType type = static_cast<ValueType>(rng->UniformInt(0, 2));
      attrs.push_back({"a" + std::to_string(a), type});
    }
    EXPECT_TRUE(registry.Register(EventSchema("T" + std::to_string(t), attrs)).ok());
  }
  return registry;
}

Value RandomValue(ValueType type, Rng* rng) {
  switch (type) {
    case ValueType::kInt64:
      return Value(rng->UniformInt(-50, 50));
    case ValueType::kDouble:
      // Mix exactly representable steps with full-precision noise.
      return Value(rng->Chance(0.5) ? 0.25 * static_cast<double>(rng->UniformInt(-40, 40))
                                    : rng->Gaussian(10.0, 5.0));
    case ValueType::kString:
      return Value(std::string(rng->Chance(0.5) ? "x" : "yy"));
  }
  return Value(0.0);
}

// A stream with per-type non-decreasing timestamps (repeats included), types
// interleaved, and some events missing trailing values.
std::vector<Event> RandomStream(const EventTypeRegistry& registry, Rng* rng) {
  const size_t n = static_cast<size_t>(rng->UniformInt(20, 400));
  std::vector<Timestamp> next_ts(registry.size());
  for (Timestamp& ts : next_ts) ts = rng->UniformInt(0, 20);
  std::vector<Event> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const EventTypeId type =
        static_cast<EventTypeId>(rng->UniformInt(0, static_cast<int64_t>(registry.size()) - 1));
    const EventSchema& schema = registry.schema(type);
    Event e;
    e.type = type;
    e.ts = next_ts[type];
    if (!rng->Chance(0.3)) next_ts[type] += rng->UniformInt(1, 4);
    size_t num_values = schema.num_attributes();
    if (rng->Chance(0.15)) {
      num_values = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(num_values)));
    }
    for (size_t a = 0; a < num_values; ++a) {
      e.values.push_back(RandomValue(schema.attributes()[a].type, rng));
    }
    events.push_back(std::move(e));
  }
  return events;
}

std::vector<FeatureSpec> RandomSpecs(const EventTypeRegistry& registry, Rng* rng) {
  constexpr AggregateKind kAggs[] = {AggregateKind::kRaw,  AggregateKind::kMean,
                                     AggregateKind::kSum,  AggregateKind::kCount,
                                     AggregateKind::kMin,  AggregateKind::kMax,
                                     AggregateKind::kStdDev};
  constexpr Timestamp kWindows[] = {1, 2, 3, 5, 7, 10};
  std::vector<FeatureSpec> specs;
  const int n = static_cast<int>(rng->UniformInt(4, 24));
  for (int i = 0; i < n; ++i) {
    FeatureSpec spec;
    spec.type = static_cast<EventTypeId>(
        rng->UniformInt(0, static_cast<int64_t>(registry.size()) - 1));
    const EventSchema& schema = registry.schema(spec.type);
    // Occasionally one past the schema: no event carries it.
    spec.attr_index = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(schema.num_attributes())));
    spec.event_type_name = schema.name();
    spec.attribute_name = "a" + std::to_string(spec.attr_index);
    spec.agg = kAggs[rng->UniformInt(0, 6)];
    spec.window = spec.agg == AggregateKind::kRaw ? 0 : kWindows[rng->UniformInt(0, 5)];
    specs.push_back(spec);
  }
  return specs;
}

// Intervals at every coverage edge: empty (inverted), before the first
// event, after the last, a single timestamp, inside the tail, straddling its
// floor, fully cold, the whole stream, and one random range.
std::vector<TimeInterval> RandomIntervals(const std::vector<Event>& events,
                                          Timestamp retention, Rng* rng) {
  Timestamp first = events.front().ts;
  Timestamp last = events.front().ts;
  for (const Event& e : events) {
    first = std::min(first, e.ts);
    last = std::max(last, e.ts);
  }
  const Timestamp r = retention > 0 ? retention : 20;
  const Timestamp single =
      events[static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(events.size()) - 1))].ts;
  const Timestamp a = rng->UniformInt(first - 5, last + 5);
  const Timestamp b = rng->UniformInt(first - 5, last + 5);
  return {
      {last / 2 + 1, last / 2},        // empty
      {first - 30, first - 1},         // before the first event
      {last + 1, last + 30},           // after the last
      {single, single},                // a single timestamp
      {last - r / 2, last},            // inside the tail
      {last - 2 * r - 3, last},        // straddling the tail's floor
      {first, last - 3 * r},           // fully cold
      {first, last},                   // everything
      {std::min(a, b), std::max(a, b)},
  };
}

void ExpectSameFeatures(const Result<std::vector<Feature>>& got,
                        const std::vector<Feature>& want, const char* path) {
  ASSERT_TRUE(got.ok()) << path << ": " << got.status().ToString();
  ASSERT_EQ(got->size(), want.size()) << path;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE((*got)[i].spec == want[i].spec) << path << " spec " << i;
    EXPECT_TRUE(SameSeriesBits((*got)[i].series, want[i].series))
        << path << ": " << want[i].spec.Name() << " (" << (*got)[i].series.size()
        << " vs " << want[i].series.size() << " samples)";
  }
}

void RunSeed(uint64_t seed, ThreadPool* pool, Coverage* coverage) {
  Rng rng(seed);
  const EventTypeRegistry registry = RandomRegistry(&rng);
  const std::vector<Event> events = RandomStream(registry, &rng);

  ArchiveOptions options;
  options.chunk_capacity = static_cast<size_t>(rng.UniformInt(2, 64));
  const std::string spill_dir = rng.Chance(0.6) ? MakeTempDir("spill") : "";
  if (!spill_dir.empty()) {
    options.spill_dir = spill_dir;
    options.max_resident_chunks = static_cast<size_t>(rng.UniformInt(0, 2));
  }
  options.spill_read_hook_for_testing = [coverage] { ++coverage->spill_reads; };
  const Timestamp retentions[] = {0, rng.UniformInt(2, 15), rng.UniformInt(100, 400)};
  const Timestamp retention = retentions[rng.UniformInt(0, 2)];

  auto archive = std::make_unique<EventArchive>(&registry, options);
  auto tails = std::make_unique<IncrementalFeatureState>(&registry, retention);
  // Batches of 1..32 events, one of them followed by a checkpoint restore.
  const bool restore = rng.Chance(0.75);
  const size_t restore_at = static_cast<size_t>(
      rng.UniformInt(1, static_cast<int64_t>(events.size())));
  const std::string ckpt_dir = restore ? MakeTempDir("ckpt") : "";
  size_t archive_errors = 0;
  bool restored = false;
  for (size_t i = 0; i < events.size();) {
    const size_t n = std::min(events.size() - i,
                              static_cast<size_t>(rng.UniformInt(1, 32)));
    const EventBatch batch(events.begin() + i, events.begin() + i + n);
    tails->OnEventBatch(batch);
    archive->OnEventBatch(batch);
    i += n;
    if (restore && !restored && i >= restore_at) {
      BytesWriter w;
      ASSERT_TRUE(archive->CheckpointTo(ckpt_dir, &w).ok());
      archive_errors += archive->append_errors();
      archive = std::make_unique<EventArchive>(&registry, options);
      BytesReader r(w.str());
      ASSERT_TRUE(archive->RestoreFrom(&r).ok());
      tails = std::make_unique<IncrementalFeatureState>(&registry, retention);
      tails->MarkExternalData();
      restored = true;
      ++coverage->restores;
    }
  }
  archive_errors += archive->append_errors();
  EXPECT_EQ(archive_errors, 0u);

  std::vector<std::vector<Event>> by_type(registry.size());
  for (const Event& e : events) by_type[e.type].push_back(e);
  const FeatureRowSource rows = [&](EventTypeId type) -> Result<std::vector<Event>> {
    return by_type[type];
  };

  const std::vector<FeatureSpec> specs = RandomSpecs(registry, &rng);
  const FeatureBuilder cold(archive.get());
  const FeatureBuilder served(archive.get(), tails.get());
  for (const TimeInterval& interval : RandomIntervals(events, retention, &rng)) {
    SCOPED_TRACE("interval [" + std::to_string(interval.lower) + ", " +
                 std::to_string(interval.upper) + "]");
    auto oracle = OracleFeatures(rows, specs, interval);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    coverage->features += oracle->size();
    ExpectSameFeatures(cold.Build(specs, interval), *oracle, "archive");
    ExpectSameFeatures(cold.Build(specs, interval, pool), *oracle, "archive x4");
    ExpectSameFeatures(served.Build(specs, interval), *oracle, "tails");
    ExpectSameFeatures(served.Build(specs, interval, pool), *oracle, "tails x4");
  }
  const IncrementalFeatureState::Stats stats = tails->stats();
  coverage->full_hits += stats.full_hits;
  coverage->partial_hits += stats.partial_hits;
  coverage->misses += stats.misses;

  archive.reset();
  for (const std::string& dir : {spill_dir, ckpt_dir}) {
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
}

TEST(FeatureOraclePropertyTest, RandomStreamsMatchOracle) {
  ThreadPool pool(4);
  Coverage coverage;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunSeed(static_cast<uint64_t>(seed), &pool, &coverage);
    if (HasFailure()) return;
  }
  EXPECT_GT(coverage.spill_reads.load(), 0u) << "no spilled chunk was read";
  EXPECT_GT(coverage.full_hits, 0u) << "no interval was served from the tails";
  EXPECT_GT(coverage.partial_hits, 0u) << "no interval straddled a tail floor";
  EXPECT_GT(coverage.misses, 0u) << "no interval fell through to the archive";
  EXPECT_GT(coverage.restores, 0u);
  EXPECT_GT(coverage.features, 0u);
}

}  // namespace
}  // namespace exstream
