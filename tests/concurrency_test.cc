// Concurrency tests: the archive is written by the ingest path while the
// explanation engine scans it from other threads (the Fig. 18 deployment).

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include <gtest/gtest.h>

#include "archive/archive.h"
#include "cep/match_table.h"
#include "explain/partition_table.h"

namespace exstream {
namespace {

TEST(ConcurrencyTest, ArchiveScanDuringAppend) {
  EventTypeRegistry registry;
  ASSERT_TRUE(
      registry.Register(EventSchema("M", {{"v", ValueType::kDouble}})).ok());
  ArchiveOptions options;
  options.chunk_capacity = 64;
  EventArchive archive(&registry, options);

  std::atomic<bool> stop{false};
  std::atomic<size_t> scans{0};
  std::atomic<bool> scan_error{false};

  std::thread reader([&] {
    while (!stop.load()) {
      auto events = archive.Scan(0, {0, 1 << 20});
      if (!events.ok()) {
        scan_error.store(true);
        return;
      }
      // Scanned events must be time-ordered regardless of concurrent appends.
      for (size_t i = 1; i < events->size(); ++i) {
        if ((*events)[i].ts < (*events)[i - 1].ts) {
          scan_error.store(true);
          return;
        }
      }
      scans.fetch_add(1);
    }
  });

  for (Timestamp t = 0; t < 20000; ++t) {
    archive.OnEvent(Event(0, t, {Value(static_cast<double>(t))}));
  }
  // On a loaded (or single-core) machine the writer can finish before the
  // reader completes a single scan; keep the reader running until it has.
  while (scans.load() == 0 && !scan_error.load()) {
    std::this_thread::yield();
  }
  stop.store(true);
  reader.join();

  EXPECT_FALSE(scan_error.load());
  EXPECT_GT(scans.load(), 0u);
  EXPECT_EQ(archive.CountEvents(0), 20000u);
}

// Regression test for the global-archive-mutex design: a scan reading spill
// files from disk must not block concurrent Appends. The spill-read hook
// stalls the scan *inside* its disk-read phase; Append must complete while
// the scan is parked there. Under the old design (spill reads under the
// archive lock) this test deadlocks: Append waits on the scanner's lock, and
// the scanner waits on a release that only happens after Append returns.
TEST(ConcurrencyTest, AppendNotBlockedBySpillFileRead) {
  EventTypeRegistry registry;
  ASSERT_TRUE(
      registry.Register(EventSchema("M", {{"v", ValueType::kDouble}})).ok());
  char tmpl[] = "/tmp/exstream_spill_block_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);

  std::promise<void> scan_in_disk_read;
  std::promise<void> release_scan;
  std::shared_future<void> release = release_scan.get_future().share();
  std::atomic<bool> hook_fired{false};

  ArchiveOptions options;
  options.chunk_capacity = 8;
  options.spill_dir = std::string(tmpl);
  options.max_resident_chunks = 1;
  options.spill_read_hook_for_testing = [&] {
    // Announce once, then park every spill read until the append finished.
    if (!hook_fired.exchange(true)) scan_in_disk_read.set_value();
    release.wait();
  };
  EventArchive archive(&registry, options);

  constexpr Timestamp kPreloaded = 200;
  for (Timestamp t = 0; t < kPreloaded; ++t) {
    ASSERT_TRUE(archive.Append(Event(0, t, {Value(static_cast<double>(t))})).ok());
  }

  std::thread scanner([&] {
    auto events = archive.Scan(0, {0, 1 << 20});
    ASSERT_TRUE(events.ok());
    // The scan snapshot predates the concurrent append, so it sees exactly
    // the preloaded events.
    EXPECT_EQ(events->size(), static_cast<size_t>(kPreloaded));
  });

  // Wait until the scanner is provably inside its spill-file read...
  scan_in_disk_read.get_future().wait();
  // ...then append. If the scan still held any archive lock across disk I/O,
  // this would deadlock (the scanner resumes only after this append returns).
  ASSERT_TRUE(
      archive.Append(Event(0, kPreloaded, {Value(0.0)})).ok());
  release_scan.set_value();
  scanner.join();
  EXPECT_EQ(archive.CountEvents(0), static_cast<size_t>(kPreloaded) + 1);
}

// A scan of a spilled chunk must not wait on another scan's read of the same
// file: that scan may run with a different CancelToken (or none), so waiting
// on it could sleep past this scan's deadline. The first scan is parked inside
// its read; a second scan of the same chunk reads the file itself and
// returns. The parked scan then adopts the decode the second one stored.
TEST(ConcurrencyTest, ScanDoesNotWaitOnAnotherScansSpillRead) {
  EventTypeRegistry registry;
  ASSERT_TRUE(
      registry.Register(EventSchema("M", {{"v", ValueType::kDouble}})).ok());
  char tmpl[] = "/tmp/exstream_spill_parallel_read_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);

  std::promise<void> first_in_read;
  std::promise<void> release_first;
  std::shared_future<void> release = release_first.get_future().share();
  std::atomic<size_t> reads{0};

  ArchiveOptions options;
  options.chunk_capacity = 8;
  options.spill_dir = std::string(tmpl);
  options.max_resident_chunks = 1;
  options.spill_read_hook_for_testing = [&] {
    // Park only the first read.
    if (reads.fetch_add(1) == 0) {
      first_in_read.set_value();
      release.wait();
    }
  };
  EventArchive archive(&registry, options);
  for (Timestamp t = 0; t < 40; ++t) {
    ASSERT_TRUE(archive.Append(Event(0, t, {Value(static_cast<double>(t))})).ok());
  }

  // Chunk 0 (ts 0..7) is on disk.
  Result<ScanView> first = ScanView{};
  std::thread parked([&] { first = archive.ScanColumns(0, {0, 7}); });
  first_in_read.get_future().wait();
  auto second = std::async(std::launch::async,
                           [&] { return archive.ScanColumns(0, {0, 7}); });
  const bool returned_while_parked =
      second.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release_first.set_value();
  parked.join();
  ASSERT_TRUE(returned_while_parked);

  const Result<ScanView> second_view = second.get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second_view.ok()) << second_view.status().ToString();
  EXPECT_EQ(reads.load(), 2u);
  ASSERT_EQ(first->segments.size(), 1u);
  ASSERT_EQ(second_view->segments.size(), 1u);
  EXPECT_EQ(first->segments[0].columns, second_view->segments[0].columns);
  EXPECT_EQ(first->rows(), 8u);
}

TEST(ConcurrencyTest, PartitionTableConcurrentUpsertAndQuery) {
  PartitionTable table;
  std::atomic<bool> stop{false};
  std::atomic<bool> error{false};

  std::thread reader([&] {
    PartitionRecord probe;
    probe.query_name = "Q";
    probe.partition = "p-0";
    probe.dimensions = {{"d", "x"}};
    while (!stop.load()) {
      const auto related = table.FindRelated(probe);
      for (const auto& rec : related) {
        if (rec.query_name != "Q") error.store(true);
      }
    }
  });

  for (int i = 0; i < 5000; ++i) {
    PartitionRecord rec;
    rec.query_name = "Q";
    rec.partition = "p-" + std::to_string(i % 50);
    rec.dimensions = {{"d", "x"}};
    rec.start_ts = i;
    rec.end_ts = i + 10;
    rec.num_points = 10;
    table.Upsert(std::move(rec));
  }
  stop.store(true);
  reader.join();

  EXPECT_FALSE(error.load());
  EXPECT_EQ(table.size(), 50u);
}

TEST(ConcurrencyTest, MatchTableReadWhileAppending) {
  MatchTable table({"col"});
  std::atomic<bool> stop{false};
  std::atomic<bool> error{false};
  std::thread reader([&] {
    while (!stop.load()) {
      auto rows = table.Rows("p");
      for (size_t i = 1; i < rows.size(); ++i) {
        if (rows[i].ts < rows[i - 1].ts) error.store(true);
      }
      auto series = table.ExtractSeries("p", "col");
      (void)series;
    }
  });
  for (Timestamp t = 0; t < 20000; ++t) {
    MatchRow row;
    row.ts = t;
    row.values = {Value(static_cast<double>(t))};
    table.Append("p", std::move(row));
  }
  stop.store(true);
  reader.join();
  EXPECT_FALSE(error.load());
  EXPECT_EQ(table.NumRows("p"), 20000u);
}

}  // namespace
}  // namespace exstream
