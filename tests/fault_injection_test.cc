// Resilience tests: event frame checksums, the error-code taxonomy
// (truncation vs corruption), every FaultInjector mode exercised against the
// archive's retry / quarantine / degraded-scan machinery, and the directory
// sync that makes spilled chunks durable at checkpoint time.

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "archive/archive.h"
#include "archive/serialization.h"
#include "common/fault_injection.h"
#include "io/file_util.h"
#include "common/stopwatch.h"
#include "xstream/system.h"

namespace exstream {
namespace {

bool FileExists(const std::string& path) { return access(path.c_str(), F_OK) == 0; }

std::vector<Event> MakeEvents(size_t n) {
  std::vector<Event> events;
  for (size_t t = 0; t < n; ++t) {
    events.emplace_back(0, static_cast<Timestamp>(t),
                        std::vector<Value>{Value(t * 0.5)});
  }
  return events;
}

// Alternating event types: a mixed-type batch, the WAL and replication
// shape — one frame holding two column groups and eight runs per 8 rows.
std::vector<Event> MakeMixedEvents(size_t n) {
  std::vector<Event> events = MakeEvents(n);
  for (size_t i = 1; i < n; i += 2) events[i].type = 1;
  return events;
}

TEST(SpillCodecTest, MixedFrameRoundTrip) {
  const std::vector<Event> events = MakeMixedEvents(64);
  const std::string data = SerializeEvents(events);
  auto parsed = DeserializeEvents(data);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 64u);
  EXPECT_DOUBLE_EQ((*parsed)[10].values[0].AsDouble(), 5.0);
  EXPECT_EQ((*parsed)[11].type, 1u);
}

TEST(SpillCodecTest, ChecksumCatchesBitFlip) {
  const std::string data = SerializeEvents(MakeMixedEvents(8));
  // A bit flipped in the second group's last column block is pinned to it...
  std::string bad_column = data;
  bad_column.back() = static_cast<char>(bad_column.back() ^ 0x01);
  Status st = DeserializeEvents(bad_column).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("checksum"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("type 1 attr0 column"), std::string::npos)
      << st.ToString();
  // ...and one in the run sequence fails the header block's checksum.
  std::string bad_header = data;
  const size_t header_payload = 4 * sizeof(uint32_t);  // magic, rows, len, crc
  bad_header[header_payload + 1] =
      static_cast<char>(bad_header[header_payload + 1] ^ 0x01);
  st = DeserializeEvents(bad_header).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("header checksum"), std::string::npos) << st.ToString();
}

TEST(SpillCodecTest, TruncationHasItsOwnCode) {
  // A single-type frame cut mid-block reads as Truncated, with the byte offset.
  const std::string one = SerializeEvents(MakeEvents(8));
  const Status cut_payload =
      DeserializeEvents(std::string_view(one).substr(0, one.size() - 3)).status();
  EXPECT_TRUE(cut_payload.IsTruncated()) << cut_payload.ToString();
  EXPECT_NE(cut_payload.message().find("offset"), std::string::npos);

  // A mixed frame cut mid-header or inside its second group is Truncated too...
  const std::string mixed = SerializeEvents(MakeMixedEvents(8));
  EXPECT_TRUE(DeserializeEvents(std::string_view(mixed).substr(0, 10))
                  .status()
                  .IsTruncated());
  EXPECT_TRUE(DeserializeEvents(std::string_view(mixed).substr(0, mixed.size() - 3))
                  .status()
                  .IsTruncated());
  // ...but one cut right after its header block has too few bytes left for
  // its row count: Corruption, before any group is read.
  uint32_t header_len = 0;
  std::memcpy(&header_len, mixed.data() + 2 * sizeof(uint32_t), sizeof(header_len));
  const size_t body = 4 * sizeof(uint32_t) + header_len;
  const Status cut_header =
      DeserializeEvents(std::string_view(mixed).substr(0, body)).status();
  EXPECT_TRUE(cut_header.IsCorruption()) << cut_header.ToString();
  EXPECT_NE(cut_header.message().find("header count"), std::string::npos);
}

TEST(SpillCodecTest, HugeHeaderCountRejectedBeforeAllocation) {
  // The row count lives outside the checksummed blocks, so a patched count
  // must be caught by the size bound, not a CRC — and without a giant reserve.
  std::string data = SerializeEvents(MakeMixedEvents(4));
  const uint32_t huge = 0x7FFFFFFF;
  std::memcpy(&data[4], &huge, sizeof(huge));
  const Status st = DeserializeEvents(data).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("header count"), std::string::npos);
}

TEST(SpillCodecTest, ReadErrorsNameTheFile) {
  char tmpl[] = "/tmp/exstream_badmagic_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/junk.bin";
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite("not a spill file", 1, 16, f);
  fclose(f);
  const Status st = ReadEventsFile(path).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find(path), std::string::npos) << st.ToString();
}

class FaultArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        registry_.Register(EventSchema("A", {{"x", ValueType::kDouble}})).ok());
    char tmpl[] = "/tmp/exstream_fault_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { FaultInjector::Global().Disarm(); }

  ArchiveOptions SpillOptions() {
    ArchiveOptions options;
    options.chunk_capacity = 8;
    options.spill_dir = dir_;
    options.max_resident_chunks = 2;
    options.spill_retry.base_backoff_ms = 0.1;  // keep retries fast in tests
    options.spill_retry.max_backoff_ms = 0.5;
    return options;
  }

  void Fill(EventArchive* archive, size_t n = 200) {
    for (size_t t = 0; t < n; ++t) {
      ASSERT_TRUE(
          archive->Append(Event(0, static_cast<Timestamp>(t), {Value(t * 0.5)}))
              .ok());
    }
  }

  EventTypeRegistry registry_;
  std::string dir_;
};

// Finds chunk 0's spill file in `dir`, skipping any `.quarantine` leftovers —
// the rot tests must hit the live bytes.
std::string FindChunk0Spill(const std::string& dir) {
  std::string victim;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return victim;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.find("type0_chunk0_") == std::string::npos) continue;
    if (name.size() >= 11 &&
        name.compare(name.size() - 11, 11, ".quarantine") == 0) {
      continue;
    }
    victim = dir + "/" + name;
    break;
  }
  closedir(d);
  return victim;
}

TEST_F(FaultArchiveTest, V4CorruptedCompressedBlockQuarantinesNamingColumn) {
  // Spill files hold compressed column blocks. A bit flip inside a
  // compressed column payload must fail that block's CRC — naming the column
  // — and quarantine the chunk, never crash or feed garbage to the decoders.
  EventArchive archive(&registry_, SpillOptions());
  Fill(&archive);

  const std::string victim = FindChunk0Spill(dir_);
  ASSERT_FALSE(victim.empty()) << "no spill file for chunk 0 in " << dir_;
  FILE* f = fopen(victim.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, -1, SEEK_END), 0);  // inside the last column's block
  const int c = fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(fseek(f, -1, SEEK_END), 0);
  fputc(c ^ 0x40, f);
  fclose(f);

  DegradationReport degradation;
  auto events = archive.Scan(0, {0, 199}, &degradation);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events->size(), 192u);
  ASSERT_EQ(degradation.chunks_skipped(), 1u);
  EXPECT_NE(degradation.skipped[0].reason.find("column"), std::string::npos)
      << degradation.skipped[0].reason;
  EXPECT_TRUE(FileExists(victim + ".quarantine"));
  EXPECT_EQ(archive.quarantined_chunks(), 1u);
}

TEST_F(FaultArchiveTest, MmapReadSiteTransientFaultRetriedAway) {
  // Cold v4 reads go through the mmap seam; a transient fault there is
  // retried exactly like the buffered-read path before it.
  EventArchive archive(&registry_, SpillOptions());
  Fill(&archive);

  FaultPlan plan;
  plan.mode = FaultMode::kFailOpen;
  plan.op = FaultOp::kRead;
  plan.site = "mmap-read";
  plan.max_hits = 1;
  ScopedFaultInjection fault(plan);

  DegradationReport degradation;
  auto events = archive.Scan(0, {0, 199}, &degradation);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events->size(), 200u);
  EXPECT_FALSE(degradation.degraded());
  EXPECT_GE(archive.spill_read_retries(), 1u);
  EXPECT_EQ(archive.quarantined_chunks(), 0u);
}

TEST_F(FaultArchiveTest, MmapReadSiteCorruptionQuarantines) {
  // kCorruptBytes at the mmap seam flips a private (copy-on-write) byte, so
  // the on-disk file stays pristine while the in-memory view is poisoned —
  // the CRC check must still quarantine the chunk.
  EventArchive archive(&registry_, SpillOptions());
  Fill(&archive);

  FaultPlan plan;
  plan.mode = FaultMode::kCorruptBytes;
  plan.op = FaultOp::kRead;
  plan.site = "mmap-read";
  plan.path_substring = "type0_chunk0_";
  ScopedFaultInjection fault(plan);

  DegradationReport degradation;
  auto events = archive.Scan(0, {0, 199}, &degradation);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events->size(), 192u);
  ASSERT_EQ(degradation.chunks_skipped(), 1u);
  EXPECT_EQ(archive.quarantined_chunks(), 1u);
}

TEST_F(FaultArchiveTest, TransientReadFaultRetriedAway) {
  EventArchive archive(&registry_, SpillOptions());
  Fill(&archive);

  FaultPlan plan;
  plan.mode = FaultMode::kFailOpen;
  plan.op = FaultOp::kRead;
  plan.path_substring = dir_;
  plan.max_hits = 1;  // fails once; the retry succeeds
  ScopedFaultInjection fault(plan);

  DegradationReport degradation;
  auto events = archive.Scan(0, {0, 199}, &degradation);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events->size(), 200u);
  EXPECT_FALSE(degradation.degraded());
  EXPECT_GE(archive.spill_read_retries(), 1u);
  EXPECT_EQ(archive.quarantined_chunks(), 0u);
}

TEST_F(FaultArchiveTest, CorruptSpillQuarantinedScanDegrades) {
  EventArchive archive(&registry_, SpillOptions());
  Fill(&archive);

  // Rot the bytes of exactly one spill file (chunk 0 holds ts 0..7).
  FaultPlan plan;
  plan.mode = FaultMode::kCorruptBytes;
  plan.op = FaultOp::kRead;
  plan.path_substring = "type0_chunk0_";
  ScopedFaultInjection fault(plan);

  DegradationReport degradation;
  auto events = archive.Scan(0, {0, 199}, &degradation);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events->size(), 192u);  // everything but the bad chunk's 8 events

  ASSERT_EQ(degradation.chunks_skipped(), 1u);
  const auto& skipped = degradation.skipped[0];
  EXPECT_NE(skipped.spill_path.find("type0_chunk0_"), std::string::npos);
  EXPECT_EQ(skipped.events_lost, 8u);
  EXPECT_EQ(degradation.events_lost_estimate, 8u);
  EXPECT_LT(degradation.coverage.at(0).fraction(), 1.0);

  // The poisoned file was renamed aside for triage, not deleted.
  EXPECT_FALSE(FileExists(skipped.spill_path));
  EXPECT_TRUE(FileExists(skipped.spill_path + ".quarantine"));
  EXPECT_EQ(archive.quarantined_chunks(), 1u);
  EXPECT_EQ(archive.degraded_scans(), 1u);
}

TEST_F(FaultArchiveTest, QuarantineIsStickyAcrossScans) {
  EventArchive archive(&registry_, SpillOptions());
  Fill(&archive);
  {
    FaultPlan plan;
    plan.mode = FaultMode::kTruncate;
    plan.op = FaultOp::kRead;
    plan.path_substring = "type0_chunk1_";
    ScopedFaultInjection fault(plan);
    ASSERT_TRUE(archive.Scan(0, {0, 199}).ok());
  }
  ASSERT_EQ(archive.quarantined_chunks(), 1u);

  // With the injector disarmed the chunk stays out: it was quarantined, not
  // retried, and the second scan reports it as such.
  DegradationReport degradation;
  auto events = archive.Scan(0, {0, 199}, &degradation);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 192u);
  ASSERT_EQ(degradation.chunks_skipped(), 1u);
  EXPECT_NE(degradation.skipped[0].reason.find("quarantined"), std::string::npos);
  EXPECT_EQ(archive.quarantined_chunks(), 1u);  // no double count
}

TEST_F(FaultArchiveTest, FaultAfterEveryViewIsDroppedStillQuarantines) {
  // A chunk read once before is read again once nothing pins its decode, so
  // bytes that rotted in between are caught on that read, as before.
  EventArchive archive(&registry_, SpillOptions());
  Fill(&archive);
  {
    auto view = archive.ScanColumns(0, {0, 199});
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view->rows(), 200u);
  }

  FaultPlan plan;
  plan.mode = FaultMode::kCorruptBytes;
  plan.op = FaultOp::kRead;
  plan.path_substring = "type0_chunk0_";
  ScopedFaultInjection fault(plan);

  DegradationReport degradation;
  auto events = archive.Scan(0, {0, 199}, &degradation);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events->size(), 192u);
  ASSERT_EQ(degradation.chunks_skipped(), 1u);
  EXPECT_TRUE(FileExists(degradation.skipped[0].spill_path + ".quarantine"));
  EXPECT_EQ(archive.quarantined_chunks(), 1u);
}

TEST_F(FaultArchiveTest, FaultWhileADecodeIsPinnedIsSeenAfterRelease) {
  // A live view pins chunk 0's decode, so scans reuse those columns and do
  // not read the file: bytes that rot meanwhile go unseen until the pin is
  // released and a scan decodes the chunk again.
  EventArchive archive(&registry_, SpillOptions());
  Fill(&archive);
  auto pinned = archive.ScanColumns(0, {0, 7});
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();

  FaultPlan plan;
  plan.mode = FaultMode::kCorruptBytes;
  plan.op = FaultOp::kRead;
  plan.path_substring = "type0_chunk0_";
  ScopedFaultInjection fault(plan);

  DegradationReport while_pinned;
  auto events = archive.Scan(0, {0, 199}, &while_pinned);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events->size(), 200u);
  EXPECT_FALSE(while_pinned.degraded());
  EXPECT_EQ(archive.quarantined_chunks(), 0u);

  pinned = ScanView{};  // release the pin
  DegradationReport after_release;
  events = archive.Scan(0, {0, 199}, &after_release);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events->size(), 192u);
  ASSERT_EQ(after_release.chunks_skipped(), 1u);
  EXPECT_EQ(archive.quarantined_chunks(), 1u);
}

TEST_F(FaultArchiveTest, NoSpaceKeepsChunksResidentAndScannable) {
  FaultPlan plan;
  plan.mode = FaultMode::kNoSpace;
  plan.op = FaultOp::kWrite;
  plan.path_substring = dir_;
  ScopedFaultInjection fault(plan);

  EventArchive archive(&registry_, SpillOptions());
  Fill(&archive);  // every append must still succeed
  EXPECT_GT(archive.spill_write_failures(), 0u);

  // Nothing reached disk, so nothing can be lost: the data is all resident.
  DegradationReport degradation;
  auto events = archive.Scan(0, {0, 199}, &degradation);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 200u);
  EXPECT_FALSE(degradation.degraded());
}

TEST_F(FaultArchiveTest, TransientWriteFaultRetriedAway) {
  FaultPlan plan;
  plan.mode = FaultMode::kFailOpen;
  plan.op = FaultOp::kWrite;
  plan.path_substring = dir_;
  plan.max_hits = 1;
  ScopedFaultInjection fault(plan);

  EventArchive archive(&registry_, SpillOptions());
  Fill(&archive);
  EXPECT_GE(archive.spill_write_retries(), 1u);
  EXPECT_EQ(archive.spill_write_failures(), 0u);

  auto events = archive.Scan(0, {0, 199});
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 200u);
}

TEST_F(FaultArchiveTest, EnospcSealKeepsChunkRetryable) {
  EventArchive archive(&registry_, SpillOptions());
  {
    FaultPlan plan;
    plan.mode = FaultMode::kNoSpace;
    plan.op = FaultOp::kWrite;
    plan.path_substring = dir_;
    ScopedFaultInjection fault(plan);
    Fill(&archive, 100);  // seal-triggered spills all hit ENOSPC
    EXPECT_GT(archive.spill_write_failures(), 0u);
  }
  // Nothing reached disk while the disk was "full".
  auto files = ListDirFiles(dir_);
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(files->empty());

  // The disk recovers; later seals probe again (past the cooldown) and the
  // retained chunks finally spill. No event was lost at any point.
  for (size_t t = 100; t < 300; ++t) {
    ASSERT_TRUE(
        archive.Append(Event(0, static_cast<Timestamp>(t), {Value(t * 0.5)}))
            .ok());
  }
  files = ListDirFiles(dir_);
  ASSERT_TRUE(files.ok());
  EXPECT_FALSE(files->empty()) << "spills must resume after ENOSPC clears";
  auto events = archive.Scan(0, {0, 299});
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events->size(), 300u);
}

TEST_F(FaultArchiveTest, QuarantineCapEvictsOldest) {
  ArchiveOptions options = SpillOptions();
  options.max_quarantine_files = 2;
  EventArchive archive(&registry_, options);
  Fill(&archive, 200);  // ~23 spilled chunks

  // Every spill read comes back corrupt: each unreadable chunk is renamed
  // *.quarantine, but the cap keeps only the newest two on disk.
  FaultPlan plan;
  plan.mode = FaultMode::kCorruptBytes;
  plan.op = FaultOp::kRead;
  plan.path_substring = dir_;
  ScopedFaultInjection fault(plan);
  DegradationReport degradation;
  auto events = archive.Scan(0, {0, 199}, &degradation);
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(degradation.degraded());
  ASSERT_GT(archive.quarantined_chunks(), 2u);

  size_t on_disk = 0;
  const auto files = ListDirFiles(dir_);
  ASSERT_TRUE(files.ok());
  for (const std::string& f : *files) {
    if (f.size() > 11 && f.compare(f.size() - 11, 11, ".quarantine") == 0) {
      ++on_disk;
    }
  }
  EXPECT_EQ(on_disk, 2u);
  EXPECT_EQ(archive.quarantine_evictions(), archive.quarantined_chunks() - 2u);
}

TEST_F(FaultArchiveTest, DelayFaultAddsLatency) {
  EventArchive archive(&registry_, SpillOptions());
  Fill(&archive);

  FaultPlan plan;
  plan.mode = FaultMode::kDelay;
  plan.op = FaultOp::kRead;
  plan.path_substring = dir_;
  plan.delay_ms = 30;
  plan.max_hits = 1;
  ScopedFaultInjection fault(plan);

  Stopwatch timer;
  auto events = archive.Scan(0, {0, 199});
  const double elapsed = timer.ElapsedSeconds();
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 200u);  // delay slows the read, data is intact
  EXPECT_GE(elapsed, 0.025);
  EXPECT_EQ(FaultInjector::Global().hits(), 1u);
}

// Checkpoints reference spilled chunks by path, as already durable, and once
// the MANIFEST lands the WAL may drop their events. Spill renames do not sync
// spill_dir, so the checkpoint syncs it once before writing the MANIFEST; a
// failed sync fails the checkpoint and leaves no MANIFEST behind.
TEST_F(FaultArchiveTest, CheckpointSyncsSpillDirBeforeManifest) {
  XStreamConfig config;
  config.archive = SpillOptions();
  XStreamSystem system(&registry_, config);
  EventBatch batch;
  for (size_t t = 0; t < 200; ++t) {
    batch.push_back(Event(0, static_cast<Timestamp>(t), {Value(t * 0.5)}));
  }
  system.OnEventBatch(std::move(batch));
  system.Flush();
  auto spilled = ListDirFiles(dir_);
  ASSERT_TRUE(spilled.ok());
  ASSERT_FALSE(spilled->empty()) << "nothing spilled";

  char tmpl[] = "/tmp/exstream_ckpt_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string ckpt = tmpl;
  FaultPlan plan;
  plan.mode = FaultMode::kDelay;
  plan.op = FaultOp::kWrite;
  plan.site = "dir-sync";
  plan.path_substring = dir_;
  plan.delay_ms = 0;
  {
    ScopedFaultInjection fault(plan);
    ASSERT_TRUE(system.Checkpoint(ckpt).ok());
    EXPECT_GE(FaultInjector::Global().hits(), 1u);
  }

  plan.mode = FaultMode::kFailOpen;
  const std::string failed_ckpt = ckpt + "/failed";
  ScopedFaultInjection fault(plan);
  const Status st = system.Checkpoint(failed_ckpt);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_FALSE(FileExists(failed_ckpt + "/MANIFEST"));
}

}  // namespace
}  // namespace exstream
