// Resilience tests: spill format v2 checksums, the error-code taxonomy
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

// Alternating event types: mixed-type batches are what the v2 row layout
// carries (single-type ones serialize as v4 columns).
std::vector<Event> MakeMixedEvents(size_t n) {
  std::vector<Event> events = MakeEvents(n);
  for (size_t i = 1; i < n; i += 2) events[i].type = 1;
  return events;
}

TEST(SpillCodecTest, V2RoundTrip) {
  const std::vector<Event> events = MakeMixedEvents(64);
  const std::string data = SerializeEvents(events);
  auto parsed = DeserializeEvents(data);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 64u);
  EXPECT_DOUBLE_EQ((*parsed)[10].values[0].AsDouble(), 5.0);
  EXPECT_EQ((*parsed)[11].type, 1u);
}

TEST(SpillCodecTest, ChecksumCatchesBitFlip) {
  std::string data = SerializeEvents(MakeMixedEvents(8));
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x01);
  const Status st = DeserializeEvents(data).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("checksum"), std::string::npos) << st.ToString();
}

TEST(SpillCodecTest, TruncationHasItsOwnCode) {
  // A v4 buffer cut mid-block reads as Truncated, with the byte offset.
  const std::string v4 = SerializeEvents(MakeEvents(8));
  const Status cut_payload =
      DeserializeEvents(std::string_view(v4).substr(0, v4.size() - 3)).status();
  EXPECT_TRUE(cut_payload.IsTruncated()) << cut_payload.ToString();
  EXPECT_NE(cut_payload.message().find("offset"), std::string::npos);

  // A v2 buffer cut mid-header is Truncated too...
  const std::string v2 = SerializeEvents(MakeMixedEvents(8));
  EXPECT_TRUE(DeserializeEvents(std::string_view(v2).substr(0, 10))
                  .status()
                  .IsTruncated());
  // ...but a v2 buffer cut mid-payload fails its checksum first: Corruption.
  EXPECT_TRUE(DeserializeEvents(std::string_view(v2).substr(0, v2.size() - 3))
                  .status()
                  .IsCorruption());
}

TEST(SpillCodecTest, HugeHeaderCountRejectedBeforeAllocation) {
  // The count lives outside the checksummed payload, so a patched count must
  // be caught by the size bound, not the CRC — and without a giant reserve.
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

// Finds chunk 0's spill file in `dir`, skipping its `.tiers` sidecar (and any
// `.quarantine` leftovers) — the rot tests must hit the primary bytes.
std::string FindChunk0Spill(const std::string& dir) {
  std::string victim;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return victim;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.find("type0_chunk0_") == std::string::npos) continue;
    if (name.size() >= 6 && name.compare(name.size() - 6, 6, ".tiers") == 0) {
      continue;
    }
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
  // Default spill format: v4 compressed columnar. A bit flip inside a
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
  // The tier sidecar survives the quarantine: coarse scans can still be
  // answered even though the raw bytes are gone for triage.
  EXPECT_TRUE(FileExists(victim + ".tiers"));
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
