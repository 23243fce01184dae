// Crash/recovery tests for the durable ingest path: a system with a WAL (and
// optionally a checkpoint) is killed at several points — batch boundary,
// mid-batch via CrashingSink, torn final record, mid-checkpoint manifest
// fault — then a fresh system Recover()s and resumes the stream. The
// recovered match tables and archive contents must be bit-identical to an
// uncrashed run, on both simulator workloads.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "io/file_util.h"
#include "sim/chaos.h"
#include "sim/hadoop_sim.h"
#include "sim/supply_chain_sim.h"
#include "xstream/system.h"

namespace exstream {
namespace {

constexpr char kHadoopQueryText[] =
    "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) "
    "WHERE [jobId] "
    "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";
constexpr char kScQueryText[] =
    "PATTERN SEQ(ProductStart a, ProductProgress+ b[], ProductEnd c) "
    "WHERE [productId] "
    "RETURN (b[i].timestamp, a.productId, avg(b[1..i].quality))";

constexpr size_t kBatch = 64;

std::string MakeTempDir(const char* tag) {
  std::string tmpl = std::string("/tmp/exstream_") + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

struct Workload {
  std::unique_ptr<EventTypeRegistry> registry;
  std::vector<Event> events;
  std::string query_text;
  std::string query_name;
};

Workload MakeHadoopWorkload() {
  Workload w;
  w.registry = std::make_unique<EventTypeRegistry>();
  EXPECT_TRUE(HadoopClusterSim::RegisterEventTypes(w.registry.get()).ok());
  HadoopSimConfig cfg;
  cfg.num_nodes = 3;
  cfg.seed = 11;
  HadoopClusterSim sim(cfg, w.registry.get());
  for (int j = 0; j < 2; ++j) {
    HadoopJobConfig job;
    job.job_id = "job_" + std::to_string(j);
    job.program = "WC-frequent-users";
    job.dataset = "worldcup";
    job.start_time = j * 300;
    job.num_mappers = 6;
    job.num_reducers = 2;
    job.map_phase_duration = 150;
    sim.AddJob(job);
  }
  VectorSink sink;
  EXPECT_TRUE(sim.Run(&sink).ok());
  w.events = sink.events();
  w.query_text = kHadoopQueryText;
  w.query_name = "Q1";
  return w;
}

Workload MakeSupplyChainWorkload() {
  Workload w;
  w.registry = std::make_unique<EventTypeRegistry>();
  SupplyChainConfig cfg;
  cfg.num_sensors = 4;
  cfg.num_machines = 4;
  cfg.num_products = 2;
  cfg.seed = 23;
  EXPECT_TRUE(SupplyChainSim::RegisterEventTypes(w.registry.get(), cfg).ok());
  SupplyChainSim sim(cfg, w.registry.get());
  VectorSink sink;
  EXPECT_TRUE(sim.Run(&sink).ok());
  w.events = sink.events();
  w.query_text = kScQueryText;
  w.query_name = "Qsc";
  return w;
}

std::unique_ptr<XStreamSystem> MakeSystem(const Workload& w,
                                          const std::string& wal_dir,
                                          size_t segment_bytes, QueryId* qid) {
  XStreamConfig cfg;
  if (!wal_dir.empty()) {
    cfg.durability.wal_dir = wal_dir;
    cfg.durability.fsync = WalFsyncPolicy::kNone;  // crash != power loss here
    cfg.durability.wal_segment_bytes = segment_bytes;
  }
  auto sys = std::make_unique<XStreamSystem>(w.registry.get(), cfg);
  const auto q = sys->AddQuery(w.query_text, w.query_name);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  *qid = q.ok() ? *q : 0;
  return sys;
}

void Feed(EventSink* sink, const std::vector<Event>& events, size_t begin,
          size_t end) {
  for (size_t i = begin; i < end;) {
    const size_t n = std::min(kBatch, end - i);
    sink->OnEventBatch(EventBatch(events.begin() + i, events.begin() + i + n));
    i += n;
  }
}

// Everything monitoring-visible: match rows per partition (with completion),
// the engine's event counter, and a full archive scan.
std::string Fingerprint(XStreamSystem& sys, QueryId qid) {
  std::string out;
  const MatchTable& mt = sys.engine().match_table(qid);
  for (const std::string& p : mt.Partitions()) {
    out += "partition " + p + (mt.IsComplete(p) ? " complete\n" : " open\n");
    for (const MatchRow& row : mt.Rows(p)) {
      out += std::to_string(row.ts);
      for (const Value& v : row.values) {
        out += '|';
        out += v.ToString();
      }
      out += '\n';
    }
  }
  out += "events_processed=" +
         std::to_string(sys.engine().events_processed()) + '\n';
  const TimeInterval all{std::numeric_limits<Timestamp>::min(),
                         std::numeric_limits<Timestamp>::max()};
  const auto scans = sys.archive().ScanAll(all);
  EXPECT_TRUE(scans.ok()) << scans.status().ToString();
  if (scans.ok()) {
    for (const auto& ts : *scans) {
      out += "type " + std::to_string(ts.type) + '\n';
      for (const Event& e : ts.events) {
        out += std::to_string(e.ts);
        for (const Value& v : e.values) {
          out += '|';
          out += v.ToString();
        }
        out += '\n';
      }
    }
  }
  return out;
}

// Cuts `bytes` off the end of the newest WAL segment — the torn final record
// a crash mid-fwrite leaves behind.
void TearWalTail(const std::string& wal_dir, size_t bytes) {
  const auto files = ListDirFiles(wal_dir);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  std::vector<std::string> segs;
  for (const std::string& f : *files) {
    if (f.size() > 4 && f.compare(f.size() - 4, 4, ".seg") == 0) {
      segs.push_back(f);
    }
  }
  ASSERT_FALSE(segs.empty());
  const std::string path = wal_dir + "/" + segs.back();
  struct stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_GT(static_cast<size_t>(st.st_size), bytes);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - static_cast<off_t>(bytes)), 0);
}

enum class CrashCase {
  kBatchBoundary,       // clean kill between appends, WAL-only recovery
  kMidBatch,            // CrashingSink splits a batch at the kill point
  kAfterCheckpoint,     // checkpoint midway, kill later: manifest + WAL tail
  kTornTail,            // final record torn; its events are re-sent
  kMidCheckpointFault,  // MANIFEST write dies: WAL must still cover everything
};

void RunCrashCase(const Workload& w, CrashCase c) {
  ASSERT_GE(w.events.size(), 4 * kBatch) << "workload too small to crash";
  const std::string wal_dir = MakeTempDir("wal");
  const std::string ckpt_dir = MakeTempDir("ckpt");
  // Small segments in the checkpoint cases force rotations mid-run, so the
  // checkpoint exercises TruncateThrough on genuinely closed segments.
  const bool tiny_segments =
      c == CrashCase::kAfterCheckpoint || c == CrashCase::kMidCheckpointFault;
  const size_t segment_bytes = tiny_segments ? 2048 : 4u << 20;

  QueryId qid = 0;
  // Uncrashed baseline: same batches, no WAL.
  const auto baseline = MakeSystem(w, "", segment_bytes, &qid);
  Feed(baseline.get(), w.events, 0, w.events.size());
  baseline->Flush();
  const std::string want = Fingerprint(*baseline, qid);

  size_t crash = (w.events.size() / 2 / kBatch) * kBatch;
  if (c == CrashCase::kMidBatch) crash += 17;  // land inside a batch
  const size_t ckpt_at = (crash / 2 / kBatch) * kBatch;

  bool expect_manifest = false;
  {
    QueryId q2 = 0;
    auto sys = MakeSystem(w, wal_dir, segment_bytes, &q2);
    switch (c) {
      case CrashCase::kBatchBoundary:
      case CrashCase::kTornTail:
        Feed(sys.get(), w.events, 0, crash);
        break;
      case CrashCase::kMidBatch: {
        CrashingSink crasher(sys.get(), crash);
        Feed(&crasher, w.events, 0, w.events.size());
        EXPECT_TRUE(crasher.crashed());
        EXPECT_EQ(crasher.events_lost(), w.events.size() - crash);
        break;
      }
      case CrashCase::kAfterCheckpoint: {
        Feed(sys.get(), w.events, 0, ckpt_at);
        ASSERT_TRUE(sys->Checkpoint(ckpt_dir).ok());
        // The snapshot covers every closed segment; with 2 KiB segments there
        // must have been several to drop.
        EXPECT_GT(sys->wal()->stats().segments_deleted, 0u);
        Feed(sys.get(), w.events, ckpt_at, crash);
        expect_manifest = true;
        break;
      }
      case CrashCase::kMidCheckpointFault: {
        Feed(sys.get(), w.events, 0, ckpt_at);
        FaultPlan plan;
        plan.mode = FaultMode::kFailOpen;
        plan.op = FaultOp::kWrite;
        plan.path_substring = "MANIFEST";
        plan.max_hits = 1;
        FaultInjector::Global().Arm(plan);
        const Status st = sys->Checkpoint(ckpt_dir);
        FaultInjector::Global().Disarm();
        EXPECT_FALSE(st.ok()) << "manifest fault should fail the checkpoint";
        // The failed checkpoint must not have truncated anything.
        EXPECT_EQ(sys->wal()->stats().segments_deleted, 0u);
        Feed(sys.get(), w.events, ckpt_at, crash);
        break;
      }
    }
    // Crash: the system is destroyed without Flush or OnStreamEnd.
  }
  if (c == CrashCase::kTornTail) TearWalTail(wal_dir, 7);

  QueryId q3 = 0;
  auto recovered = MakeSystem(w, wal_dir, segment_bytes, &q3);
  const auto rep = recovered->Recover(
      (c == CrashCase::kAfterCheckpoint || c == CrashCase::kMidCheckpointFault)
          ? ckpt_dir
          : std::string());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->manifest_loaded, expect_manifest);
  EXPECT_EQ(rep->wal.torn_tail, c == CrashCase::kTornTail);

  // Everything the WAL (plus checkpoint) covered is back; the producer
  // re-sends from the first unlogged event.
  const size_t resume = static_cast<size_t>(
      std::max<uint64_t>(rep->checkpoint_seq, rep->wal.next_seq));
  EXPECT_EQ(recovered->engine().events_processed(), resume);
  if (c == CrashCase::kTornTail) {
    EXPECT_LT(resume, crash);  // the torn record's events were lost
    EXPECT_GE(resume, crash - kBatch);
  } else {
    EXPECT_EQ(resume, crash);
  }
  Feed(recovered.get(), w.events, resume, w.events.size());
  recovered->Flush();
  EXPECT_EQ(Fingerprint(*recovered, qid), want);
}

TEST(WalRecoveryTest, HadoopCrashAtBatchBoundary) {
  RunCrashCase(MakeHadoopWorkload(), CrashCase::kBatchBoundary);
}
TEST(WalRecoveryTest, HadoopCrashMidBatch) {
  RunCrashCase(MakeHadoopWorkload(), CrashCase::kMidBatch);
}
TEST(WalRecoveryTest, HadoopCrashAfterCheckpoint) {
  RunCrashCase(MakeHadoopWorkload(), CrashCase::kAfterCheckpoint);
}
TEST(WalRecoveryTest, HadoopTornTail) {
  RunCrashCase(MakeHadoopWorkload(), CrashCase::kTornTail);
}
TEST(WalRecoveryTest, HadoopMidCheckpointFault) {
  RunCrashCase(MakeHadoopWorkload(), CrashCase::kMidCheckpointFault);
}

TEST(WalRecoveryTest, SupplyChainCrashAtBatchBoundary) {
  RunCrashCase(MakeSupplyChainWorkload(), CrashCase::kBatchBoundary);
}
TEST(WalRecoveryTest, SupplyChainCrashMidBatch) {
  RunCrashCase(MakeSupplyChainWorkload(), CrashCase::kMidBatch);
}
TEST(WalRecoveryTest, SupplyChainCrashAfterCheckpoint) {
  RunCrashCase(MakeSupplyChainWorkload(), CrashCase::kAfterCheckpoint);
}
TEST(WalRecoveryTest, SupplyChainTornTail) {
  RunCrashCase(MakeSupplyChainWorkload(), CrashCase::kTornTail);
}
TEST(WalRecoveryTest, SupplyChainMidCheckpointFault) {
  RunCrashCase(MakeSupplyChainWorkload(), CrashCase::kMidCheckpointFault);
}

// Crashing twice must work: the first recovery's replay must NOT re-append
// the replayed batches into the live WAL. Re-appending would (a) duplicate
// the tail into new segments, so a second crash applies the same events
// twice, and (b) run the system's sequence cursor past the live WAL's, so
// every post-recovery append fails "sequence runs backwards" and is silently
// not durable.
void RunDoubleCrashCase(const Workload& w) {
  ASSERT_GE(w.events.size(), 4 * kBatch) << "workload too small to crash";
  const std::string wal_dir = MakeTempDir("wal");
  QueryId qid = 0;
  const auto baseline = MakeSystem(w, "", 4u << 20, &qid);
  Feed(baseline.get(), w.events, 0, w.events.size());
  baseline->Flush();
  const std::string want = Fingerprint(*baseline, qid);

  const size_t crash1 = (w.events.size() / 3 / kBatch) * kBatch;
  const size_t crash2 = (2 * w.events.size() / 3 / kBatch) * kBatch;
  ASSERT_LT(crash1, crash2);
  {
    QueryId q = 0;
    auto sys = MakeSystem(w, wal_dir, 4u << 20, &q);
    Feed(sys.get(), w.events, 0, crash1);
  }  // first crash
  {
    QueryId q = 0;
    auto sys = MakeSystem(w, wal_dir, 4u << 20, &q);
    const auto rep = sys->Recover(std::string());
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(rep->wal.next_seq, crash1);
    Feed(sys.get(), w.events, crash1, crash2);
    sys->Flush();
    // Post-recovery ingest keeps logging — and only logs the new events.
    EXPECT_EQ(sys->fault_stats().wal_append_failures, 0u);
    EXPECT_EQ(sys->wal()->stats().events_appended, crash2 - crash1);
  }  // second crash
  QueryId q = 0;
  auto recovered = MakeSystem(w, wal_dir, 4u << 20, &q);
  const auto rep = recovered->Recover(std::string());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->wal.next_seq, crash2);
  EXPECT_EQ(recovered->engine().events_processed(), crash2);
  Feed(recovered.get(), w.events, crash2, w.events.size());
  recovered->Flush();
  EXPECT_EQ(Fingerprint(*recovered, qid), want);
}

TEST(WalRecoveryTest, HadoopCrashRecoverCrashAgain) {
  RunDoubleCrashCase(MakeHadoopWorkload());
}
TEST(WalRecoveryTest, SupplyChainCrashRecoverCrashAgain) {
  RunDoubleCrashCase(MakeSupplyChainWorkload());
}

// Checkpointing twice into the same directory must never clobber chunk files
// the installed MANIFEST still references: if the second checkpoint dies
// before its manifest rename, the first checkpoint must still restore (the
// WAL was already truncated through it, so it is the only copy). Each
// checkpoint writes an epoch-stamped chunk set; the superseded set is
// reclaimed only after the new manifest lands.
void RunRecheckpointCase(const Workload& w, bool fault_second_manifest) {
  ASSERT_GE(w.events.size(), 4 * kBatch) << "workload too small to crash";
  const std::string wal_dir = MakeTempDir("wal");
  const std::string ckpt_dir = MakeTempDir("ckpt");
  QueryId qid = 0;
  const auto baseline = MakeSystem(w, "", 2048, &qid);
  Feed(baseline.get(), w.events, 0, w.events.size());
  baseline->Flush();
  const std::string want = Fingerprint(*baseline, qid);

  const size_t ckpt1 = (w.events.size() / 4 / kBatch) * kBatch;
  const size_t ckpt2 = (w.events.size() / 2 / kBatch) * kBatch;
  const size_t crash = (3 * w.events.size() / 4 / kBatch) * kBatch;
  ASSERT_LT(ckpt1, ckpt2);
  ASSERT_LT(ckpt2, crash);
  {
    QueryId q = 0;
    auto sys = MakeSystem(w, wal_dir, 2048, &q);
    Feed(sys.get(), w.events, 0, ckpt1);
    ASSERT_TRUE(sys->Checkpoint(ckpt_dir).ok());
    Feed(sys.get(), w.events, ckpt1, ckpt2);
    if (fault_second_manifest) {
      FaultPlan plan;
      plan.mode = FaultMode::kFailOpen;
      plan.op = FaultOp::kWrite;
      plan.path_substring = "MANIFEST";
      plan.max_hits = 1;
      FaultInjector::Global().Arm(plan);
      EXPECT_FALSE(sys->Checkpoint(ckpt_dir).ok());
      FaultInjector::Global().Disarm();
    } else {
      ASSERT_TRUE(sys->Checkpoint(ckpt_dir).ok());
    }
    Feed(sys.get(), w.events, ckpt2, crash);
  }  // crash

  QueryId q = 0;
  auto recovered = MakeSystem(w, wal_dir, 2048, &q);
  const auto rep = recovered->Recover(ckpt_dir);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_TRUE(rep->manifest_loaded);
  EXPECT_EQ(rep->checkpoint_seq, fault_second_manifest ? ckpt1 : ckpt2);
  EXPECT_EQ(recovered->engine().events_processed(), crash);
  Feed(recovered.get(), w.events, crash, w.events.size());
  recovered->Flush();
  EXPECT_EQ(Fingerprint(*recovered, qid), want);

  if (!fault_second_manifest) {
    // The first checkpoint's chunk files are garbage once the second manifest
    // is durably installed: exactly one epoch must remain in the directory.
    const auto files = ListDirFiles(ckpt_dir);
    ASSERT_TRUE(files.ok()) << files.status().ToString();
    std::string epochs;
    for (const std::string& f : *files) {
      if (f.compare(0, 6, "chunk_") != 0) continue;
      const std::string epoch = f.substr(6, f.find('_', 6) - 6);
      if (epochs.find("[" + epoch + "]") == std::string::npos) {
        epochs += "[" + epoch + "]";
      }
    }
    EXPECT_EQ(epochs, "[2]");
  }
}

TEST(WalRecoveryTest, HadoopRecheckpointSameDir) {
  RunRecheckpointCase(MakeHadoopWorkload(), false);
}
TEST(WalRecoveryTest, HadoopCrashMidSecondCheckpoint) {
  RunRecheckpointCase(MakeHadoopWorkload(), true);
}
TEST(WalRecoveryTest, SupplyChainCrashMidSecondCheckpoint) {
  RunRecheckpointCase(MakeSupplyChainWorkload(), true);
}

// The interval flusher fsyncs snapshotted FILE*s with the WAL mutex
// released; Sync() and TruncateThrough must wait out an in-flight pass
// instead of closing a handle the flusher still holds. Racing them against
// rotating appends makes a lost handoff crash under ASan/TSan.
TEST(WalRecoveryTest, FlusherSyncTruncateRace) {
  const Workload w = MakeHadoopWorkload();
  const std::string wal_dir = MakeTempDir("wal");
  WalOptions opts;
  opts.dir = wal_dir;
  opts.segment_bytes = 512;  // rotate on nearly every append
  opts.fsync = WalFsyncPolicy::kInterval;
  opts.fsync_interval_ms = 1;
  auto wal = WriteAheadLog::Open(std::move(opts));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  std::atomic<uint64_t> appended{0};
  std::atomic<bool> done{false};
  std::thread closer([&] {
    while (!done.load()) {
      (void)(*wal)->Sync();
      (void)(*wal)->TruncateThrough(appended.load());
    }
  });
  uint64_t seq = (*wal)->next_seq();
  const size_t limit = std::min<size_t>(w.events.size() - 4, 2000);
  for (size_t i = 0; i < limit; i += 4) {
    const EventBatch b(w.events.begin() + i, w.events.begin() + i + 4);
    ASSERT_TRUE((*wal)->Append(seq, b).ok());
    seq += 4;
    appended.store(seq);
  }
  done.store(true);
  closer.join();
  EXPECT_EQ((*wal)->next_seq(), seq);
}

// WAL records use the archive's columnar event frame: a Hadoop-simulator
// stream logged in 256-event batches stays well under the ~71 B/event the
// former row payload cost, and replays to the same events.
TEST(WalRecoveryTest, HadoopBatchesLogCompactly) {
  const Workload w = MakeHadoopWorkload();
  const std::string wal_dir = MakeTempDir("wal");
  WalOptions opts;
  opts.dir = wal_dir;
  opts.fsync = WalFsyncPolicy::kNone;
  auto wal = WriteAheadLog::Open(std::move(opts));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  constexpr size_t kWalBatch = 256;
  uint64_t seq = 0;
  for (size_t i = 0; i < w.events.size(); i += kWalBatch) {
    const size_t n = std::min(kWalBatch, w.events.size() - i);
    ASSERT_TRUE(
        (*wal)->Append(seq, EventBatch(w.events.begin() + i, w.events.begin() + i + n))
            .ok());
    seq += n;
  }
  ASSERT_TRUE((*wal)->Sync().ok());
  const auto stats = (*wal)->stats();
  ASSERT_EQ(stats.events_appended, w.events.size());
  const double bytes_per_event =
      static_cast<double>(stats.bytes_appended) / static_cast<double>(w.events.size());
  EXPECT_LT(bytes_per_event, 25.0) << stats.bytes_appended << " bytes for "
                                   << w.events.size() << " events";
  wal->reset();

  std::vector<Event> replayed;
  auto replay = WriteAheadLog::ReplayWithSeq(
      wal_dir, 0, [&](uint64_t, EventBatch batch) {
        replayed.insert(replayed.end(), batch.begin(), batch.end());
      });
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replayed.size(), w.events.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    ASSERT_EQ(replayed[i].type, w.events[i].type) << i;
    ASSERT_EQ(replayed[i].ts, w.events[i].ts) << i;
    ASSERT_EQ(replayed[i].values, w.events[i].values) << i;
  }
}

// A segment written by another log version (version 1 held row payloads)
// fails replay by name instead of being discarded as a torn tail.
TEST(WalRecoveryTest, OtherSegmentVersionFailsReplay) {
  const Workload w = MakeHadoopWorkload();
  const std::string wal_dir = MakeTempDir("wal");
  {
    WalOptions opts;
    opts.dir = wal_dir;
    opts.fsync = WalFsyncPolicy::kNone;
    auto wal = WriteAheadLog::Open(std::move(opts));
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(
        (*wal)->Append(0, EventBatch(w.events.begin(), w.events.begin() + 64)).ok());
  }
  const std::string path = wal_dir + "/wal-00000000000000000000.seg";
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const uint32_t old_version = 1;
  std::memcpy(data->data() + 4, &old_version, sizeof(old_version));
  ASSERT_TRUE(WriteFileAtomic(path, *data).ok());
  const auto replay =
      WriteAheadLog::ReplayWithSeq(wal_dir, 0, [](uint64_t, EventBatch) {});
  ASSERT_FALSE(replay.ok());
  EXPECT_TRUE(replay.status().IsCorruption()) << replay.status().ToString();
  EXPECT_NE(replay.status().message().find("unsupported segment version 1"),
            std::string::npos)
      << replay.status().ToString();
}

// Kill point: a crash *during* TruncateThrough while a replication pin holds
// segments. The pin clamps truncation (segments at or past it are the only
// copy a replication resume can serve from), deletion is oldest-first and
// stops on the first failure, so however far the truncation got before dying
// the surviving log is still a contiguous prefix-trimmed stream: recovery
// must replay every sequence from some start <= pin through the end exactly
// once — the pinned tail is neither lost nor double-replayed.
TEST(WalRecoveryTest, TruncateCrashWithReplicationPin) {
  const Workload w = MakeHadoopWorkload();
  const std::string wal_dir = MakeTempDir("wal");
  constexpr uint64_t kPin = 200;
  constexpr size_t kTotal = 400;
  ASSERT_GE(w.events.size(), kTotal);
  {
    WalOptions opts;
    opts.dir = wal_dir;
    opts.segment_bytes = 512;  // many small segments below and above the pin
    opts.fsync = WalFsyncPolicy::kNone;
    auto wal = WriteAheadLog::Open(std::move(opts));
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (size_t i = 0; i < kTotal; i += 4) {
      const EventBatch b(w.events.begin() + i, w.events.begin() + i + 4);
      ASSERT_TRUE((*wal)->Append(i, b).ok());
    }
    (*wal)->SetTruncatePin(kPin);

    // The checkpoint covers everything, but the pin clamps the truncation to
    // kPin — and the unlink of the second disposable segment dies mid-loop.
    FaultPlan plan;
    plan.mode = FaultMode::kFailOpen;
    plan.op = FaultOp::kDelete;
    plan.site = "file-delete";
    plan.path_substring = ".seg";
    plan.skip = 1;  // first segment deletes fine, the second does not
    plan.max_hits = 1;
    FaultInjector::Global().Arm(plan);
    const auto deleted = (*wal)->TruncateThrough(kTotal);
    const size_t hits = FaultInjector::Global().hits();
    FaultInjector::Global().Disarm();
    EXPECT_FALSE(deleted.ok()) << "the injected unlink failure must surface";
    EXPECT_EQ(hits, 1u);
  }  // crash mid-truncation

  // Recovery sees a contiguous stream: each replayed batch continues exactly
  // where the previous one ended (no holes, no repeats), starting at or
  // below the pin and reaching the end of the log.
  uint64_t replay_start = UINT64_MAX;
  uint64_t next = UINT64_MAX;
  const auto stats = WriteAheadLog::ReplayWithSeq(
      wal_dir, 0, [&](uint64_t first_seq, EventBatch batch) {
        if (replay_start == UINT64_MAX) {
          replay_start = first_seq;
        } else {
          EXPECT_EQ(first_seq, next) << "hole or repeat in the recovered WAL";
        }
        next = first_seq + batch.size();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_LE(replay_start, kPin) << "the pinned tail lost its head";
  EXPECT_EQ(next, kTotal);
  EXPECT_EQ(stats->next_seq, kTotal);

  // Reopening resumes the sequence, a still-pinned truncation keeps the tail
  // again, and clearing the pin finally reclaims the log.
  WalOptions opts;
  opts.dir = wal_dir;
  opts.segment_bytes = 512;
  opts.fsync = WalFsyncPolicy::kNone;
  auto wal = WriteAheadLog::Open(std::move(opts));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ((*wal)->next_seq(), kTotal);
  (*wal)->SetTruncatePin(kPin);
  ASSERT_TRUE((*wal)->TruncateThrough(kTotal).ok());
  uint64_t pinned_start = UINT64_MAX;
  const auto pinned = WriteAheadLog::ReplayWithSeq(
      wal_dir, 0, [&](uint64_t first_seq, EventBatch) {
        pinned_start = std::min(pinned_start, first_seq);
      });
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_LE(pinned_start, kPin);
  EXPECT_EQ(pinned->next_seq, kTotal);
  (*wal)->ClearTruncatePin();
  ASSERT_TRUE((*wal)->TruncateThrough(kTotal).ok());
  const auto files = ListDirFiles(wal_dir);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  size_t segs = 0;
  for (const std::string& f : *files) {
    if (f.size() > 4 && f.compare(f.size() - 4, 4, ".seg") == 0) ++segs;
  }
  EXPECT_EQ(segs, 1u) << "an unpinned truncation keeps only the last segment";
}

// Recover must refuse a system that already ingested events, and a system
// whose queries differ from the manifest's.
TEST(WalRecoveryTest, RecoverGuardsFreshnessAndQueryMatch) {
  const Workload w = MakeHadoopWorkload();
  const std::string wal_dir = MakeTempDir("wal");
  const std::string ckpt_dir = MakeTempDir("ckpt");
  QueryId qid = 0;
  {
    auto sys = MakeSystem(w, wal_dir, 4u << 20, &qid);
    Feed(sys.get(), w.events, 0, kBatch);
    ASSERT_TRUE(sys->Checkpoint(ckpt_dir).ok());
  }
  {
    // Not fresh: events already ingested.
    auto sys = MakeSystem(w, "", 4u << 20, &qid);
    Feed(sys.get(), w.events, 0, kBatch);
    sys->Flush();
    EXPECT_FALSE(sys->Recover(ckpt_dir).ok());
  }
  {
    // No queries added: manifest mismatch.
    XStreamConfig cfg;
    XStreamSystem sys(w.registry.get(), cfg);
    EXPECT_FALSE(sys.Recover(ckpt_dir).ok());
  }
}

// A manifest of a retired format version is refused by name, even with a
// valid checksum, rather than misparsed.
TEST(WalRecoveryTest, RetiredManifestVersionIsRejected) {
  const Workload w = MakeHadoopWorkload();
  const std::string ckpt_dir = MakeTempDir("ckpt");
  QueryId qid = 0;
  {
    auto sys = MakeSystem(w, "", 4u << 20, &qid);
    Feed(sys.get(), w.events, 0, kBatch);
    ASSERT_TRUE(sys->Checkpoint(ckpt_dir).ok());
  }
  // Framing: u32 CRC of the rest, u32 magic, u32 version.
  const std::string path = ckpt_dir + "/MANIFEST";
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string manifest = *bytes;
  ASSERT_GE(manifest.size(), 12u);
  const uint32_t v2 = 2;
  std::memcpy(manifest.data() + 8, &v2, sizeof(v2));
  const uint32_t crc = Crc32(manifest.data() + 4, manifest.size() - 4);
  std::memcpy(manifest.data(), &crc, sizeof(crc));
  ASSERT_TRUE(WriteFileAtomic(path, manifest).ok());

  auto sys = MakeSystem(w, "", 4u << 20, &qid);
  const auto rep = sys->Recover(ckpt_dir);
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(rep.status().IsCorruption()) << rep.status().ToString();
  EXPECT_NE(rep.status().ToString().find("version 2"), std::string::npos)
      << rep.status().ToString();
}

// Checkpoint round-trip of a spilling archive: spilled chunks come back as
// index entries over their (already durable) spill files, resident-sealed
// and open chunks from their checkpoint chunk files, and the restored
// archive scans every row back bit-identically with no degradation.
TEST(WalRecoveryTest, CheckpointRestoresSpilledChunks) {
  EventTypeRegistry registry;
  ASSERT_TRUE(
      registry.Register(EventSchema("A", {{"x", ValueType::kDouble}})).ok());
  const std::string spill_dir = MakeTempDir("restore_spill");
  const std::string ckpt_dir = MakeTempDir("restore_ckpt");
  ArchiveOptions options;
  options.chunk_capacity = 8;
  options.spill_dir = spill_dir;
  options.max_resident_chunks = 2;
  EventArchive archive(&registry, options);
  for (Timestamp t = 0; t < 120; ++t) {
    ASSERT_TRUE(
        archive.Append(Event(0, t, {Value(static_cast<double>(t))})).ok());
  }
  const auto spilled = ListDirFiles(spill_dir);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  ASSERT_FALSE(spilled->empty()) << "no chunk spilled";

  BytesWriter snapshot;
  auto epoch = archive.CheckpointTo(ckpt_dir, &snapshot);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  EventArchive restored(&registry, options);
  BytesReader reader(snapshot.str());
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_EQ(restored.TotalEvents(), 120u);
  EXPECT_EQ(restored.NumChunks(0), archive.NumChunks(0));

  DegradationReport orig_deg;
  DegradationReport rest_deg;
  auto orig = archive.Scan(0, {0, 119}, &orig_deg);
  auto rest = restored.Scan(0, {0, 119}, &rest_deg);
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(rest.ok());
  EXPECT_FALSE(orig_deg.degraded());
  EXPECT_FALSE(rest_deg.degraded());
  ASSERT_EQ(rest->size(), 120u);
  ASSERT_EQ(rest->size(), orig->size());
  for (size_t i = 0; i < rest->size(); ++i) {
    EXPECT_EQ((*rest)[i].ts, (*orig)[i].ts);
    EXPECT_EQ((*rest)[i].values[0].AsDouble(), (*orig)[i].values[0].AsDouble());
  }
}

}  // namespace
}  // namespace exstream
