// Loopback parent/child replication tests: a child XStreamSystem streams its
// durable event stream to a parent XStreamSystem through the
// ReplicationSender -> TCP -> ReplicationReceiver pipeline, and the parent's
// monitoring state (match tables, archive contents, Explain output) must be
// bit-identical to a single-node system fed the same stream — under a clean
// link, under every injected link fault (fail, delay, truncation, corruption,
// reset, refused connects), across a child crash + WAL recovery, across a
// parent crash + WAL recovery, and through a parent outage long enough to
// overflow the child's bounded replication queue (where the loss must be
// counted, pinned out of WAL truncation, and disclosed in the parent's
// DegradationReport instead of silently vanishing).

#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "net/frame.h"
#include "net/replication_receiver.h"
#include "net/socket.h"
#include "sim/hadoop_sim.h"
#include "xstream/system.h"

namespace exstream {
namespace {

constexpr char kQ1[] =
    "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
    "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))";

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
};

// One anomalous Hadoop job, so parent-side Explain has something to explain.
Workload MakeWorkload() {
  Workload w;
  w.registry = std::make_unique<EventTypeRegistry>();
  EXPECT_TRUE(HadoopClusterSim::RegisterEventTypes(w.registry.get()).ok());
  HadoopSimConfig cfg;
  cfg.num_nodes = 3;
  cfg.seed = 77;
  HadoopClusterSim sim(cfg, w.registry.get());
  HadoopJobConfig job;
  job.job_id = "job-x";
  job.program = "p";
  job.dataset = "d";
  sim.AddJob(job);
  AnomalySpec anomaly;
  anomaly.type = AnomalyType::kHighMemory;
  anomaly.start = 60;
  anomaly.end = 300;
  sim.AddAnomaly(anomaly);
  VectorSink sink;
  EXPECT_TRUE(sim.Run(&sink).ok());
  w.events = sink.events();
  return w;
}

XStreamConfig BaseConfig() {
  XStreamConfig config;
  config.explain.feature_space.windows = {10};
  return config;
}

// Fast-converging sender knobs for loopback tests.
ReplicationSenderOptions SenderOptions(uint16_t port) {
  ReplicationSenderOptions r;
  r.port = port;
  r.chunk_events = 64;
  r.max_pending_chunks = 512;
  r.connect_timeout_ms = 500;
  r.io_timeout_ms = 500;
  r.idle_poll_ms = 5;
  r.reconnect.base_backoff_ms = 5.0;
  r.reconnect.max_backoff_ms = 100.0;
  return r;
}

std::unique_ptr<XStreamSystem> MakeSystem(
    const Workload& w, QueryId* qid, const std::string& wal_dir = "",
    std::optional<ReplicationSenderOptions> replication = std::nullopt) {
  XStreamConfig cfg = BaseConfig();
  if (!wal_dir.empty()) {
    cfg.durability.wal_dir = wal_dir;
    cfg.durability.fsync = WalFsyncPolicy::kNone;
    cfg.durability.wal_segment_bytes = 64u << 10;
  }
  cfg.replication = std::move(replication);
  auto sys = std::make_unique<XStreamSystem>(w.registry.get(), cfg);
  const auto q = sys->AddQuery(kQ1, "Q1");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  *qid = q.ok() ? *q : 0;
  return sys;
}

ReplicationReceiverOptions ReceiverOptions(uint16_t port,
                                           const std::string& state_path = "") {
  ReplicationReceiverOptions r;
  r.port = port;
  r.io_timeout_ms = 100;  // bounds Stop() latency in tests
  if (!state_path.empty()) r.state_path = state_path;
  return r;
}

void Feed(EventSink* sink, const std::vector<Event>& events, size_t begin,
          size_t end) {
  for (size_t i = begin; i < end;) {
    const size_t n = std::min(kBatch, end - i);
    sink->OnEventBatch(EventBatch(events.begin() + i, events.begin() + i + n));
    i += n;
  }
}

// Everything monitoring-visible: match rows per partition, the engine's event
// counter, and a full archive scan (same shape as wal_recovery_test).
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

Result<ExplanationReport> RunExplain(XStreamSystem& sys, QueryId qid) {
  EXSTREAM_RETURN_NOT_OK(sys.IndexPartitions(qid, {{"program", "p"}}));
  AnomalyAnnotation annotation;
  annotation.abnormal = {"Q1", {60, 300}, "job-x"};
  annotation.reference = {"Q1", {360, 600}, "job-x"};
  return sys.Explain(annotation, qid, "sum_dataSize");
}

// The uncrashed single-node truth every replication topology must reproduce.
struct SingleNodeTruth {
  std::string fingerprint;
  std::vector<std::string> features;
};

SingleNodeTruth MakeTruth(const Workload& w) {
  QueryId qid = 0;
  auto baseline = MakeSystem(w, &qid);
  Feed(baseline.get(), w.events, 0, w.events.size());
  baseline->Flush();
  SingleNodeTruth truth;
  truth.fingerprint = Fingerprint(*baseline, qid);
  auto report = RunExplain(*baseline, qid);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) truth.features = report->SelectedFeatureNames();
  EXPECT_FALSE(truth.features.empty());
  return truth;
}

TEST(ReplicationTest, ParentIsBitIdenticalToSingleNode) {
  const Workload w = MakeWorkload();
  const SingleNodeTruth truth = MakeTruth(w);

  QueryId parent_qid = 0;
  auto parent = MakeSystem(w, &parent_qid);
  ReplicationReceiver receiver(parent.get(), ReceiverOptions(0));
  ASSERT_TRUE(receiver.Start().ok());

  QueryId child_qid = 0;
  auto child =
      MakeSystem(w, &child_qid, "", SenderOptions(receiver.port()));
  Feed(child.get(), w.events, 0, w.events.size());
  child->Flush();
  ASSERT_TRUE(child->replication()->WaitForDrain(30000));
  receiver.Stop();
  parent->Flush();

  const auto rstats = receiver.stats();
  EXPECT_GT(rstats.chunks_applied, 0u);
  EXPECT_EQ(rstats.events_applied, w.events.size());
  EXPECT_EQ(rstats.gap_events, 0u);
  EXPECT_EQ(rstats.frame_errors, 0u);
  EXPECT_EQ(receiver.watermark(), w.events.size());

  EXPECT_EQ(Fingerprint(*parent, parent_qid), truth.fingerprint);
  auto report = RunExplain(*parent, parent_qid);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->SelectedFeatureNames(), truth.features);
  EXPECT_FALSE(report->degradation.degraded());
}

// Before a chunk seals, the parent sees the child's unsealed spool via
// WALTAIL frames — a parent-side Explain never waits for a chunk boundary.
TEST(ReplicationTest, WalTailAloneReplicatesEverything) {
  const Workload w = MakeWorkload();
  const SingleNodeTruth truth = MakeTruth(w);

  QueryId parent_qid = 0;
  auto parent = MakeSystem(w, &parent_qid);
  ReplicationReceiver receiver(parent.get(), ReceiverOptions(0));
  ASSERT_TRUE(receiver.Start().ok());

  ReplicationSenderOptions opts = SenderOptions(receiver.port());
  opts.chunk_events = w.events.size() + 1;  // never seals a chunk
  QueryId child_qid = 0;
  auto child = MakeSystem(w, &child_qid, "", opts);
  Feed(child.get(), w.events, 0, w.events.size());
  child->Flush();
  ASSERT_TRUE(child->replication()->WaitForDrain(30000));
  receiver.Stop();
  parent->Flush();

  const auto rstats = receiver.stats();
  EXPECT_EQ(rstats.chunks_applied, 0u);
  EXPECT_GT(rstats.tail_frames_applied, 0u);
  EXPECT_EQ(receiver.watermark(), w.events.size());
  EXPECT_EQ(Fingerprint(*parent, parent_qid), truth.fingerprint);
}

// The link-fault matrix: every FaultMode the injector can deliver, on every
// socket seam (connect / send / recv). The injected faults tear sessions mid
// frame; the sender must reconnect, resume from the HELLOACK watermark, and
// converge on the bit-identical parent state with nothing lost or doubled.
struct LinkFaultCase {
  const char* name;
  const char* site;
  FaultOp op;
  FaultMode mode;
  int max_hits;
  int skip;
};

void RunLinkFaultCase(const Workload& w, const SingleNodeTruth& truth,
                      const LinkFaultCase& c) {
  SCOPED_TRACE(c.name);
  QueryId parent_qid = 0;
  auto parent = MakeSystem(w, &parent_qid);
  ReplicationReceiver receiver(parent.get(), ReceiverOptions(0));
  ASSERT_TRUE(receiver.Start().ok());

  FaultPlan plan;
  plan.mode = c.mode;
  plan.op = c.op;
  plan.site = c.site;
  plan.skip = c.skip;
  plan.max_hits = c.max_hits;
  plan.delay_ms = 2;
  // Armed before the child exists, so even the first connect is exposed.
  FaultInjector::Global().Arm(plan);

  QueryId child_qid = 0;
  auto child =
      MakeSystem(w, &child_qid, "", SenderOptions(receiver.port()));
  Feed(child.get(), w.events, 0, w.events.size());
  child->Flush();
  const bool drained = child->replication()->WaitForDrain(60000);
  const size_t hits = FaultInjector::Global().hits();
  FaultInjector::Global().Disarm();
  ASSERT_TRUE(drained) << "replication did not converge under " << c.name;
  EXPECT_GT(hits, 0u) << "fault plan never fired; the case tested nothing";

  receiver.Stop();
  parent->Flush();
  const auto rstats = receiver.stats();
  EXPECT_EQ(rstats.gap_events, 0u) << "a link fault must never shed events";
  EXPECT_EQ(receiver.watermark(), w.events.size());
  EXPECT_EQ(Fingerprint(*parent, parent_qid), truth.fingerprint);
  child.reset();
}

TEST(ReplicationTest, SendFaultMatrix) {
  const Workload w = MakeWorkload();
  const SingleNodeTruth truth = MakeTruth(w);
  const LinkFaultCase cases[] = {
      {"send-fail", "repl-send", FaultOp::kSend, FaultMode::kFailOpen, 3, 2},
      {"send-reset", "repl-send", FaultOp::kSend, FaultMode::kReset, 3, 5},
      {"send-truncate", "repl-send", FaultOp::kSend, FaultMode::kTruncate, 3, 1},
      {"send-corrupt", "repl-send", FaultOp::kSend, FaultMode::kCorruptBytes, 3,
       4},
      {"send-delay", "repl-send", FaultOp::kSend, FaultMode::kDelay, 50, 0},
  };
  for (const LinkFaultCase& c : cases) RunLinkFaultCase(w, truth, c);
}

TEST(ReplicationTest, RecvAndConnectFaultMatrix) {
  const Workload w = MakeWorkload();
  const SingleNodeTruth truth = MakeTruth(w);
  const LinkFaultCase cases[] = {
      {"recv-fail", "repl-recv", FaultOp::kRecv, FaultMode::kFailOpen, 3, 2},
      {"recv-reset", "repl-recv", FaultOp::kRecv, FaultMode::kReset, 3, 5},
      {"recv-truncate", "repl-recv", FaultOp::kRecv, FaultMode::kTruncate, 3, 1},
      {"recv-corrupt", "repl-recv", FaultOp::kRecv, FaultMode::kCorruptBytes, 3,
       4},
      {"connect-fail", "repl-connect", FaultOp::kConnect, FaultMode::kFailOpen,
       2, 0},
      {"connect-reset", "repl-connect", FaultOp::kConnect, FaultMode::kReset, 2,
       0},
  };
  for (const LinkFaultCase& c : cases) RunLinkFaultCase(w, truth, c);
}

// Child crash: the child dies mid-stream, a fresh child recovers from its
// WAL (which the replication pin kept intact), rebuilds the sender's spool by
// replaying the log, and resumes. The parent dedupes the resent overlap by
// seq, so nothing applies twice.
TEST(ReplicationTest, ChildCrashRecoverResume) {
  const Workload w = MakeWorkload();
  const SingleNodeTruth truth = MakeTruth(w);
  const std::string wal_dir = MakeTempDir("repl_child_wal");

  QueryId parent_qid = 0;
  auto parent = MakeSystem(w, &parent_qid);
  ReplicationReceiver receiver(parent.get(), ReceiverOptions(0));
  ASSERT_TRUE(receiver.Start().ok());
  const uint16_t port = receiver.port();

  const size_t crash = (w.events.size() / 2 / kBatch) * kBatch;
  {
    QueryId child_qid = 0;
    auto child = MakeSystem(w, &child_qid, wal_dir, SenderOptions(port));
    Feed(child.get(), w.events, 0, crash);
    child->Flush();
    // Crash with replication mid-flight: some chunks acked, some not.
  }

  QueryId child_qid = 0;
  auto child = MakeSystem(w, &child_qid, wal_dir, SenderOptions(port));
  const auto rep = child->Recover(std::string());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->wal.next_seq, crash);
  Feed(child.get(), w.events, crash, w.events.size());
  child->Flush();
  ASSERT_TRUE(child->replication()->WaitForDrain(30000));
  receiver.Stop();
  parent->Flush();

  const auto rstats = receiver.stats();
  EXPECT_EQ(rstats.gap_events, 0u);
  EXPECT_EQ(rstats.events_applied, w.events.size());
  EXPECT_EQ(receiver.watermark(), w.events.size());
  EXPECT_EQ(Fingerprint(*parent, parent_qid), truth.fingerprint);
}

// Parent crash: ACKs are durability promises (the parent fsyncs its WAL
// before acking), so a parent that crashes and recovers from its WAL resumes
// with a watermark at or past everything it acked; the child's retransmits
// of the unacked suffix dedupe against it.
TEST(ReplicationTest, ParentCrashRecoverResume) {
  const Workload w = MakeWorkload();
  const SingleNodeTruth truth = MakeTruth(w);
  const std::string parent_wal = MakeTempDir("repl_parent_wal");
  const std::string state_path = MakeTempDir("repl_state") + "/gap.state";

  QueryId child_qid = 0;
  std::unique_ptr<XStreamSystem> child;
  uint16_t port = 0;
  const size_t half = (w.events.size() / 2 / kBatch) * kBatch;
  {
    QueryId parent_qid = 0;
    auto parent = MakeSystem(w, &parent_qid, parent_wal);
    ReplicationReceiver receiver(parent.get(),
                                 ReceiverOptions(0, state_path));
    ASSERT_TRUE(receiver.Start().ok());
    port = receiver.port();

    child = MakeSystem(w, &child_qid, "", SenderOptions(port));
    Feed(child.get(), w.events, 0, half);
    child->Flush();
    ASSERT_TRUE(child->replication()->WaitForDrain(30000));
    receiver.Stop();
    // Parent crash: receiver and system destroyed; only its WAL and the gap
    // state file survive. The child stays up, retrying against a dead port.
  }

  QueryId parent_qid = 0;
  auto parent = MakeSystem(w, &parent_qid, parent_wal);
  const auto rep = parent->Recover(std::string());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->wal.next_seq, half);
  ReplicationReceiver receiver(parent.get(),
                               ReceiverOptions(port, state_path));
  ASSERT_TRUE(receiver.Start().ok());

  Feed(child.get(), w.events, half, w.events.size());
  child->Flush();
  ASSERT_TRUE(child->replication()->WaitForDrain(30000));
  const auto cstats = child->replication()->stats();
  EXPECT_GE(cstats.reconnects + cstats.connect_failures, 1u)
      << "the child never noticed the parent outage";
  receiver.Stop();
  parent->Flush();

  EXPECT_EQ(receiver.stats().gap_events, 0u);
  EXPECT_EQ(receiver.watermark(), w.events.size());
  EXPECT_EQ(Fingerprint(*parent, parent_qid), truth.fingerprint);
  auto report = RunExplain(*parent, parent_qid);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->SelectedFeatureNames(), truth.features);
}

// A parent outage long enough to overflow the child's bounded replication
// queue: the oldest unacked chunks are shed (bounded memory beats unbounded
// spooling), the loss shows up in the child's fault_stats(), and — once the
// parent is back — the seq gap is detected, persisted, and disclosed in the
// parent's DegradationReport. Lost means *disclosed*, never silent.
TEST(ReplicationTest, ParentOutageShedsAndDisclosesTheGap) {
  const Workload w = MakeWorkload();
  const std::string state_path = MakeTempDir("repl_state") + "/gap.state";

  QueryId parent_qid = 0;
  auto parent = MakeSystem(w, &parent_qid);
  auto receiver = std::make_unique<ReplicationReceiver>(
      parent.get(), ReceiverOptions(0, state_path));
  ASSERT_TRUE(receiver->Start().ok());
  const uint16_t port = receiver->port();

  ReplicationSenderOptions opts = SenderOptions(port);
  opts.chunk_events = 16;
  // Large enough to hold the whole phase-1 workload even if the sender
  // thread drains nothing during the synchronous feed — phase 1 must not
  // shed no matter how the feed races the socket.
  opts.max_pending_chunks = (w.events.size() / opts.chunk_events) + 8;
  QueryId child_qid = 0;
  auto child = MakeSystem(w, &child_qid, "", opts);

  // Phase 1: the real workload replicates cleanly (nothing pending).
  Feed(child.get(), w.events, 0, w.events.size());
  child->Flush();
  ASSERT_TRUE(child->replication()->WaitForDrain(30000));
  ASSERT_EQ(receiver->stats().gap_events, 0u);

  // Phase 2: parent outage. A burst of time-shifted metric events (they touch
  // no pattern matches) overflows the pending queue — the queue is empty
  // after the drain, so the burst must exceed its whole capacity.
  receiver->Stop();
  receiver.reset();
  const auto cpu_type = w.registry->IdOf("CpuUsage");
  ASSERT_TRUE(cpu_type.ok());
  EventBatch burst;
  const size_t burst_target =
      (opts.max_pending_chunks + 64) * opts.chunk_events;
  for (Timestamp shift = 100000; burst.size() < burst_target;
       shift += 100000) {
    for (const Event& e : w.events) {
      if (e.type == *cpu_type) {
        Event shifted = e;
        shifted.ts += shift;
        burst.push_back(std::move(shifted));
      }
    }
  }
  ASSERT_GT(burst.size(), opts.max_pending_chunks * opts.chunk_events);
  Feed(child.get(), burst, 0, burst.size());
  child->Flush();
  const auto mid = child->fault_stats();
  ASSERT_GT(mid.repl_shed_events, 0u);
  ASSERT_GT(mid.repl_shed_chunks, 0u);

  // Phase 3: the parent returns on the same port. The child resumes from its
  // shed floor; the parent sees the seq jump, records the gap, and keeps
  // applying what survived.
  parent->Flush();
  receiver = std::make_unique<ReplicationReceiver>(
      parent.get(), ReceiverOptions(port, state_path));
  ASSERT_TRUE(receiver->Start().ok());
  ASSERT_TRUE(child->replication()->WaitForDrain(30000));
  receiver->Stop();
  parent->Flush();

  const auto cstats = child->replication()->stats();
  const auto rstats = receiver->stats();
  // The parent discloses exactly what it lost. That can be slightly less
  // than the child's shed count: the outage races the in-flight session, so
  // a few "shed" events may already have been applied (but not yet acked)
  // before the link died — applied-then-shed is not a loss. It can never be
  // more.
  EXPECT_GT(rstats.gap_events, 0u);
  EXPECT_LE(rstats.gap_events, cstats.shed_events);
  EXPECT_EQ(receiver->watermark(), w.events.size() + burst.size());
  EXPECT_EQ(parent->engine().events_processed() + rstats.gap_events,
            w.events.size() + burst.size())
      << "every event is either applied by the parent or disclosed as gap";

  // The loss is disclosed: a parent-side Explain is marked degraded with the
  // gap count, exactly like locally shed events.
  auto report = RunExplain(*parent, parent_qid);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degradation.degraded());
  EXPECT_EQ(report->degradation.events_shed, rstats.gap_events);
}

// The receiver's watermark arithmetic survives a parent restart even though
// the shed events never reached the parent's WAL: the gap total is persisted
// in the EXRG state file and added back to the recovered seq.
TEST(ReplicationTest, GapStateFileSurvivesParentRestart) {
  const Workload w = MakeWorkload();
  const std::string state_path = MakeTempDir("repl_state") + "/gap.state";
  const std::string parent_wal = MakeTempDir("repl_parent_wal");

  uint16_t port = 0;
  uint64_t watermark_before = 0;
  uint64_t gap_before = 0;
  const size_t total = w.events.size();
  {
    QueryId parent_qid = 0;
    auto parent = MakeSystem(w, &parent_qid, parent_wal);
    ReplicationReceiver receiver(parent.get(), ReceiverOptions(0, state_path));
    ASSERT_TRUE(receiver.Start().ok());
    port = receiver.port();

    ReplicationSenderOptions opts = SenderOptions(port);
    opts.chunk_events = 16;
    opts.max_pending_chunks = 2;
    QueryId child_qid = 0;
    auto child = MakeSystem(w, &child_qid, "", opts);
    // Sever the link first (kill every send), then feed: everything sheds
    // past the two pending chunks, guaranteeing a nonzero gap.
    FaultPlan plan;
    plan.mode = FaultMode::kFailOpen;
    plan.op = FaultOp::kSend;
    plan.site = "repl-send";
    FaultInjector::Global().Arm(plan);
    Feed(child.get(), w.events, 0, total / 2);
    child->Flush();
    ASSERT_GT(child->fault_stats().repl_shed_events, 0u);
    FaultInjector::Global().Disarm();
    Feed(child.get(), w.events, total / 2, total);
    child->Flush();
    ASSERT_TRUE(child->replication()->WaitForDrain(30000));
    gap_before = receiver.stats().gap_events;
    ASSERT_GT(gap_before, 0u);
    watermark_before = receiver.watermark();
    EXPECT_EQ(watermark_before, total);
    receiver.Stop();
    // Parent crash.
  }

  QueryId parent_qid = 0;
  auto parent = MakeSystem(w, &parent_qid, parent_wal);
  ASSERT_TRUE(parent->Recover(std::string()).ok());
  ReplicationReceiver receiver(parent.get(), ReceiverOptions(port, state_path));
  ASSERT_TRUE(receiver.Start().ok());
  // recovered seq + persisted gap == the pre-crash watermark: a reconnecting
  // child resumes exactly where it left off instead of re-sending (or worse,
  // re-applying) the gap region.
  EXPECT_EQ(receiver.watermark(), watermark_before);
  receiver.Stop();
}

// Tenant isolation: a child for the wrong tenant is rejected at HELLO and
// applies nothing.
TEST(ReplicationTest, WrongTenantRejected) {
  const Workload w = MakeWorkload();
  QueryId parent_qid = 0;
  auto parent = MakeSystem(w, &parent_qid);
  ReplicationReceiverOptions ropts = ReceiverOptions(0);
  ropts.tenant = "prod";
  ReplicationReceiver receiver(parent.get(), ropts);
  ASSERT_TRUE(receiver.Start().ok());

  ReplicationSenderOptions sopts = SenderOptions(receiver.port());
  sopts.tenant = "staging";
  ReplicationSender sender(sopts);
  sender.Start();
  sender.OnBatch(0, EventBatch(w.events.begin(), w.events.begin() + 8));
  for (int i = 0; i < 200 && sender.stats().hello_rejects == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  sender.Stop();
  receiver.Stop();
  EXPECT_GT(sender.stats().hello_rejects, 0u);
  EXPECT_GT(receiver.stats().hellos_rejected, 0u);
  EXPECT_EQ(receiver.stats().events_applied, 0u);
  EXPECT_EQ(parent->engine().events_processed(), 0u);
}

// Version skew: a HELLO speaking a different protocol version gets a
// HELLOACK rejection naming both versions — never a half-spoken session.
TEST(ReplicationTest, ProtocolVersionSkewRejected) {
  const Workload w = MakeWorkload();
  QueryId parent_qid = 0;
  auto parent = MakeSystem(w, &parent_qid);
  ReplicationReceiver receiver(parent.get(), ReceiverOptions(0));
  ASSERT_TRUE(receiver.Start().ok());

  auto sock = TcpSocket::Connect("127.0.0.1", receiver.port(), 1000);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  HelloFrame hello;
  hello.protocol_version = kReplProtocolVersion + 1;
  hello.tenant = "default";
  hello.node_id = "future-child";
  ASSERT_TRUE(sock->SendAll(EncodeFrame(FrameType::kHello, hello.Encode())).ok());

  FrameDecoder decoder;
  char buf[4096];
  HelloAckFrame ack;
  bool got_ack = false;
  for (int i = 0; i < 100 && !got_ack; ++i) {
    auto n = sock->Recv(buf, sizeof(buf), 100);
    if (!n.ok() || *n == 0) continue;
    decoder.Feed(std::string_view(buf, *n));
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (!frame->has_value()) continue;
    ASSERT_EQ((*frame)->type, FrameType::kHelloAck);
    auto decoded = HelloAckFrame::Decode((*frame)->payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ack = *decoded;
    got_ack = true;
  }
  receiver.Stop();
  ASSERT_TRUE(got_ack);
  EXPECT_FALSE(ack.accepted);
  EXPECT_NE(ack.message.find("version"), std::string::npos) << ack.message;
  EXPECT_GT(receiver.stats().hellos_rejected, 0u);
}

// The replication pin in action: while the parent is unreachable, Checkpoint
// must not truncate WAL segments the parent has not acked — they are the only
// copy a recovering child can resend from. Once the parent catches up, the
// next checkpoint reclaims them.
TEST(ReplicationTest, CheckpointHonorsReplicationPin) {
  const Workload w = MakeWorkload();
  const std::string wal_dir = MakeTempDir("repl_pin_wal");
  const std::string ckpt_dir = MakeTempDir("repl_pin_ckpt");

  // Learn a free port, then leave it dark until phase 2.
  auto probe = TcpListener::Listen(0);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const uint16_t port = probe->port();
  probe->Close();

  XStreamConfig cfg = BaseConfig();
  cfg.durability.wal_dir = wal_dir;
  cfg.durability.fsync = WalFsyncPolicy::kNone;
  cfg.durability.wal_segment_bytes = 2048;  // force many segments
  cfg.replication = SenderOptions(port);
  auto child = std::make_unique<XStreamSystem>(w.registry.get(), cfg);
  ASSERT_TRUE(child->AddQuery(kQ1, "Q1").ok());

  Feed(child.get(), w.events, 0, w.events.size());
  child->Flush();
  // Parent dark: nothing acked, so pin_seq() == 0 and the checkpoint may
  // truncate nothing, even though it covers the whole stream locally.
  ASSERT_TRUE(child->Checkpoint(ckpt_dir).ok());
  EXPECT_EQ(child->wal()->stats().segments_deleted, 0u)
      << "checkpoint truncated segments the parent never acked";

  // Parent comes up; the backlog drains; the pin advances with the acks and
  // the next checkpoint finally reclaims the log.
  QueryId parent_qid = 0;
  auto parent = MakeSystem(w, &parent_qid);
  ReplicationReceiver receiver(parent.get(), ReceiverOptions(port));
  ASSERT_TRUE(receiver.Start().ok());
  ASSERT_TRUE(child->replication()->WaitForDrain(30000));
  ASSERT_TRUE(child->Checkpoint(ckpt_dir).ok());
  EXPECT_GT(child->wal()->stats().segments_deleted, 0u);
  receiver.Stop();
}

// CHUNK frames carry event-frame (compressed) payloads. A parent whose
// archive seals the replicated chunks must reproduce the child's stream
// bit-identically — same fingerprint and Explain output as an uncrashed
// single-node run — and scan every replicated row back exactly.
TEST(ReplicationTest, SealingParentRoundTripsChunksBitIdentically) {
  const Workload w = MakeWorkload();
  const SingleNodeTruth truth = MakeTruth(w);

  XStreamConfig parent_cfg = BaseConfig();
  parent_cfg.archive.chunk_capacity = 256;  // replicated chunks seal
  auto parent = std::make_unique<XStreamSystem>(w.registry.get(), parent_cfg);
  const auto parent_q = parent->AddQuery(kQ1, "Q1");
  ASSERT_TRUE(parent_q.ok()) << parent_q.status().ToString();
  ReplicationReceiver receiver(parent.get(), ReceiverOptions(0));
  ASSERT_TRUE(receiver.Start().ok());

  QueryId child_qid = 0;
  auto child = MakeSystem(w, &child_qid, "", SenderOptions(receiver.port()));
  Feed(child.get(), w.events, 0, w.events.size());
  child->Flush();
  ASSERT_TRUE(child->replication()->WaitForDrain(30000));
  receiver.Stop();
  parent->Flush();

  const auto rstats = receiver.stats();
  EXPECT_GT(rstats.chunks_applied, 0u);
  EXPECT_EQ(rstats.events_applied, w.events.size());
  EXPECT_EQ(rstats.frame_errors, 0u);

  // Bit-identical replica despite the compressed wire format.
  EXPECT_EQ(Fingerprint(*parent, *parent_q), truth.fingerprint);
  auto report = RunExplain(*parent, *parent_q);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->SelectedFeatureNames(), truth.features);
  EXPECT_FALSE(report->degradation.degraded());

  // The replicated rows sealed into chunks, and a scan over the whole stream
  // returns every one of them.
  const TimeInterval all{std::numeric_limits<Timestamp>::min(),
                         std::numeric_limits<Timestamp>::max()};
  size_t rows = 0;
  size_t chunks = 0;
  for (EventTypeId type = 0; type < w.registry->size(); ++type) {
    auto view = parent->archive().ScanColumns(type, all);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    rows += view->rows();
    chunks += parent->archive().NumChunks(type);
  }
  EXPECT_EQ(rows, w.events.size());
  EXPECT_GT(chunks, w.registry->size()) << "no replicated chunk sealed";
}

}  // namespace
}  // namespace exstream
