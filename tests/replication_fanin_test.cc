// Multi-child fan-in replication tests: one ReplicationReceiver accepting
// several concurrent child sessions across several tenants. The acceptance
// matrix runs 3 children / 2 tenants with every repl-connect/send/recv fault
// mode plus a kill+restart of every child, and requires each tenant's
// parent-side state (match tables, archive, Explain output) to stay
// bit-identical to that tenant's single-node run — sibling failures must be
// invisible. Companion tests cover the per-(tenant, child) ledger kill
// points (sync-then-ack), per-tenant quotas and queue shares (shed counts
// disclosed only through the owning tenant), handshake edge cases (duplicate
// HELLO, tenant switch, per-child resume across a parent restart), prompt
// session reap + immediate reconnect after a kill -9'd child, and rejection
// of the retired v1 gap state file.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "archive/serialization.h"
#include "common/bytes.h"
#include "common/fault_injection.h"
#include "io/file_util.h"
#include "net/frame.h"
#include "net/repl_ledger.h"
#include "net/replication_receiver.h"
#include "net/socket.h"
#include "sim/hadoop_sim.h"
#include "xstream/system.h"
#include "xstream/tenant_hub.h"

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

ReplicationSenderOptions SenderOptions(uint16_t port, const std::string& tenant,
                                       const std::string& node) {
  ReplicationSenderOptions r;
  r.port = port;
  r.tenant = tenant;
  r.node_id = node;
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

struct SingleNodeTruth {
  std::string fingerprint;
  std::vector<std::string> features;
};

// --- Frame-building helpers for SessionDriver-based tests ------------------

std::string HelloBytes(const std::string& tenant, const std::string& node,
                       uint64_t floor_seq = 0) {
  HelloFrame hello;
  hello.tenant = tenant;
  hello.node_id = node;
  hello.floor_seq = floor_seq;
  return EncodeFrame(FrameType::kHello, hello.Encode());
}

std::string ChunkBytes(uint64_t chunk_id, uint64_t first_seq,
                       const std::vector<Event>& events) {
  ChunkFrame f;
  f.chunk_id = chunk_id;
  f.first_seq = first_seq;
  f.event_count = static_cast<uint32_t>(events.size());
  f.events = SerializeEvents(events);
  return EncodeFrame(FrameType::kChunk, f.Encode());
}

std::vector<Frame> ParseFrames(std::string_view bytes) {
  FrameDecoder d;
  d.Feed(bytes);
  std::vector<Frame> out;
  for (;;) {
    auto f = d.Next();
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    if (!f.ok() || !f->has_value()) break;
    out.push_back(std::move(**f));
  }
  return out;
}

// HELLOACK from the driver's response buffer (clears the buffer).
HelloAckFrame TakeHelloAck(ReplicationReceiver::SessionDriver& driver) {
  HelloAckFrame ack;
  bool found = false;
  for (const Frame& f : ParseFrames(driver.out())) {
    if (f.type == FrameType::kHelloAck) {
      auto decoded = HelloAckFrame::Decode(f.payload);
      EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
      if (decoded.ok()) {
        ack = *decoded;
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "no HELLOACK in the driver's output";
  driver.ClearOut();
  return ack;
}

// Last ACK from the driver's response buffer (clears the buffer).
AckFrame TakeLastAck(ReplicationReceiver::SessionDriver& driver) {
  AckFrame ack;
  bool found = false;
  for (const Frame& f : ParseFrames(driver.out())) {
    if (f.type == FrameType::kAck) {
      auto decoded = AckFrame::Decode(f.payload);
      EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
      if (decoded.ok()) {
        ack = *decoded;
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "no ACK in the driver's output";
  driver.ClearOut();
  return ack;
}

// Drives `events[begin, end)` into an accepted session as 64-event chunks
// (seq == index within `events`), asserting each frame ACKs.
void DriveChunks(ReplicationReceiver::SessionDriver& driver,
                 const std::vector<Event>& events, size_t begin, size_t end) {
  for (size_t i = begin; i < end;) {
    const size_t n = std::min(kBatch, end - i);
    const std::vector<Event> slice(events.begin() + i, events.begin() + i + n);
    const Status fed = driver.Feed(ChunkBytes(i / kBatch + 1, i, slice));
    ASSERT_TRUE(fed.ok()) << fed.ToString();
    i += n;
  }
}

// --- The fan-in acceptance matrix ------------------------------------------

struct LinkFaultCase {
  const char* name;
  const char* site;
  FaultOp op;
  FaultMode mode;
  int max_hits;
  int skip;
};

// One child of the matrix: its own system + WAL + sender identity, plus the
// stream slice it owns and how far it has fed.
struct MatrixChild {
  std::string tenant;
  std::string node;
  std::string wal_dir;
  const std::vector<Event>* stream = nullptr;
  std::unique_ptr<XStreamSystem> sys;
  QueryId qid = 0;
  size_t fed = 0;
};

// Segment boundary for phase `phase` of `phases`, kBatch-aligned except the
// final phase (which takes the remainder).
size_t SegEnd(size_t n, int phase, int phases) {
  if (phase + 1 >= phases) return n;
  return std::min(n, (((n * static_cast<size_t>(phase + 1)) /
                       static_cast<size_t>(phases)) /
                      kBatch) *
                         kBatch);
}

TEST(ReplicationFanInTest, MatrixKillsRestartsFaultsPreserveTenantIsolation) {
  const Workload w = MakeWorkload();

  // Tenant beta's stream splits by event type across two children: b1 owns
  // the pattern types, b2 the metric types. Each type comes from exactly one
  // child, so the tenant's archive and match state depend only on per-child
  // order — which the per-phase drains below make deterministic.
  std::vector<EventTypeId> pattern_types;
  for (const char* name : {"JobStart", "DataIO", "JobEnd"}) {
    auto id = w.registry->IdOf(name);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    pattern_types.push_back(*id);
  }
  auto is_pattern = [&](const Event& e) {
    return std::find(pattern_types.begin(), pattern_types.end(), e.type) !=
           pattern_types.end();
  };
  std::vector<Event> b1_stream, b2_stream;
  for (const Event& e : w.events) {
    (is_pattern(e) ? b1_stream : b2_stream).push_back(e);
  }
  ASSERT_FALSE(b1_stream.empty());
  ASSERT_FALSE(b2_stream.empty());

  constexpr int kPhases = 12;

  // Single-node truths. Tenant alpha's child carries the whole stream;
  // tenant beta's baseline is fed the same per-phase (b1 segment, then b2
  // segment) interleave the matrix drains enforce at the parent.
  SingleNodeTruth truth_a;
  {
    QueryId qid = 0;
    auto baseline = MakeSystem(w, &qid);
    Feed(baseline.get(), w.events, 0, w.events.size());
    baseline->Flush();
    truth_a.fingerprint = Fingerprint(*baseline, qid);
    auto report = RunExplain(*baseline, qid);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    truth_a.features = report->SelectedFeatureNames();
    ASSERT_FALSE(truth_a.features.empty());
  }
  SingleNodeTruth truth_b;
  {
    QueryId qid = 0;
    auto baseline = MakeSystem(w, &qid);
    size_t fed1 = 0, fed2 = 0;
    for (int phase = 0; phase < kPhases; ++phase) {
      const size_t e1 = SegEnd(b1_stream.size(), phase, kPhases);
      Feed(baseline.get(), b1_stream, fed1, e1);
      fed1 = e1;
      const size_t e2 = SegEnd(b2_stream.size(), phase, kPhases);
      Feed(baseline.get(), b2_stream, fed2, e2);
      fed2 = e2;
    }
    baseline->Flush();
    truth_b.fingerprint = Fingerprint(*baseline, qid);
    auto report = RunExplain(*baseline, qid);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    truth_b.features = report->SelectedFeatureNames();
    ASSERT_FALSE(truth_b.features.empty());
  }

  // Parent: one system per tenant behind a hub, one receiver, one ledger.
  const std::string state_path = MakeTempDir("fanin_state") + "/fanin.state";
  QueryId qid_a = 0, qid_b = 0;
  auto sys_a = MakeSystem(w, &qid_a);
  auto sys_b = MakeSystem(w, &qid_b);
  TenantHub hub;
  ASSERT_TRUE(hub.AddTenant("alpha", sys_a.get()).ok());
  ASSERT_TRUE(hub.AddTenant("beta", sys_b.get()).ok());
  auto receiver = std::make_unique<ReplicationReceiver>(
      &hub, ReceiverOptions(0, state_path));
  ASSERT_TRUE(receiver->Start().ok());
  const uint16_t port = receiver->port();

  auto make_child = [&](MatrixChild& c) {
    c.sys = MakeSystem(w, &c.qid, c.wal_dir, SenderOptions(port, c.tenant, c.node));
  };
  MatrixChild a1{"alpha", "a1", MakeTempDir("fanin_a1"), &w.events, nullptr};
  MatrixChild b1{"beta", "b1", MakeTempDir("fanin_b1"), &b1_stream, nullptr};
  MatrixChild b2{"beta", "b2", MakeTempDir("fanin_b2"), &b2_stream, nullptr};
  make_child(a1);
  make_child(b1);
  make_child(b2);

  // Kill -9 + restart: destroy the child, rebuild it from its WAL, let the
  // sender resume against the receiver's per-(tenant, child) watermark.
  auto restart_child = [&](MatrixChild& c) {
    SCOPED_TRACE("restart " + c.tenant + "/" + c.node);
    c.sys.reset();
    make_child(c);
    const auto rep = c.sys->Recover(std::string());
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(rep->wal.next_seq, c.fed);
  };

  auto feed_segment = [&](MatrixChild& c, int phase) {
    const size_t end = SegEnd(c.stream->size(), phase, kPhases);
    Feed(c.sys.get(), *c.stream, c.fed, end);
    c.fed = end;
    c.sys->Flush();
  };
  auto drain = [&](MatrixChild& c) {
    ASSERT_TRUE(c.sys->replication()->WaitForDrain(60000))
        << c.tenant << "/" << c.node << " did not converge";
  };

  // Every repl-connect/send/recv fault mode. Connect cases sit right after a
  // kill so a reconnect is guaranteed to trip them.
  const LinkFaultCase kCases[kPhases] = {
      {"send-fail", "repl-send", FaultOp::kSend, FaultMode::kFailOpen, 3, 2},
      {"send-reset", "repl-send", FaultOp::kSend, FaultMode::kReset, 3, 5},
      {"send-truncate", "repl-send", FaultOp::kSend, FaultMode::kTruncate, 3, 1},
      {"connect-fail", "repl-connect", FaultOp::kConnect, FaultMode::kFailOpen,
       2, 0},
      {"send-corrupt", "repl-send", FaultOp::kSend, FaultMode::kCorruptBytes, 3,
       4},
      {"send-delay", "repl-send", FaultOp::kSend, FaultMode::kDelay, 50, 0},
      {"connect-reset", "repl-connect", FaultOp::kConnect, FaultMode::kReset, 2,
       0},
      {"recv-fail", "repl-recv", FaultOp::kRecv, FaultMode::kFailOpen, 3, 2},
      {"recv-reset", "repl-recv", FaultOp::kRecv, FaultMode::kReset, 3, 5},
      {"recv-truncate", "repl-recv", FaultOp::kRecv, FaultMode::kTruncate, 3, 1},
      {"recv-corrupt", "repl-recv", FaultOp::kRecv, FaultMode::kCorruptBytes, 3,
       4},
      {nullptr, nullptr, FaultOp::kSend, FaultMode::kFailOpen, 0, 0},
  };

  for (int phase = 0; phase < kPhases; ++phase) {
    SCOPED_TRACE("phase " + std::to_string(phase));
    const LinkFaultCase& c = kCases[phase];
    if (c.name != nullptr) {
      SCOPED_TRACE(c.name);
      FaultPlan plan;
      plan.mode = c.mode;
      plan.op = c.op;
      plan.site = c.site;
      plan.skip = c.skip;
      plan.max_hits = c.max_hits;
      plan.delay_ms = 2;
      FaultInjector::Global().Arm(plan);
    }
    // Kills land at phase start, after arming, so the phase-3/-6 connect
    // faults hit the restarted child's reconnect.
    if (phase == 3) restart_child(a1);
    if (phase == 6) restart_child(b1);
    if (phase == 9) restart_child(b2);
    if (HasFatalFailure()) return;

    // Tenant alpha streams concurrently throughout; tenant beta's two
    // children are drained in b1-then-b2 order so beta's fresh-apply order
    // matches its baseline exactly.
    feed_segment(a1, phase);
    feed_segment(b1, phase);
    drain(b1);
    feed_segment(b2, phase);
    drain(b2);
    drain(a1);
    if (HasFatalFailure()) return;

    if (c.name != nullptr) {
      const size_t hits = FaultInjector::Global().hits();
      FaultInjector::Global().Disarm();
      EXPECT_GT(hits, 0u) << c.name << " never fired; the phase tested nothing";
    }
  }

  EXPECT_EQ(a1.fed, w.events.size());
  EXPECT_EQ(b1.fed, b1_stream.size());
  EXPECT_EQ(b2.fed, b2_stream.size());

  receiver->Stop();
  sys_a->Flush();
  sys_b->Flush();

  // Link faults and kills shed nothing: every event either applied or is a
  // retransmit the per-child watermark deduped.
  const auto rstats = receiver->stats();
  EXPECT_EQ(rstats.gap_events, 0u);
  EXPECT_EQ(rstats.quota_shed_events, 0u);
  // No frame_errors assertion: the per-phase hits>0 checks above prove every
  // fault fired, but a repl-send corruption can land on either direction of
  // the link — when it hits a parent->child ACK the CHILD's decoder poisons
  // and reconnects, and the receiver never sees a bad frame.
  EXPECT_EQ(receiver->watermark("alpha", "a1"), w.events.size());
  EXPECT_EQ(receiver->watermark("beta", "b1"), b1_stream.size());
  EXPECT_EQ(receiver->watermark("beta", "b2"), b2_stream.size());
  EXPECT_EQ(receiver->sessions().size(), 3u);

  // Per-tenant bit-identity, each against its own single-node truth.
  EXPECT_EQ(Fingerprint(*sys_a, qid_a), truth_a.fingerprint);
  EXPECT_EQ(Fingerprint(*sys_b, qid_b), truth_b.fingerprint);
  auto report_a = RunExplain(*sys_a, qid_a);
  ASSERT_TRUE(report_a.ok()) << report_a.status().ToString();
  EXPECT_EQ(report_a->SelectedFeatureNames(), truth_a.features);
  EXPECT_FALSE(report_a->degradation.degraded());
  auto report_b = RunExplain(*sys_b, qid_b);
  ASSERT_TRUE(report_b.ok()) << report_b.status().ToString();
  EXPECT_EQ(report_b->SelectedFeatureNames(), truth_b.features);
  EXPECT_FALSE(report_b->degradation.degraded());
  EXPECT_EQ(hub.tenant_stats("alpha").quota_shed_events, 0u);
  EXPECT_EQ(hub.tenant_stats("beta").quota_shed_events, 0u);

  // Disclosure isolation: a fresh receiver instance over the same ledger
  // file resumes b2 at its persisted watermark; a seq jump from b2 is a gap
  // disclosed in beta's DegradationReport — and only beta's.
  receiver.reset();
  ReplicationReceiver receiver2(&hub, ReceiverOptions(0, state_path));
  ReplicationReceiver::SessionDriver driver(&receiver2);
  ASSERT_TRUE(driver.Feed(HelloBytes("beta", "b2")).ok());
  const HelloAckFrame resume = TakeHelloAck(driver);
  ASSERT_TRUE(resume.accepted) << resume.message;
  EXPECT_EQ(resume.resume_seq, b2_stream.size())
      << "the per-(tenant, child) watermark did not survive the restart";

  const uint64_t kGap = 96;
  std::vector<Event> shifted(b2_stream.begin(), b2_stream.begin() + kBatch);
  for (Event& e : shifted) e.ts += 1000000;
  ASSERT_TRUE(
      driver.Feed(ChunkBytes(9001, b2_stream.size() + kGap, shifted)).ok());
  const AckFrame ack = TakeLastAck(driver);
  EXPECT_EQ(ack.ack_seq, b2_stream.size() + kGap + kBatch);
  EXPECT_EQ(receiver2.stats().gap_events, kGap);

  // The gap lands in beta's report; alpha's state and report are untouched.
  EXPECT_EQ(sys_b->shed_events(), kGap);
  EXPECT_EQ(sys_a->shed_events(), 0u);
  auto degraded_b = RunExplain(*sys_b, qid_b);
  ASSERT_TRUE(degraded_b.ok()) << degraded_b.status().ToString();
  EXPECT_TRUE(degraded_b->degradation.degraded());
  EXPECT_EQ(degraded_b->degradation.events_shed, kGap);
  EXPECT_EQ(Fingerprint(*sys_a, qid_a), truth_a.fingerprint);
  auto clean_a = RunExplain(*sys_a, qid_a);
  ASSERT_TRUE(clean_a.ok()) << clean_a.status().ToString();
  EXPECT_FALSE(clean_a->degradation.degraded());
  EXPECT_EQ(receiver2.watermark("alpha", "a1"), w.events.size());
}

// --- Quotas ----------------------------------------------------------------

// Token-bucket quota: with a deterministic clock, an over-quota frame is shed
// at the parent, still ACKed (the watermark advances past it), and disclosed
// through the owning tenant's stats and DegradationReport only.
TEST(ReplicationFanInTest, TokenBucketQuotaShedsAndDisclosesToOwnerOnly) {
  const Workload w = MakeWorkload();
  const size_t n = w.events.size();

  int64_t now_ms = 0;
  TenantHub hub([&now_ms] { return now_ms; });
  QueryId qid_a = 0, qid_b = 0;
  auto sys_a = MakeSystem(w, &qid_a);
  auto sys_b = MakeSystem(w, &qid_b);
  ASSERT_TRUE(hub.AddTenant("alpha", sys_a.get()).ok());
  ASSERT_TRUE(hub.AddTenant("beta", sys_b.get()).ok());
  ReplicationReceiver receiver(&hub, ReceiverOptions(0));

  ReplicationReceiver::SessionDriver beta(&receiver);
  ASSERT_TRUE(beta.Feed(HelloBytes("beta", "b1")).ok());
  ASSERT_TRUE(TakeHelloAck(beta).accepted);
  DriveChunks(beta, w.events, 0, n);
  if (HasFatalFailure()) return;
  beta.ClearOut();

  ReplicationReceiver::SessionDriver alpha(&receiver);
  ASSERT_TRUE(alpha.Feed(HelloBytes("alpha", "a1")).ok());
  ASSERT_TRUE(TakeHelloAck(alpha).accepted);
  DriveChunks(alpha, w.events, 0, n);
  if (HasFatalFailure()) return;
  alpha.ClearOut();

  // Starve beta: 1 byte/sec, 1-byte bucket. The first frame is admitted (a
  // frame larger than the whole bucket passes when the bucket is full — it
  // could never pass otherwise), draining the bucket; the second is shed.
  TenantQuota quota;
  quota.bytes_per_sec = 1;
  quota.burst_bytes = 1;
  ASSERT_TRUE(hub.SetQuota("beta", quota).ok());

  std::vector<Event> burst(w.events.begin(), w.events.begin() + 2 * kBatch);
  for (Event& e : burst) e.ts += 1000000;
  const std::vector<Event> first(burst.begin(), burst.begin() + kBatch);
  const std::vector<Event> second(burst.begin() + kBatch, burst.end());

  ASSERT_TRUE(beta.Feed(ChunkBytes(101, n, first)).ok());
  EXPECT_EQ(TakeLastAck(beta).ack_seq, n + kBatch);
  EXPECT_EQ(hub.tenant_stats("beta").quota_shed_events, 0u);

  ASSERT_TRUE(beta.Feed(ChunkBytes(102, n + kBatch, second)).ok());
  EXPECT_EQ(TakeLastAck(beta).ack_seq, n + 2 * kBatch)
      << "a quota-shed frame must still advance the watermark and ACK";
  EXPECT_EQ(hub.tenant_stats("beta").quota_shed_events, kBatch);
  EXPECT_EQ(hub.tenant_stats("beta").quota_shed_frames, 1u);
  EXPECT_EQ(receiver.stats().quota_shed_events, kBatch);
  EXPECT_EQ(sys_b->engine().events_processed(), n + kBatch);
  EXPECT_EQ(sys_b->shed_events(), kBatch);

  // Refill restores admission.
  now_ms += 1000;
  const std::vector<Event> third = [&] {
    std::vector<Event> v(w.events.begin(), w.events.begin() + kBatch);
    for (Event& e : v) e.ts += 2000000;
    return v;
  }();
  ASSERT_TRUE(beta.Feed(ChunkBytes(103, n + 2 * kBatch, third)).ok());
  EXPECT_EQ(TakeLastAck(beta).ack_seq, n + 3 * kBatch);
  EXPECT_EQ(sys_b->engine().events_processed(), n + 2 * kBatch);
  EXPECT_EQ(hub.tenant_stats("beta").quota_shed_events, kBatch);

  // Owner-only disclosure: beta's report carries the shed; alpha's is clean.
  auto report_b = RunExplain(*sys_b, qid_b);
  ASSERT_TRUE(report_b.ok()) << report_b.status().ToString();
  EXPECT_TRUE(report_b->degradation.degraded());
  EXPECT_EQ(report_b->degradation.events_shed, kBatch);
  auto report_a = RunExplain(*sys_a, qid_a);
  ASSERT_TRUE(report_a.ok()) << report_a.status().ToString();
  EXPECT_FALSE(report_a->degradation.degraded());
  EXPECT_EQ(sys_a->shed_events(), 0u);
  EXPECT_EQ(hub.tenant_stats("alpha").quota_shed_events, 0u);
  EXPECT_EQ(hub.tenant_stats("alpha").queue_shed_events, 0u);
}

// Queue-share admission: while a sibling session of the same tenant holds
// the tenant's whole queue share, a new frame is shed (disclosed to that
// tenant); once the share frees up, frames apply again.
TEST(ReplicationFanInTest, QueueShareExhaustionShedsWithDisclosure) {
  const Workload w = MakeWorkload();

  TenantHub hub;
  QueryId qid_a = 0, qid_b = 0;
  auto sys_a = MakeSystem(w, &qid_a);
  auto sys_b = MakeSystem(w, &qid_b);
  TenantQuota quota;
  quota.queue_share_bytes = 1;  // any in-flight sibling exhausts the share
  ASSERT_TRUE(hub.AddTenant("alpha", sys_a.get()).ok());
  ASSERT_TRUE(hub.AddTenant("beta", sys_b.get(), quota).ok());
  ReplicationReceiver receiver(&hub, ReceiverOptions(0));

  ReplicationReceiver::SessionDriver beta(&receiver);
  ASSERT_TRUE(beta.Feed(HelloBytes("beta", "b1")).ok());
  ASSERT_TRUE(TakeHelloAck(beta).accepted);

  // With nothing in flight the share never blocks (no self-starvation).
  const std::vector<Event> first(w.events.begin(), w.events.begin() + kBatch);
  ASSERT_TRUE(beta.Feed(ChunkBytes(1, 0, first)).ok());
  EXPECT_EQ(TakeLastAck(beta).ack_seq, kBatch);
  EXPECT_EQ(hub.tenant_stats("beta").queue_shed_events, 0u);

  // A sibling session parks bytes in beta's queue; the next frame overflows
  // the share and is shed — ACKed, watermark advanced, disclosed to beta.
  ASSERT_TRUE(hub.TryEnterQueue("beta", 4096));
  const std::vector<Event> second(w.events.begin() + kBatch,
                                  w.events.begin() + 2 * kBatch);
  ASSERT_TRUE(beta.Feed(ChunkBytes(2, kBatch, second)).ok());
  EXPECT_EQ(TakeLastAck(beta).ack_seq, 2 * kBatch);
  EXPECT_EQ(hub.tenant_stats("beta").queue_shed_events, kBatch);
  EXPECT_EQ(hub.tenant_stats("beta").queue_shed_frames, 1u);
  EXPECT_EQ(sys_b->shed_events(), kBatch);
  EXPECT_EQ(sys_b->engine().events_processed(), kBatch);
  hub.LeaveQueue("beta", 4096);

  // Share released: the stream continues, and alpha never saw any of it.
  const std::vector<Event> third(w.events.begin() + 2 * kBatch,
                                 w.events.begin() + 3 * kBatch);
  ASSERT_TRUE(beta.Feed(ChunkBytes(3, 2 * kBatch, third)).ok());
  EXPECT_EQ(TakeLastAck(beta).ack_seq, 3 * kBatch);
  EXPECT_EQ(sys_b->engine().events_processed(), 2 * kBatch);
  EXPECT_EQ(sys_a->shed_events(), 0u);
  EXPECT_EQ(sys_a->engine().events_processed(), 0u);
  EXPECT_EQ(hub.tenant_stats("alpha").queue_shed_events, 0u);
}

// --- Sync-then-ack kill points ---------------------------------------------

// Shared body for the two ledger kill-point tests: apply `clean_chunks`
// chunks cleanly, then fail the `skip`-th ledger file write of the next
// frame, crash the parent at that exact point, recover, and require the
// HELLOACK resume seq to equal `expected_resume` — then finish the stream
// and demand bit-identity with the single-node truth.
void RunLedgerKillPoint(int skip, bool expect_pending_landed) {
  const Workload w = MakeWorkload();
  const size_t n = w.events.size();
  const size_t kCleanChunks = 4;
  const size_t clean = kCleanChunks * kBatch;
  ASSERT_GT(n, clean + kBatch);

  SingleNodeTruth truth;
  {
    QueryId qid = 0;
    auto baseline = MakeSystem(w, &qid);
    Feed(baseline.get(), w.events, 0, n);
    baseline->Flush();
    truth.fingerprint = Fingerprint(*baseline, qid);
    auto report = RunExplain(*baseline, qid);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    truth.features = report->SelectedFeatureNames();
  }

  const std::string parent_wal = MakeTempDir("killpoint_wal");
  const std::string state_path = MakeTempDir("killpoint_state") + "/kp.state";

  {
    QueryId qid = 0;
    auto parent = MakeSystem(w, &qid, parent_wal);
    ReplicationReceiver receiver(parent.get(), ReceiverOptions(0, state_path));
    ReplicationReceiver::SessionDriver child(&receiver);
    ASSERT_TRUE(child.Feed(HelloBytes("default", "c1")).ok());
    const HelloAckFrame hello = TakeHelloAck(child);
    ASSERT_TRUE(hello.accepted) << hello.message;
    EXPECT_EQ(hello.resume_seq, 0u);
    DriveChunks(child, w.events, 0, clean);
    if (::testing::Test::HasFatalFailure()) return;
    child.ClearOut();

    // An applied frame persists the ledger exactly twice — the pre-apply
    // pending marker, then the post-WAL-sync commit — so skip=0 crashes
    // between ACK N and apply N+1, and skip=1 crashes after the WAL absorbed
    // frame N+1 but before the ledger could say so.
    FaultPlan plan;
    plan.mode = FaultMode::kFailOpen;
    plan.op = FaultOp::kWrite;
    plan.site = "file-write";
    plan.path_substring = "kp.state";
    plan.skip = skip;
    plan.max_hits = 1;
    FaultInjector::Global().Arm(plan);
    const std::vector<Event> next(w.events.begin() + clean,
                                  w.events.begin() + clean + kBatch);
    const Status fed = child.Feed(ChunkBytes(99, clean, next));
    const size_t hits = FaultInjector::Global().hits();
    FaultInjector::Global().Disarm();
    EXPECT_FALSE(fed.ok()) << "the injected ledger write failure was ignored";
    EXPECT_TRUE(child.ended());
    ASSERT_EQ(hits, 1u);
    // Parent crash at the kill point: driver, receiver, and system die; only
    // the WAL and the ledger file survive.
  }

  QueryId qid = 0;
  auto parent = MakeSystem(w, &qid, parent_wal);
  const auto rep = parent->Recover(std::string());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const uint64_t expected_resume =
      expect_pending_landed ? clean + kBatch : clean;
  EXPECT_EQ(rep->wal.next_seq, expected_resume)
      << "the WAL and the kill point disagree about what landed";

  ReplicationReceiver receiver(parent.get(), ReceiverOptions(0, state_path));
  ReplicationReceiver::SessionDriver child(&receiver);
  ASSERT_TRUE(child.Feed(HelloBytes("default", "c1")).ok());
  const HelloAckFrame hello = TakeHelloAck(child);
  ASSERT_TRUE(hello.accepted) << hello.message;
  EXPECT_EQ(hello.resume_seq, expected_resume)
      << "reconcile resolved the pending marker the wrong way";

  DriveChunks(child, w.events, expected_resume, n);
  if (::testing::Test::HasFatalFailure()) return;
  parent->Flush();

  const auto rstats = receiver.stats();
  EXPECT_EQ(rstats.gap_events, 0u);
  EXPECT_EQ(rstats.events_deduped, 0u)
      << "the resume seq made the child resend something already applied";
  EXPECT_EQ(receiver.watermark("default", "c1"), n);
  EXPECT_EQ(Fingerprint(*parent, qid), truth.fingerprint);
  auto report = RunExplain(*parent, qid);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->SelectedFeatureNames(), truth.features);
  EXPECT_FALSE(report->degradation.degraded());
}

// Crash before the pending marker persists: the frame never applied, the
// child must resend it, and nothing is lost.
TEST(ReplicationFanInTest, LedgerCrashBeforeApplyResumesWithoutLoss) {
  RunLedgerKillPoint(/*skip=*/0, /*expect_pending_landed=*/false);
}

// Crash between the WAL fsync and the ledger commit: the pending marker
// reconciles as landed, and the child must NOT resend (no double apply).
TEST(ReplicationFanInTest, LedgerCrashAfterWalSyncResumesWithoutDoubleApply) {
  RunLedgerKillPoint(/*skip=*/1, /*expect_pending_landed=*/true);
}

// --- Handshake edge cases --------------------------------------------------

// A duplicate HELLO — same identity or an attempted tenant switch — is a
// protocol violation that ends the offending session only: applied state is
// untouched and the identity remains resumable.
TEST(ReplicationFanInTest, DuplicateHelloAndTenantSwitchEndOnlyThatSession) {
  const Workload w = MakeWorkload();
  TenantHub hub;
  QueryId qid_a = 0, qid_b = 0;
  auto sys_a = MakeSystem(w, &qid_a);
  auto sys_b = MakeSystem(w, &qid_b);
  ASSERT_TRUE(hub.AddTenant("alpha", sys_a.get()).ok());
  ASSERT_TRUE(hub.AddTenant("beta", sys_b.get()).ok());
  ReplicationReceiver receiver(&hub, ReceiverOptions(0));

  {
    ReplicationReceiver::SessionDriver s1(&receiver);
    ASSERT_TRUE(s1.Feed(HelloBytes("alpha", "c1")).ok());
    ASSERT_TRUE(TakeHelloAck(s1).accepted);
    const std::vector<Event> slice(w.events.begin(), w.events.begin() + kBatch);
    ASSERT_TRUE(s1.Feed(ChunkBytes(1, 0, slice)).ok());
    EXPECT_EQ(TakeLastAck(s1).ack_seq, kBatch);

    const Status dup = s1.Feed(HelloBytes("alpha", "c1"));
    EXPECT_FALSE(dup.ok());
    EXPECT_NE(dup.ToString().find("duplicate HELLO"), std::string::npos)
        << dup.ToString();
    EXPECT_TRUE(s1.ended());
  }
  // The violation cost the session, not the state.
  EXPECT_EQ(sys_a->engine().events_processed(), kBatch);
  EXPECT_EQ(receiver.watermark("alpha", "c1"), kBatch);

  {
    // Tenant switch mid-session: HELLO as beta, then re-HELLO as alpha.
    ReplicationReceiver::SessionDriver s2(&receiver);
    ASSERT_TRUE(s2.Feed(HelloBytes("beta", "c9")).ok());
    ASSERT_TRUE(TakeHelloAck(s2).accepted);
    const Status sw = s2.Feed(HelloBytes("alpha", "c9"));
    EXPECT_FALSE(sw.ok());
    EXPECT_TRUE(s2.ended());
  }
  EXPECT_EQ(sys_b->engine().events_processed(), 0u);
  EXPECT_EQ(sys_a->engine().events_processed(), kBatch);

  // The identity the duplicate HELLO killed resumes exactly where it was.
  ReplicationReceiver::SessionDriver s3(&receiver);
  ASSERT_TRUE(s3.Feed(HelloBytes("alpha", "c1")).ok());
  const HelloAckFrame ack = TakeHelloAck(s3);
  ASSERT_TRUE(ack.accepted);
  EXPECT_EQ(ack.resume_seq, kBatch);
}

// Two children of one tenant at different watermarks: a parent restart must
// hand each child ITS resume seq from the per-(tenant, child) ledger, not an
// aggregate.
TEST(ReplicationFanInTest, ResumeWatermarksPerChildSurviveParentRestart) {
  const Workload w = MakeWorkload();
  ASSERT_GT(w.events.size(), 3 * kBatch);
  const std::string parent_wal = MakeTempDir("resume_wal");
  const std::string state_path = MakeTempDir("resume_state") + "/resume.state";

  {
    QueryId qid = 0;
    auto parent = MakeSystem(w, &qid, parent_wal);
    ReplicationReceiver receiver(parent.get(), ReceiverOptions(0, state_path));
    ReplicationReceiver::SessionDriver c1(&receiver);
    ASSERT_TRUE(c1.Feed(HelloBytes("default", "c1")).ok());
    ASSERT_TRUE(TakeHelloAck(c1).accepted);
    DriveChunks(c1, w.events, 0, 2 * kBatch);  // c1's own seqs 0..128

    ReplicationReceiver::SessionDriver c2(&receiver);
    ASSERT_TRUE(c2.Feed(HelloBytes("default", "c2")).ok());
    ASSERT_TRUE(TakeHelloAck(c2).accepted);
    const std::vector<Event> slice(w.events.begin() + 2 * kBatch,
                                   w.events.begin() + 3 * kBatch);
    ASSERT_TRUE(c2.Feed(ChunkBytes(1, 0, slice)).ok());  // c2's own seqs 0..64
    EXPECT_EQ(TakeLastAck(c2).ack_seq, kBatch);
    if (HasFatalFailure()) return;
    // Parent crash.
  }

  QueryId qid = 0;
  auto parent = MakeSystem(w, &qid, parent_wal);
  const auto rep = parent->Recover(std::string());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->wal.next_seq, 3 * kBatch);

  ReplicationReceiver receiver(parent.get(), ReceiverOptions(0, state_path));
  ReplicationReceiver::SessionDriver c1(&receiver);
  ASSERT_TRUE(c1.Feed(HelloBytes("default", "c1")).ok());
  const HelloAckFrame ack1 = TakeHelloAck(c1);
  ASSERT_TRUE(ack1.accepted);
  EXPECT_EQ(ack1.resume_seq, 2 * kBatch);

  ReplicationReceiver::SessionDriver c2(&receiver);
  ASSERT_TRUE(c2.Feed(HelloBytes("default", "c2")).ok());
  const HelloAckFrame ack2 = TakeHelloAck(c2);
  ASSERT_TRUE(ack2.accepted);
  EXPECT_EQ(ack2.resume_seq, kBatch);

  // The ledger's view matches: two identities, each at its own watermark.
  const auto sessions = receiver.sessions();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(receiver.watermark("default", "c1"), 2 * kBatch);
  EXPECT_EQ(receiver.watermark("default", "c2"), kBatch);
}

// --- Kill -9 + immediate reconnect (prompt reap) ---------------------------

// A child killed -9 leaves a dead socket behind with no FIN. Its immediate
// reconnect must take over the identity at once (not wait out the corpse),
// and once the corpse's socket does close, the session thread reaps promptly.
TEST(ReplicationFanInTest, KilledChildTakesOverIdentityImmediately) {
  const Workload w = MakeWorkload();
  QueryId qid = 0;
  auto parent = MakeSystem(w, &qid);
  ReplicationReceiver receiver(parent.get(), ReceiverOptions(0));
  ASSERT_TRUE(receiver.Start().ok());

  auto read_frame = [](TcpSocket& sock, FrameDecoder& dec, Frame* out) {
    for (int i = 0; i < 200; ++i) {
      auto next = dec.Next();
      if (!next.ok()) return false;
      if (next->has_value()) {
        *out = std::move(**next);
        return true;
      }
      char buf[1 << 14];
      auto n = sock.Recv(buf, sizeof(buf), 100);
      if (!n.ok() || *n == 0) continue;
      dec.Feed(std::string_view(buf, *n));
    }
    return false;
  };

  // Session 1: HELLO + one chunk, then the process "dies" — the socket stays
  // open and silent, exactly what kill -9 leaves behind.
  auto sock1 = TcpSocket::Connect("127.0.0.1", receiver.port(), 1000);
  ASSERT_TRUE(sock1.ok()) << sock1.status().ToString();
  ASSERT_TRUE(sock1->SendAll(HelloBytes("default", "k9")).ok());
  FrameDecoder dec1;
  Frame frame;
  ASSERT_TRUE(read_frame(*sock1, dec1, &frame));
  ASSERT_EQ(frame.type, FrameType::kHelloAck);
  const std::vector<Event> first(w.events.begin(), w.events.begin() + kBatch);
  ASSERT_TRUE(sock1->SendAll(ChunkBytes(1, 0, first)).ok());
  ASSERT_TRUE(read_frame(*sock1, dec1, &frame));
  ASSERT_EQ(frame.type, FrameType::kAck);

  // Session 2: the restarted child reconnects immediately. The HELLOACK must
  // arrive without waiting for session 1 to idle out, and resume at 64.
  const auto takeover_start = std::chrono::steady_clock::now();
  auto sock2 = TcpSocket::Connect("127.0.0.1", receiver.port(), 1000);
  ASSERT_TRUE(sock2.ok()) << sock2.status().ToString();
  ASSERT_TRUE(sock2->SendAll(HelloBytes("default", "k9")).ok());
  FrameDecoder dec2;
  ASSERT_TRUE(read_frame(*sock2, dec2, &frame));
  ASSERT_EQ(frame.type, FrameType::kHelloAck);
  auto ack = HelloAckFrame::Decode(frame.payload);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_TRUE(ack->accepted) << ack->message;
  EXPECT_EQ(ack->resume_seq, kBatch);
  const auto takeover_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - takeover_start);
  EXPECT_LT(takeover_ms.count(), 5000) << "takeover waited on the dead session";

  const std::vector<Event> second(w.events.begin() + kBatch,
                                  w.events.begin() + 2 * kBatch);
  ASSERT_TRUE(sock2->SendAll(ChunkBytes(2, kBatch, second)).ok());
  ASSERT_TRUE(read_frame(*sock2, dec2, &frame));
  ASSERT_EQ(frame.type, FrameType::kAck);
  {
    auto chunk_ack = AckFrame::Decode(frame.payload);
    ASSERT_TRUE(chunk_ack.ok());
    EXPECT_EQ(chunk_ack->ack_seq, 2 * kBatch);
  }
  EXPECT_GE(receiver.stats().sessions_superseded, 1u);

  // Orderly EOF reaps promptly: close both sockets and the live session
  // count must hit zero well within a few idle timeouts.
  sock1->Close();
  sock2->Close();
  bool reaped = false;
  for (int i = 0; i < 100 && !reaped; ++i) {
    reaped = receiver.stats().live_sessions == 0;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(reaped) << "session threads lingered after EOF";

  receiver.Stop();
  EXPECT_EQ(receiver.watermark("default", "k9"), 2 * kBatch);
  EXPECT_EQ(parent->engine().events_processed(), 2 * kBatch);
}

// --- v1 state file back-compat ---------------------------------------------

// The single-child v1 ledger file (magic + u64 gap total, 12 bytes) is
// retired: loading one fails instead of guessing which tenant owns its gap.
TEST(ReplicationFanInTest, V1LedgerFileFailsLoad) {
  const std::string state_path = MakeTempDir("v1_state") + "/gap.state";
  BytesWriter writer;
  writer.Put<uint32_t>(0x47525845u);  // "EXRG"
  writer.Put<uint64_t>(500);
  ASSERT_TRUE(WriteFileAtomic(state_path, writer.Take()).ok());

  ReplLedger ledger;
  ledger.Configure(state_path);
  EXPECT_FALSE(ledger.Load().ok());
}

}  // namespace
}  // namespace exstream
