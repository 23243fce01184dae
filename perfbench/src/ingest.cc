// Workload `ingest`: monitoring at scale. One closed-loop producer feeds the
// whole stream to a fresh system per pass (WAL, spilling archive with tiers,
// incremental tails and the streaming detector on; auto-explain off), with a
// checkpoint at mid-stream. After each pass the live system's state and
// explanations are recorded, the system is dropped, and a fresh one recovers
// from the checkpoint plus the WAL tail; it must equal the live one.

#include <atomic>
#include <cmath>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "harness.h"
#include "ledger.h"
#include "pipeline.h"

namespace perfbench {

using namespace exstream;

namespace {

struct LiveState {
  uint64_t fingerprint = 0;
  size_t archive_events = 0;
  uint64_t next_seq = 0;
  std::vector<std::string> signatures;  // per incident
};

struct PassTimes {
  double ingest_wall_s = 0.0;
  double checkpoint_s = 0.0;
  double disk_bytes = 0.0;
  std::vector<double> batch_us;
  std::vector<double> batch_s;
  std::vector<size_t> batch_events;
};

// Feeds the stream to `system` in pre-built batches, checkpointing after the
// batch that ends the first half.
PassTimes IngestPass(Run* run, XStreamSystem* system, const Inputs& inputs,
                     const SystemDirs& dirs) {
  PassTimes t;
  std::vector<EventBatch> batches = MakeBatches(inputs.events, kIngestBatch);
  const size_t mid = batches.size() / 2;
  t.batch_us.reserve(batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    t.batch_events.push_back(batches[i].size());
    const int64_t start = NowNs();
    system->OnEventBatch(std::move(batches[i]));
    const int64_t end = NowNs();
    t.batch_us.push_back(static_cast<double>(end - start) * 1e-3);
    t.batch_s.push_back(static_cast<double>(end - start) * 1e-9);
    t.ingest_wall_s += t.batch_s.back();
    if (i + 1 == mid) {
      Stopwatch ck;
      const Status st = system->Checkpoint(dirs.checkpoint);
      t.checkpoint_s = ck.ElapsedSeconds();
      run->Check(st.ok(), "mid-stream checkpoint: " + st.ToString());
    }
  }
  Stopwatch flush;
  system->Flush();
  t.ingest_wall_s += flush.ElapsedSeconds();
  run->attempted += batches.size() + 1;
  const uint64_t wal_bytes =
      system->wal() != nullptr ? system->wal()->stats().bytes_appended : 0;
  t.disk_bytes = static_cast<double>(wal_bytes + DirectoryBytes(dirs.spill));
  return t;
}

LiveState Snapshot(XStreamSystem& system) {
  LiveState s;
  s.fingerprint = MatchFingerprint(system.engine());
  s.archive_events = system.archive().TotalEvents();
  s.next_seq = system.next_seq();
  return s;
}

void CompareToLive(Run* run, const LiveState& live, XStreamSystem& system,
                   const std::string& what) {
  const LiveState got = Snapshot(system);
  run->Check(got.fingerprint == live.fingerprint, what + ": match tables differ");
  run->Check(got.archive_events == live.archive_events,
             StrFormat("%s: archive holds %zu events, live held %zu", what.c_str(),
                       got.archive_events, live.archive_events));
  run->Check(got.next_seq == live.next_seq,
             StrFormat("%s: next_seq %llu, live %llu", what.c_str(),
                       static_cast<unsigned long long>(got.next_seq),
                       static_cast<unsigned long long>(live.next_seq)));
}

// Explains every incident once uncached, then once more from the cache.
void ExplainIncidents(Run* run, XStreamSystem* system, QueryId monitor,
                      const Inputs& inputs, std::vector<std::string>* signatures,
                      std::vector<double>* uncached_ms, std::vector<double>* cached_us,
                      ConsistencyTally* consistent) {
  IndexJobPartitions(system->engine(), monitor, inputs, &system->partitions());
  const bool record = signatures->empty();
  for (size_t k = 0; k < inputs.incidents.size(); ++k) {
    const Incident& inc = inputs.incidents[k];
    Stopwatch t;
    auto report = system->Explain(inc.annotation, monitor, kMonitorColumn);
    uncached_ms->push_back(t.ElapsedMillis());
    ++run->attempted;
    if (!report.ok()) {
      ++run->failed;
      run->Check(false, "Explain " + inc.job + ": " + report.status().ToString());
      continue;
    }
    const std::string sig = ReportSignature(*report);
    if (record) {
      signatures->push_back(sig);
    } else {
      run->Check(k < signatures->size() && (*signatures)[k] == sig,
                 "recovered explanation of " + inc.job + " differs from the live one");
    }
    consistent->Add(*report, inc.type);
    Stopwatch c;
    auto again = system->Explain(inc.annotation, monitor, kMonitorColumn);
    cached_us->push_back(c.ElapsedSeconds() * 1e6);
    ++run->attempted;
    run->Check(again.ok() && ReportSignature(*again) == sig,
               "cached repeat of " + inc.job + " differs from its first computation");
  }
}

void RunIngestTimed(Run* run, const Inputs& inputs) {
  const std::string root = run->args.work_dir + "/ingest";
  std::vector<double> setups = TimeSystemSetups(Workload::kIngest, inputs, root, 30);
  std::vector<double> eps, window_eps, batch_us, explain_ms, cached_us, recover_s,
      checkpoint_s, disk_per_event;
  ConsistencyTally consistent;
  Stopwatch total;
  for (size_t pass = 0; pass < 2 || total.ElapsedSeconds() < run->args.seconds; ++pass) {
    const SystemDirs dirs = FreshDirs(root, "live");
    LiveState live;
    {
      Stopwatch st;
      auto system = std::make_unique<XStreamSystem>(inputs.registry.get(),
                                                    MakeConfig(Workload::kIngest, dirs));
      const QueryId monitor = AddQueries(system.get(), inputs, run);
      setups.push_back(st.ElapsedSeconds());
      PassTimes t = IngestPass(run, system.get(), inputs, dirs);
      eps.push_back(static_cast<double>(inputs.events.size()) / t.ingest_wall_s);
      const std::vector<double> w = WindowRates(t.batch_s, t.batch_events, kRateWindow);
      window_eps.insert(window_eps.end(), w.begin(), w.end());
      batch_us.insert(batch_us.end(), t.batch_us.begin(), t.batch_us.end());
      checkpoint_s.push_back(t.checkpoint_s);
      disk_per_event.push_back(t.disk_bytes / static_cast<double>(inputs.events.size()));
      live = Snapshot(*system);
      run->Check(live.archive_events == inputs.events.size(),
                 StrFormat("archive holds %zu of %zu events", live.archive_events,
                           inputs.events.size()));
      CheckSeedFingerprint(run, live.fingerprint, "ingest");
      ExplainIncidents(run, system.get(), monitor, inputs, &live.signatures, &explain_ms,
                       &cached_us, &consistent);
      CountFaults(run, *system);
    }
    // The live system is gone (as after a crash); recover into a fresh one.
    SystemDirs rdirs = FreshDirs(root, "recovered");
    rdirs.wal = dirs.wal;
    rdirs.checkpoint = dirs.checkpoint;
    auto recovered = std::make_unique<XStreamSystem>(inputs.registry.get(),
                                                     MakeConfig(Workload::kIngest, rdirs));
    const QueryId monitor = AddQueries(recovered.get(), inputs, run);
    Stopwatch rt;
    auto rep = recovered->Recover(dirs.checkpoint);
    recover_s.push_back(rt.ElapsedSeconds());
    ++run->attempted;
    run->Check(rep.ok() && rep->manifest_loaded,
               "Recover: " + (rep.ok() ? std::string("no manifest loaded")
                                       : rep.status().ToString()));
    if (!rep.ok()) ++run->failed;
    CompareToLive(run, live, *recovered, "recovered system");
    std::vector<double> unused;
    ExplainIncidents(run, recovered.get(), monitor, inputs, &live.signatures,
                     &explain_ms, &unused, &consistent);
    CountFaults(run, *recovered);
  }
  run->Add("setup_s", Median(setups), "s", setups.size());
  run->Add("ingest_eps", Median(window_eps), "events/s", window_eps.size(),
           "median over 64-batch windows");
  run->Add("ingest_pass_eps", Median(eps), "events/s", eps.size(), "whole passes");
  AddTiming(&run->metrics, "ingest_batch_p50_us", "ingest_batch_p99_us", 99.0, batch_us,
            "us");
  AddPercentile(&run->metrics, "ingest_batch_p90_us", 90.0, batch_us, "us");
  AddTiming(&run->metrics, "explain_p50_ms", "explain_p95_ms", 95.0, explain_ms, "ms");
  run->Add("disk_bytes_per_event", Median(disk_per_event), "B/event",
           disk_per_event.size());
  run->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  run->Add("recover_s", Median(recover_s), "s", recover_s.size());
  run->Add("checkpoint_s", Median(checkpoint_s), "s", checkpoint_s.size());
  AddPercentile(&run->metrics, "explain_cached_p50_us", 50.0, cached_us, "us");
  consistent.Report(run);
}

void RunIngestTraced(Run* run, const Inputs& inputs) {
  const std::string root = run->args.work_dir + "/ingest";
  std::atomic<uint64_t> spill_reads{0};
  LayerCounts counts;

  // Reference: the system itself, untraced, with the mid-stream checkpoint.
  const SystemDirs dirs = FreshDirs(root, "live");
  LiveState live;
  double untraced_wall = 0.0;
  {
    auto system = std::make_unique<XStreamSystem>(inputs.registry.get(),
                                                  MakeConfig(Workload::kIngest, dirs));
    AddQueries(system.get(), inputs, run);
    untraced_wall = IngestPass(run, system.get(), inputs, dirs).ingest_wall_s;
    live = Snapshot(*system);
    CheckSeedFingerprint(run, live.fingerprint, "ingest (traced run, system)");
    CountFaults(run, *system);
  }

  // Recovery split into its two layers: the checkpoint load (Recover on a
  // system without a WAL) and the WAL-tail replay through the ingest path.
  {
    SystemDirs rdirs = FreshDirs(root, "recovered");
    XStreamConfig config = MakeConfig(Workload::kIngest, rdirs);
    config.durability.wal_dir.reset();
    auto recovered = std::make_unique<XStreamSystem>(inputs.registry.get(), config);
    AddQueries(recovered.get(), inputs, run);
    Stopwatch load;
    auto rep = recovered->Recover(dirs.checkpoint);
    counts["recover.checkpoint_load_s"] = load.ElapsedSeconds();
    run->Check(rep.ok() && rep->manifest_loaded, "checkpoint load failed");
    if (rep.ok()) {
      Stopwatch replay;
      auto stats = WriteAheadLog::ReplayWithSeq(
          dirs.wal, rep->checkpoint_seq,
          [&](uint64_t, EventBatch batch) { recovered->OnEventBatch(std::move(batch)); });
      recovered->Flush();
      counts["recover.wal_replay_s"] = replay.ElapsedSeconds();
      run->Check(stats.ok(), "WAL replay: " + stats.status().ToString());
      if (stats.ok()) counts["recover.wal_events"] = stats->events_applied;
      CompareToLive(run, live, *recovered, "recovered system (traced)");
    }
    run->attempted += 2;
  }

  // The traced pass: the same stream through the decomposed pipeline.
  const SystemDirs tdirs = FreshDirs(root, "traced");
  XStreamConfig config = MakeConfig(Workload::kIngest, tdirs);
  config.archive.spill_read_hook_for_testing = [&spill_reads] { ++spill_reads; };
  SpanRecorder trace;
  DecomposedIngest pipe(inputs.registry.get(), config, &trace);
  for (const QueryText& q : inputs.queries) {
    const Status st = pipe.AddQuery(q.text, q.name);
    run->Check(st.ok(), "decomposed AddQuery: " + st.ToString());
  }
  std::vector<EventBatch> batches = MakeBatches(inputs.events, kIngestBatch);
  const int64_t start = NowNs();
  for (size_t i = 0; i < batches.size(); ++i) {
    ScopedSpan span(&trace, "xstream.batch", i);
    pipe.OnEventBatch(std::move(batches[i]), i);
  }
  {
    ScopedSpan span(&trace, "xstream.batch", batches.size());
    pipe.Flush(batches.size());
  }
  const double traced_wall = static_cast<double>(NowNs() - start) * 1e-9;
  run->attempted += batches.size();

  run->Check(MatchFingerprint(pipe.engine()) == live.fingerprint,
             "decomposed ingest: match tables differ from the system's");
  run->Check(pipe.archive().TotalEvents() == live.archive_events,
             "decomposed ingest: archive event count differs from the system's");
  run->Check(pipe.wal() != nullptr && pipe.wal()->next_seq() == live.next_seq,
             "decomposed ingest: WAL next_seq differs from the system's");

  AddIngestCounts(pipe, tdirs.spill, spill_reads.load(), &counts);
  if (pipe.wal() != nullptr) run->failed += pipe.wal()->stats().append_failures;
  const std::vector<Span> spans = trace.spans();
  trace.WriteJsonLines(run->args.state_dir + "/trace-ingest.jsonl");
  AddLedger(run, spans, traced_wall, traced_wall / untraced_wall, counts);
}

}  // namespace

void RunIngest(Run* run, const Inputs& inputs) {
  if (run->args.trace) {
    RunIngestTraced(run, inputs);
  } else {
    RunIngestTimed(run, inputs);
  }
}

}  // namespace perfbench
