// Workload `serve`: monitoring while explaining (the paper's Appendix C).
// The stream is sent open-loop at a fixed rate; each batch is timed from when
// it was due. Concurrently the detector's auto-explain worker explains every
// excursion it finalizes, and one closed-loop analyst explains the injected
// incidents whose jobs have finished so far. Every batch advances the data
// watermark, so the result cache cannot help. Threads: producer, analyst,
// auto-explain worker and the WAL flusher.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "harness.h"
#include "ledger.h"
#include "pipeline.h"

namespace perfbench {

using namespace exstream;

namespace {

/// One auto-explanation as the producer observed it.
struct AutoSeen {
  Timestamp last_abnormal = 0;
  bool ok = false;
};

/// How the serve loop drives one implementation (the system, or the traced
/// decomposed pipeline plus shadow explainer).
struct ServeHooks {
  std::function<void(size_t index, EventBatch batch)> apply;
  std::function<std::vector<AutoSeen>()> take_autos;
  /// The data watermark (events applied), the result cache's data version.
  std::function<uint64_t()> watermark;
  /// Indexes the partitions seen so far (the analyst's refresh before asking).
  std::function<void()> refresh_partitions;
  std::function<Result<ExplanationReport>(const Incident& incident)> analyst_explain;
  /// After the last batch: flush and let the auto-explainer catch up.
  std::function<void()> finish;
};

struct ServeResult {
  std::vector<double> batch_us;  // completion minus due time
  std::vector<double> busy_us;   // completion minus send time
  std::vector<double> late_ms;   // send minus due time
  std::vector<double> explain_ms;
  ConsistencyTally consistent;
  std::vector<double> incident_ms;
  size_t autos = 0;
  size_t batches_sent = 0;
  size_t events_sent = 0;
  double send_wall_s = 0.0;
};

ServeResult ServeLoop(Run* run, const Inputs& inputs, std::vector<EventBatch> batches,
                      size_t batch_limit, const ServeHooks& hooks) {
  ServeResult res;
  const size_t n = std::min(batch_limit, batches.size());
  std::vector<Timestamp> max_ts(n);
  for (size_t i = 0; i < n; ++i) max_ts[i] = batches[i].back().ts;
  std::vector<int64_t> sent_ns(n, 0);
  OpenLoopClock clock;
  clock.interval_ns = static_cast<int64_t>(static_cast<double>(kServeBatch) /
                                           kServeRateEps * 1e9);

  std::atomic<Timestamp> stream_ts{std::numeric_limits<Timestamp>::min()};
  std::atomic<bool> stop{false};
  std::mutex analyst_mu;  // guards res.explain_ms / res.consistent / run counters
  std::thread analyst([&] {
    size_t cursor = 0;
    // Each request waits for new data, so it never repeats a cache key.
    uint64_t last_watermark = UINT64_MAX;
    while (!stop.load()) {
      if (hooks.watermark() == last_watermark) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const Timestamp now_ts = stream_ts.load();
      const Incident* pick = nullptr;
      for (size_t j = 0; j < inputs.incidents.size() && pick == nullptr; ++j) {
        const Incident& inc = inputs.incidents[(cursor + j) % inputs.incidents.size()];
        if (inc.job_end < now_ts) {
          pick = &inc;
          cursor = (cursor + j + 1) % inputs.incidents.size();
        }
      }
      if (pick == nullptr) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      hooks.refresh_partitions();
      Stopwatch t;
      auto report = hooks.analyst_explain(*pick);
      const double ms = t.ElapsedMillis();
      last_watermark = hooks.watermark();
      std::lock_guard<std::mutex> lock(analyst_mu);
      ++run->attempted;
      if (!report.ok()) {
        ++run->failed;
        run->Check(false, "analyst Explain " + pick->job + ": " + report.status().ToString());
        continue;
      }
      res.explain_ms.push_back(ms);
      res.consistent.Add(*report, pick->type);
    }
  });

  std::vector<std::pair<int64_t, AutoSeen>> seen;
  auto poll = [&] {
    for (const AutoSeen& a : hooks.take_autos()) seen.emplace_back(NowNs(), a);
  };
  clock.start_ns = NowNs();
  for (size_t i = 0; i < n; ++i) {
    for (int64_t now = NowNs(); now < clock.DueNs(i); now = NowNs()) {
      poll();
      const int64_t wait = std::min<int64_t>(clock.DueNs(i) - now, 200000);
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }
    const int64_t sent = NowNs();
    sent_ns[i] = sent;
    res.events_sent += batches[i].size();
    hooks.apply(i, std::move(batches[i]));
    const int64_t done = NowNs();
    stream_ts.store(max_ts[i]);
    res.batch_us.push_back(static_cast<double>(clock.LatencyNs(i, done)) * 1e-3);
    res.busy_us.push_back(static_cast<double>(done - sent) * 1e-3);
    res.late_ms.push_back(static_cast<double>(clock.LatenessNs(i, sent)) * 1e-6);
  }
  res.batches_sent = n;
  res.send_wall_s = static_cast<double>(NowNs() - clock.start_ns) * 1e-9;
  poll();
  const size_t during_stream = seen.size();
  stop.store(true);
  analyst.join();
  hooks.finish();
  poll();
  run->attempted += n;

  for (size_t s = 0; s < seen.size(); ++s) {
    const auto& [seen_ns, a] = seen[s];
    ++run->attempted;
    if (!a.ok) {
      ++run->failed;
      run->Check(false, "auto-explanation failed");
    }
    ++res.autos;
    if (s >= during_stream) continue;  // closed at stream end, not by the detector
    const size_t b = static_cast<size_t>(
        std::lower_bound(max_ts.begin(), max_ts.end(), a.last_abnormal) - max_ts.begin());
    if (b < n) res.incident_ms.push_back(static_cast<double>(seen_ns - sent_ns[b]) * 1e-6);
  }
  return res;
}

ServeHooks SystemHooks(XStreamSystem* sys, QueryId monitor, const Inputs& inputs) {
  ServeHooks h;
  h.apply = [sys](size_t, EventBatch b) { sys->OnEventBatch(std::move(b)); };
  h.watermark = [sys] { return sys->data_watermark(); };
  h.take_autos = [sys] {
    std::vector<AutoSeen> out;
    for (const auto& a : sys->TakeAutoExplanations()) {
      out.push_back({a.anomaly.annotation.abnormal.range.upper, a.report->ok()});
    }
    return out;
  };
  h.refresh_partitions = [sys, monitor, &inputs] {
    IndexJobPartitions(sys->engine(), monitor, inputs, &sys->partitions());
  };
  h.analyst_explain = [sys, monitor](const Incident& inc) {
    return sys->Explain(inc.annotation, monitor, kMonitorColumn);
  };
  h.finish = [sys] {
    sys->Flush();
    sys->FinalizeDetector();
    sys->DrainAutoExplains();
  };
  return h;
}

void AddServeMetrics(Run* run, const ServeResult& r, double setup_s, size_t setups,
                     double disk_per_event) {
  run->Add("setup_s", setup_s, "s", setups);
  run->Add("ingest_eps", static_cast<double>(r.events_sent) / r.send_wall_s, "events/s",
           r.batches_sent, StrFormat("offered %.0f events/s", kServeRateEps));
  AddTiming(&run->metrics, "ingest_batch_p50_us", "ingest_batch_p99_us", 99.0, r.batch_us,
            "us");
  AddPercentile(&run->metrics, "ingest_batch_p90_us", 90.0, r.batch_us, "us");
  AddTiming(&run->metrics, "explain_p50_ms", "explain_p95_ms", 95.0, r.explain_ms, "ms");
  run->Add("disk_bytes_per_event", disk_per_event, "B/event");
  run->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  AddTiming(&run->metrics, "incident_to_explain_p50_ms", "incident_to_explain_p90_ms", 90.0,
            r.incident_ms, "ms");
  AddTiming(&run->metrics, "gen_late_p50_ms", "gen_late_p99_ms", 99.0, r.late_ms, "ms");
  r.consistent.Report(run);
  run->Add("auto_explanations", static_cast<double>(r.autos), "count");
}

void RunServeTimed(Run* run, const Inputs& inputs) {
  const std::string root = run->args.work_dir + "/serve";
  const std::vector<double> setups = TimeSystemSetups(Workload::kServe, inputs, root, 30);
  const SystemDirs dirs = FreshDirs(root, "sys");
  auto sys = std::make_unique<XStreamSystem>(inputs.registry.get(),
                                             MakeConfig(Workload::kServe, dirs));
  const QueryId monitor = AddQueries(sys.get(), inputs, run);
  std::vector<EventBatch> batches = MakeBatches(inputs.events, kServeBatch);
  const size_t total = batches.size();
  const size_t limit = static_cast<size_t>(run->args.seconds * kServeRateEps /
                                           static_cast<double>(kServeBatch));
  const ServeResult r =
      ServeLoop(run, inputs, std::move(batches), limit, SystemHooks(sys.get(), monitor, inputs));
  if (r.batches_sent == total) {
    CheckSeedFingerprint(run, MatchFingerprint(sys->engine()), "serve");
    run->Check(sys->archive().TotalEvents() == inputs.events.size(),
               "serve: archive is missing events");
  }
  const uint64_t wal_bytes = sys->wal() != nullptr ? sys->wal()->stats().bytes_appended : 0;
  const double disk = static_cast<double>(wal_bytes + DirectoryBytes(dirs.spill)) /
                      static_cast<double>(r.events_sent);
  CountFaults(run, *sys);
  const ExplainResultCache::Stats cs = sys->explain_cache()->stats();
  sys.reset();
  AddServeMetrics(run, r, Median(setups), setups.size(), disk);
  run->Add("cache_hit_ratio",
           static_cast<double>(cs.hits) / static_cast<double>(std::max<uint64_t>(1, cs.hits + cs.misses)),
           "ratio", cs.hits + cs.misses, "every batch moves the watermark");
}

void RunServeTraced(Run* run, const Inputs& inputs) {
  const std::string root = run->args.work_dir + "/serve";
  const size_t half = MakeBatches(inputs.events, kServeBatch).size() / 2;

  // Untraced reference over the first half of the stream.
  uint64_t fp = 0;
  size_t archive_events = 0;
  uint64_t next_seq = 0;
  double untraced_busy = 0.0;
  {
    const SystemDirs dirs = FreshDirs(root, "sys");
    auto sys = std::make_unique<XStreamSystem>(inputs.registry.get(),
                                               MakeConfig(Workload::kServe, dirs));
    const QueryId monitor = AddQueries(sys.get(), inputs, run);
    const ServeResult r = ServeLoop(run, inputs, MakeBatches(inputs.events, kServeBatch),
                                    half, SystemHooks(sys.get(), monitor, inputs));
    for (const double b : r.busy_us) untraced_busy += b;
    fp = MatchFingerprint(sys->engine());
    archive_events = sys->archive().TotalEvents();
    next_seq = sys->next_seq();
    CountFaults(run, *sys);
  }

  // Traced: the decomposed pipeline, the shadow explainer for the analyst and
  // a benchmark-side auto-explain worker fed by the decomposed detector.
  std::atomic<uint64_t> spill_reads{0};
  const SystemDirs dirs = FreshDirs(root, "traced");
  XStreamConfig config = MakeConfig(Workload::kServe, dirs);
  config.archive.spill_read_hook_for_testing = [&spill_reads] { ++spill_reads; };
  SpanRecorder trace;
  DecomposedIngest pipe(inputs.registry.get(), config, &trace);
  for (const QueryText& q : inputs.queries) {
    const Status st = pipe.AddQuery(q.text, q.name);
    run->Check(st.ok(), "decomposed AddQuery: " + st.ToString());
  }
  const QueryId monitor = pipe.monitor_query();
  const ShadowExplainer shadow(&pipe.archive(), &pipe.partitions(), pipe.MakeSeriesProvider(),
                               BenchExplainOptions(), pipe.tails(), &trace);
  ExplainResultCache cache(kExplainCacheCapacity);

  std::mutex auto_mu;
  std::condition_variable auto_cv;
  std::deque<StreamAnomaly> queue;
  std::vector<AutoSeen> done;
  bool auto_stop = false;
  bool auto_busy = false;
  size_t dropped = 0;
  std::thread worker([&] {
    uint64_t id = 1ull << 40;
    std::unique_lock<std::mutex> lock(auto_mu);
    for (;;) {
      auto_cv.wait(lock, [&] { return !queue.empty() || auto_stop; });
      if (queue.empty()) return;
      StreamAnomaly a = std::move(queue.front());
      queue.pop_front();
      auto_busy = true;
      lock.unlock();
      ExplainResultCache::ResultPtr result;
      {
        ScopedSpan span(&trace, "explain.auto", id);
        result = CachedShadowExplain(&cache, shadow, a.annotation, pipe.detect_query(),
                                     pipe.watermark(), &trace, id);
      }
      ++id;
      lock.lock();
      done.push_back({a.annotation.abnormal.range.upper, result->ok()});
      auto_busy = false;
      auto_cv.notify_all();
    }
  });

  ServeHooks h;
  h.apply = [&](size_t i, EventBatch b) {
    {
      ScopedSpan span(&trace, "xstream.batch", i);
      pipe.OnEventBatch(std::move(b), i);
    }
    std::vector<StreamAnomaly> ready = pipe.TakeAnomalies();
    if (ready.empty()) return;
    std::lock_guard<std::mutex> lock(auto_mu);
    for (StreamAnomaly& a : ready) {
      queue.push_back(std::move(a));
      while (queue.size() > kAutoQueueCapacity) {
        queue.pop_front();
        ++dropped;
      }
    }
    auto_cv.notify_all();
  };
  h.watermark = [&] { return pipe.watermark(); };
  h.take_autos = [&] {
    std::lock_guard<std::mutex> lock(auto_mu);
    std::vector<AutoSeen> out = std::move(done);
    done.clear();
    return out;
  };
  std::atomic<uint64_t> analyst_id{1ull << 50};
  h.refresh_partitions = [&] {
    IndexJobPartitions(pipe.engine(), monitor, inputs, &pipe.partitions());
  };
  h.analyst_explain = [&](const Incident& inc) -> Result<ExplanationReport> {
    const uint64_t id = analyst_id++;
    ScopedSpan span(&trace, "explain.request", id);
    const ExplainResultCache::ResultPtr r =
        CachedShadowExplain(&cache, shadow, inc.annotation, monitor, pipe.watermark(), &trace, id);
    return *r;
  };
  h.finish = [&] {
    {
      ScopedSpan span(&trace, "xstream.batch", half);
      pipe.Flush(half);
    }
    std::unique_lock<std::mutex> lock(auto_mu);
    auto_cv.wait(lock, [&] { return queue.empty() && !auto_busy; });
  };
  const ServeResult r =
      ServeLoop(run, inputs, MakeBatches(inputs.events, kServeBatch), half, h);
  {
    std::lock_guard<std::mutex> lock(auto_mu);
    auto_stop = true;
  }
  auto_cv.notify_all();
  worker.join();
  run->failed += dropped;
  run->Check(dropped == 0, StrFormat("auto-explain queue dropped %zu anomalies", dropped));

  run->Check(MatchFingerprint(pipe.engine()) == fp,
             "decomposed serve: match tables differ from the system's");
  run->Check(pipe.archive().TotalEvents() == archive_events,
             "decomposed serve: archive event count differs from the system's");
  run->Check(pipe.wal() != nullptr && pipe.wal()->next_seq() == next_seq,
             "decomposed serve: WAL next_seq differs from the system's");

  double traced_busy = 0.0;
  for (const double b : r.busy_us) traced_busy += b;
  const std::vector<Span> spans = trace.spans();
  // Coverage is over the work the threads did (the producer's batches and the
  // explanations); the open loop's deliberate idle time is not traced work.
  double busy_wall = 0.0;
  for (const Span& s : spans) {
    if (s.parent == kNoParent) busy_wall += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  LayerCounts counts;
  AddIngestCounts(pipe, dirs.spill, spill_reads.load(), &counts);
  AddTailCounts({}, pipe.tails()->stats(), &counts);
  AddCacheCounts(cache.stats(), &counts);
  if (pipe.wal() != nullptr) run->failed += pipe.wal()->stats().append_failures;
  trace.WriteJsonLines(run->args.state_dir + "/trace-serve.jsonl");
  AddLedger(run, spans, busy_wall, traced_busy / untraced_busy, counts);
}

}  // namespace

void RunServe(Run* run, const Inputs& inputs) {
  if (run->args.trace) {
    RunServeTraced(run, inputs);
  } else {
    RunServeTimed(run, inputs);
  }
}

}  // namespace perfbench
