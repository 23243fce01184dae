// Workload `explain`: interactive investigation over a cold archive. Setup
// preloads the whole stream (most chunks spill, the incremental tails keep
// only the last episodes, the result cache is on). Then one closed-loop
// analyst issues a seeded sequence of annotations, each one injected
// incident: a fresh pick is never among the cache's last four entries (a
// miss), and about one request in four repeats one of the last two (a hit).
// Recent incidents are served from the tails, old ones backfill from spilled
// chunks.

#include <atomic>
#include <map>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "harness.h"
#include "ledger.h"
#include "pipeline.h"

namespace perfbench {

using namespace exstream;

namespace {

// History preloads of a run: setup_s is their median.
constexpr size_t kPreloads = 5;

// Requests of the traced run (a fixed amount of work, so layer totals compare
// across runs).
constexpr size_t kTracedRequests = 48;

// The analyst's seeded request sequence over incident indices.
class AnalystSequence {
 public:
  AnalystSequence(uint64_t seed, size_t incidents) : rng_(seed ^ 0xA11A5ull), n_(incidents) {}

  size_t Next() {
    size_t pick = 0;
    if (recent_.size() >= 2 && rng_.Chance(0.25)) {
      pick = recent_[static_cast<size_t>(rng_.UniformInt(0, 1))];
    } else {
      std::vector<size_t> fresh;
      for (size_t i = 0; i < n_; ++i) {
        if (std::find(recent_.begin(), recent_.end(), i) == recent_.end()) {
          fresh.push_back(i);
        }
      }
      pick = fresh[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(fresh.size()) - 1))];
    }
    recent_.erase(std::remove(recent_.begin(), recent_.end(), pick), recent_.end());
    recent_.insert(recent_.begin(), pick);
    if (recent_.size() > kExplainCacheCapacity) recent_.pop_back();
    return pick;
  }

 private:
  Rng rng_;
  size_t n_;
  std::vector<size_t> recent_;  // distinct picks, most recent first
};

struct Preloaded {
  std::unique_ptr<XStreamSystem> system;
  QueryId monitor = 0;
  double setup_s = 0.0;
  double preload_s = 0.0;
  std::vector<double> batch_us;
  std::vector<double> window_eps;
};

Preloaded Preload(Run* run, const Inputs& inputs, XStreamConfig config) {
  Preloaded p;
  std::vector<EventBatch> batches = MakeBatches(inputs.events, kIngestBatch);
  Stopwatch setup;
  p.system = std::make_unique<XStreamSystem>(inputs.registry.get(), std::move(config));
  p.monitor = AddQueries(p.system.get(), inputs, run);
  p.batch_us.reserve(batches.size());
  std::vector<double> batch_s;
  std::vector<size_t> batch_events;
  for (EventBatch& b : batches) {
    batch_events.push_back(b.size());
    const int64_t start = NowNs();
    p.system->OnEventBatch(std::move(b));
    const int64_t end = NowNs();
    p.batch_us.push_back(static_cast<double>(end - start) * 1e-3);
    batch_s.push_back(static_cast<double>(end - start) * 1e-9);
    p.preload_s += batch_s.back();
  }
  p.window_eps = WindowRates(batch_s, batch_events, kRateWindow);
  p.system->Flush();
  IndexJobPartitions(p.system->engine(), p.monitor, inputs, &p.system->partitions());
  p.setup_s = setup.ElapsedSeconds();
  run->attempted += batches.size();
  run->Check(p.system->archive().TotalEvents() == inputs.events.size(),
             "preload: archive is missing events");
  return p;
}

bool IsRecent(const Inputs& inputs, const Incident& inc) {
  return inc.annotation.abnormal.range.lower >= inputs.events.back().ts - kTailRetention;
}

void RunExplainTimed(Run* run, const Inputs& inputs) {
  const std::string root = run->args.work_dir + "/explain";
  std::vector<double> setups, eps, window_eps, batch_us;
  auto record = [&](const Preloaded& pre) {
    setups.push_back(pre.setup_s);
    eps.push_back(static_cast<double>(inputs.events.size()) / pre.preload_s);
    window_eps.insert(window_eps.end(), pre.window_eps.begin(), pre.window_eps.end());
    batch_us.insert(batch_us.end(), pre.batch_us.begin(), pre.batch_us.end());
  };
  const SystemDirs dirs = FreshDirs(root, "sys");
  Preloaded p = Preload(run, inputs, MakeConfig(Workload::kExplain, dirs));
  record(p);
  CheckSeedFingerprint(run, MatchFingerprint(p.system->engine()), "explain preload");
  const double disk = static_cast<double>(DirectoryBytes(dirs.spill)) /
                      static_cast<double>(inputs.events.size());

  // The analyst's time is cut into slices with one more history preload
  // (into a scratch system) between consecutive slices, so the preload
  // timings sample the whole run rather than its first seconds.
  AnalystSequence seq(run->args.seed, inputs.incidents.size());
  std::vector<double> uncached_ms, recent_ms, cold_ms, cached_us;
  ConsistencyTally consistent;
  std::map<size_t, std::string> first;
  const double slice_s = run->args.seconds / static_cast<double>(kPreloads);
  for (size_t slice = 0; slice < kPreloads; ++slice) {
    if (slice > 0) {
      const SystemDirs extra = FreshDirs(root, "extra");
      record(Preload(run, inputs, MakeConfig(Workload::kExplain, extra)));
    }
    Stopwatch elapsed;
    while (elapsed.ElapsedSeconds() < slice_s ||
           (slice + 1 == kPreloads && uncached_ms.size() < 40)) {
      const size_t k = seq.Next();
      const Incident& inc = inputs.incidents[k];
      const uint64_t hits_before = p.system->explain_cache()->stats().hits;
      Stopwatch t;
      auto report = p.system->Explain(inc.annotation, p.monitor, kMonitorColumn);
      const double secs = t.ElapsedSeconds();
      const bool cached = p.system->explain_cache()->stats().hits > hits_before;
      ++run->attempted;
      if (!report.ok()) {
        ++run->failed;
        run->Check(false, "Explain " + inc.job + ": " + report.status().ToString());
        continue;
      }
      const std::string sig = ReportSignature(*report);
      const auto [it, inserted] = first.emplace(k, sig);
      run->Check(it->second == sig, (cached ? "cached repeat of " : "recomputation of ") +
                                        inc.job + " differs from its first computation");
      if (cached) {
        cached_us.push_back(secs * 1e6);
        continue;
      }
      uncached_ms.push_back(secs * 1e3);
      (IsRecent(inputs, inc) ? recent_ms : cold_ms).push_back(secs * 1e3);
      consistent.Add(*report, inc.type);
    }
  }
  CountFaults(run, *p.system);

  run->Add("setup_s", Median(setups), "s", setups.size());
  run->Add("ingest_eps", Median(window_eps), "events/s", window_eps.size(),
           "history preload, median over 64-batch windows");
  run->Add("ingest_pass_eps", Median(eps), "events/s", eps.size(), "whole preloads");
  AddTiming(&run->metrics, "ingest_batch_p50_us", "ingest_batch_p99_us", 99.0, batch_us,
            "us");
  AddPercentile(&run->metrics, "ingest_batch_p90_us", 90.0, batch_us, "us");
  AddTiming(&run->metrics, "explain_p50_ms", "explain_p95_ms", 95.0, uncached_ms, "ms");
  run->Add("disk_bytes_per_event", disk, "B/event");
  run->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  AddPercentile(&run->metrics, "explain_cached_p50_us", 50.0, cached_us, "us");
  AddPercentile(&run->metrics, "explain_recent_p50_ms", 50.0, recent_ms, "ms");
  AddPercentile(&run->metrics, "explain_cold_p50_ms", 50.0, cold_ms, "ms");
  consistent.Report(run);
}

void RunExplainTraced(Run* run, const Inputs& inputs) {
  const std::string root = run->args.work_dir + "/explain";
  std::atomic<uint64_t> spill_reads{0};
  const SystemDirs dirs = FreshDirs(root, "sys");
  XStreamConfig config = MakeConfig(Workload::kExplain, dirs);
  config.archive.spill_read_hook_for_testing = [&spill_reads] { ++spill_reads; };
  Preloaded p = Preload(run, inputs, std::move(config));
  XStreamSystem& sys = *p.system;

  AnalystSequence seq(run->args.seed, inputs.incidents.size());
  std::vector<size_t> picks;
  for (size_t i = 0; i < kTracedRequests; ++i) picks.push_back(seq.Next());

  // Untraced reference: the system answers the sequence, after one warm-up
  // pass (page cache, allocator) so the traced pass does not get it for free.
  for (const size_t k : picks) {
    (void)sys.Explain(inputs.incidents[k].annotation, p.monitor, kMonitorColumn);
  }
  sys.explain_cache()->Clear();
  std::vector<std::string> expected;
  double untraced_wall = 0.0;
  for (const size_t k : picks) {
    Stopwatch t;
    auto report = sys.Explain(inputs.incidents[k].annotation, p.monitor, kMonitorColumn);
    untraced_wall += t.ElapsedSeconds();
    ++run->attempted;
    if (!report.ok()) ++run->failed;
    expected.push_back(report.ok() ? ReportSignature(*report) : report.status().ToString());
  }

  // Traced: the shadow pipeline over the same state, behind its own cache.
  SpanRecorder trace;
  const ShadowExplainer shadow(&sys.archive(), &sys.partitions(),
                               sys.MakeSeriesProvider(p.monitor, kMonitorColumn),
                               BenchExplainOptions(), sys.incremental(), &trace);
  ExplainResultCache cache(kExplainCacheCapacity);
  const IncrementalFeatureState::Stats tails_before = sys.incremental()->stats();
  const uint64_t reads_before = spill_reads.load();
  LayerCounts counts;
  double traced_wall = 0.0;
  for (size_t i = 0; i < picks.size(); ++i) {
    const uint64_t misses_before = cache.stats().misses;
    const int64_t start = NowNs();
    ExplainResultCache::ResultPtr result;
    {
      ScopedSpan span(&trace, "explain.request", i);
      result = CachedShadowExplain(&cache, shadow, inputs.incidents[picks[i]].annotation,
                                   p.monitor, sys.data_watermark(), &trace, i);
    }
    traced_wall += static_cast<double>(NowNs() - start) * 1e-9;
    ++run->attempted;
    if (!result->ok()) {
      ++run->failed;
      run->Check(false, "shadow Explain: " + result->status().ToString());
      continue;
    }
    run->Check(ReportSignature(**result) == expected[i],
               StrFormat("shadow explain of request %zu differs from the system's", i));
    if (cache.stats().misses > misses_before) {
      const ExplanationReport& r = **result;
      counts["explain.ranked"] += static_cast<double>(r.ranked.size());
      counts["explain.after_leap"] += static_cast<double>(r.after_leap.size());
      counts["explain.after_validation"] += static_cast<double>(r.after_validation.size());
      counts["explain.final"] += static_cast<double>(r.final_features.size());
      counts["explain.related_partitions"] += static_cast<double>(r.num_related_partitions);
    }
  }
  const ExplainResultCache::Stats cs = cache.stats();
  for (const char* name : {"explain.ranked", "explain.after_leap", "explain.after_validation",
                           "explain.final", "explain.related_partitions"}) {
    counts[name] /= static_cast<double>(std::max<uint64_t>(1, cs.misses));
  }
  AddTailCounts(tails_before, sys.incremental()->stats(), &counts);
  counts["archive.spill_reads"] = static_cast<double>(spill_reads.load() - reads_before);
  AddCacheCounts(cs, &counts);
  counts["cep.merge_groups"] = static_cast<double>(sys.engine().merge_stats().groups);
  counts["archive.chunks_spilled"] = static_cast<double>(CountFiles(dirs.spill, ".bin"));
  counts["archive.spill_bytes"] = static_cast<double>(DirectoryBytes(dirs.spill));
  CountFaults(run, sys);
  const std::vector<Span> spans = trace.spans();
  trace.WriteJsonLines(run->args.state_dir + "/trace-explain.jsonl");
  AddLedger(run, spans, traced_wall, traced_wall / untraced_wall, counts);
}

}  // namespace

void RunExplain(Run* run, const Inputs& inputs) {
  if (run->args.trace) {
    RunExplainTraced(run, inputs);
  } else {
    RunExplainTimed(run, inputs);
  }
}

}  // namespace perfbench
