#include "inputs.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "event/stream.h"

namespace perfbench {

using namespace exstream;

namespace {

// Stream shape. Each episode holds one anomalous job, started 100-200 s in,
// whose anomaly ends by 560 s; the episode's background jobs start between
// 560 and 1040 s and finish (about 500 s later) before the next episode's
// anomaly begins. So no background job runs beside an anomaly, and an
// annotation's related partitions show normal behaviour, as in the paper's
// Hadoop workloads.
constexpr int kNodes = 12;
constexpr int kEpisodes = 8;  // every AnomalyType twice
constexpr Timestamp kEpisodeLength = 1600;
constexpr Timestamp kBackgroundOffsets[] = {560, 700, 850, 1000};
constexpr int kFamilies = 2;

constexpr const char* kFamilyNames[kFamilies] = {"WC-frequent-users/worldcup",
                                                  "Twitter-trigram/twitter"};

// One query template: `{}` placeholders filled from parameter axes. The
// templates vary the SEQ shape, the partition attribute, predicate constants,
// WITHIN windows, RETURN clauses, Kleene+ and negation.
struct QueryTemplate {
  const char* text;
  std::vector<std::vector<const char*>> axes;
  size_t quota;  // queries drawn from this template
};

const std::vector<QueryTemplate>& Templates() {
  static const std::vector<QueryTemplate> templates = {
      // Streaming per-job aggregates: one row per absorbed DataIO event.
      {"PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId]{} "
       "RETURN (b[i].timestamp, a.jobId, {}(b[1..i].dataSize))",
       {{"", " AND b.dataSize > 0"}, {"sum", "count", "max"}},
       28},
      // Job-level completion queries with data-size filters and windows.
      {"PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] AND "
       "b.dataSize {} {}{} RETURN ({})",
       {{">", "<"},
        {"-1.5", "-0.5", "0.5", "1.5"},
        {"", " WITHIN 900", " WITHIN 1800"},
        {"a.jobId, c.timestamp", "a.jobId, c.eventId"}},
       72},
      // Task lifecycles, partitioned by job or by task number.
      {"PATTERN SEQ(MapStart a, MapFinish b) WHERE [{}]{} RETURN (a.jobId, b.taskId)",
       {{"jobId", "taskId"}, {"", " WITHIN 60", " WITHIN 300"}},
       38},
      {"PATTERN SEQ(PullStart a, PullFinish+ b[], JobEnd c) WHERE [jobId]{} "
       "RETURN (a.jobId, c.timestamp)",
       {{"", " WITHIN 1200"}},
       19},
      // Node-metric correlations.
      {"PATTERN SEQ(CpuUsage a, MemUsage b) WHERE [clusterNodeNumber] AND "
       "a.cpuUsage > {} WITHIN {} RETURN (b.timestamp, a.cpuUsage, b.memFree)",
       {{"20", "50", "80"}, {"10", "30"}},
       38},
      {"PATTERN SEQ(DiskUsage a, NetUsage+ b[], DiskUsage c) WHERE "
       "[clusterNodeNumber] AND a.diskIOPercent > {} RETURN (c.timestamp, "
       "a.diskIOPercent)",
       {{"10", "40", "70"}},
       34},
      // Negation: never merged, each query is its own group.
      {"PATTERN SEQ({}) WHERE [jobId] RETURN (b.timestamp, a.{})",
       {{"MapStart a, !PullFinish n, MapFinish b", "JobStart a, !MapFinish n, PullStart b"},
        {"jobId"}},
       10},
  };
  return templates;
}

// Every parameter combination of `t`, in a fixed order.
std::vector<std::string> Expand(const QueryTemplate& t) {
  std::vector<std::string> out = {t.text};
  for (const auto& axis : t.axes) {
    std::vector<std::string> next;
    for (const std::string& partial : out) {
      const size_t at = partial.find("{}");
      for (const char* value : axis) {
        next.push_back(partial.substr(0, at) + value + partial.substr(at + 2));
      }
    }
    out = std::move(next);
  }
  return out;
}

}  // namespace

size_t DistinctQueryTexts(const std::vector<QueryText>& queries) {
  std::set<std::string> texts;
  for (const QueryText& q : queries) texts.insert(q.text);
  return texts.size();
}

Result<Inputs> MakeInputs(uint64_t seed) {
  Inputs in;
  in.registry = std::make_unique<EventTypeRegistry>();
  EXSTREAM_RETURN_NOT_OK(HadoopClusterSim::RegisterEventTypes(in.registry.get()));
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);

  HadoopSimConfig sim_config;
  sim_config.num_nodes = kNodes;
  sim_config.seed = rng.gen()();
  HadoopClusterSim sim(sim_config, in.registry.get());

  auto add_job = [&](const std::string& id, Timestamp start, double output_mb,
                     int family) {
    HadoopJobConfig job;
    job.job_id = id;
    const std::string fam = kFamilyNames[family];
    job.program = fam.substr(0, fam.find('/'));
    job.dataset = fam.substr(fam.find('/') + 1);
    job.start_time = start;
    job.total_map_output_mb = output_mb;
    sim.AddJob(job);
    // Related partitions are the same program's jobs of the same episode.
    in.job_family.emplace_back(id, StrFormat("%s#%lld", fam.c_str(),
                                             static_cast<long long>(start / kEpisodeLength)));
  };

  // Background jobs in fixed slots of every episode, alternating between the
  // program families. Their sizes are a fixed set in seeded order, so every
  // seed carries the same work.
  const size_t num_jobs = kEpisodes * std::size(kBackgroundOffsets);
  std::vector<double> sizes;
  for (size_t j = 0; j < num_jobs; ++j) sizes.push_back(1200.0 + 1600.0 * j / num_jobs);
  std::shuffle(sizes.begin(), sizes.end(), rng.gen());
  for (size_t j = 0; j < num_jobs; ++j) {
    const size_t episode = j / std::size(kBackgroundOffsets);
    const size_t slot = j % std::size(kBackgroundOffsets);
    add_job(StrFormat("job-%04zu", j),
            static_cast<Timestamp>(episode) * kEpisodeLength + kBackgroundOffsets[slot] +
                rng.UniformInt(0, 40),
            sizes[j], static_cast<int>(slot) % kFamilies);
  }

  // One anomalous job per episode; the anomaly types cycle in seeded order.
  std::vector<AnomalyType> types = {AnomalyType::kHighMemory, AnomalyType::kHighCpu,
                                    AnomalyType::kBusyDisk, AnomalyType::kBusyNetwork};
  std::vector<AnomalyType> schedule;
  for (int round = 0; round < kEpisodes / 4; ++round) {
    std::shuffle(types.begin(), types.end(), rng.gen());
    schedule.insert(schedule.end(), types.begin(), types.end());
  }
  for (int e = 0; e < kEpisodes; ++e) {
    Incident inc;
    inc.type = schedule[static_cast<size_t>(e)];
    inc.job = StrFormat("incident-%02d", e);
    inc.job_start = e * kEpisodeLength + rng.UniformInt(100, 200);
    add_job(inc.job, inc.job_start, 1000.0, e % kFamilies);
    AnomalySpec anomaly;
    anomaly.type = inc.type;
    anomaly.start = inc.job_start + 60;
    anomaly.end = inc.job_start + 360;
    anomaly.severity = rng.Uniform(0.9, 1.2);
    sim.AddAnomaly(anomaly);
    in.incidents.push_back(std::move(inc));
  }

  VectorSink sink;
  EXSTREAM_ASSIGN_OR_RETURN(const auto completions, sim.Run(&sink));
  in.events = sink.TakeEvents();  // the simulator emits in time order
  for (Incident& inc : in.incidents) {
    for (const auto& [job, end] : completions) {
      if (job == inc.job) inc.job_end = end;
    }
    inc.annotation.abnormal = {kMonitorQuery,
                               {inc.job_start + 60, inc.job_start + 360}, inc.job};
    inc.annotation.reference = {kMonitorQuery, {inc.job_start + 420, inc.job_end},
                                inc.job};
  }

  in.queries.push_back(
      {kMonitorQuery,
       "PATTERN SEQ(JobStart a, DataIO+ b[], JobEnd c) WHERE [jobId] "
       "RETURN (b[i].timestamp, a.jobId, sum(b[1..i].dataSize))"});
  in.queries.push_back({kDetectQuery,
                        "PATTERN SEQ(CpuUsage a, MemUsage b) WHERE [clusterNodeNumber] "
                        "RETURN (b.timestamp, b.memFree)"});
  // Each template contributes its quota by cycling through all of its
  // parameter combinations from a seeded offset, so every seed's mix has the
  // same merge groups and differs only in replica counts and query order
  // (sharing, but never the degenerate one-group case).
  Rng query_rng = rng.Fork();
  std::vector<std::string> texts;
  for (const QueryTemplate& t : Templates()) {
    const std::vector<std::string> combos = Expand(t);
    const auto offset = static_cast<size_t>(
        query_rng.UniformInt(0, static_cast<int64_t>(combos.size()) - 1));
    for (size_t k = 0; k < t.quota; ++k) texts.push_back(combos[(offset + k) % combos.size()]);
  }
  std::shuffle(texts.begin(), texts.end(), query_rng.gen());
  for (std::string& text : texts) {
    in.queries.push_back({StrFormat("M%03zu", in.queries.size()), std::move(text)});
  }
  return in;
}

}  // namespace perfbench
