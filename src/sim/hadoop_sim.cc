#include "sim/hadoop_sim.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/strings.h"
#include "sim/metric_model.h"

namespace exstream {

std::string_view AnomalyTypeToString(AnomalyType type) {
  switch (type) {
    case AnomalyType::kNone:
      return "none";
    case AnomalyType::kHighMemory:
      return "high-memory";
    case AnomalyType::kHighCpu:
      return "high-cpu";
    case AnomalyType::kBusyDisk:
      return "busy-disk";
    case AnomalyType::kBusyNetwork:
      return "busy-network";
  }
  return "?";
}

std::vector<std::string> AnomalyGroundTruthSignals(AnomalyType type) {
  switch (type) {
    case AnomalyType::kHighMemory:
      return {"MemUsage.memFree", "MemUsage.swapFree"};
    case AnomalyType::kHighCpu:
      // A CPU hog shows up as high usage, low idle, and high load; an expert
      // would accept any of the three as the explanation.
      return {"CpuUsage.cpuUsage", "CpuUsage.cpuIdle", "CpuUsage.load"};
    case AnomalyType::kBusyDisk:
      return {"DiskUsage.diskIOPercent", "DiskUsage.bytesWritten"};
    case AnomalyType::kBusyNetwork:
      return {"NetUsage.bytesIn", "NetUsage.bytesOut"};
    case AnomalyType::kNone:
      return {};
  }
  return {};
}

namespace {

const ValueType kI = ValueType::kInt64;
const ValueType kD = ValueType::kDouble;
const ValueType kS = ValueType::kString;

EventSchema JobEventSchema(const std::string& name) {
  return EventSchema(name, {{"eventType", kS},
                            {"eventId", kI},
                            {"jobId", kS},
                            {"clusterNodeNumber", kI}});
}

EventSchema TaskEventSchema(const std::string& name) {
  return EventSchema(name, {{"eventType", kS},
                            {"eventId", kI},
                            {"jobId", kS},
                            {"taskId", kI},
                            {"clusterNodeNumber", kI}});
}

}  // namespace

Status HadoopClusterSim::RegisterEventTypes(EventTypeRegistry* registry) {
  if (registry->Contains("JobStart")) return Status::OK();  // idempotent

  auto reg = [&](EventSchema schema) -> Status {
    EXSTREAM_RETURN_NOT_OK(registry->Register(std::move(schema)).status());
    return Status::OK();
  };

  EXSTREAM_RETURN_NOT_OK(reg(JobEventSchema("JobStart")));
  EXSTREAM_RETURN_NOT_OK(reg(JobEventSchema("JobEnd")));
  EXSTREAM_RETURN_NOT_OK(reg(EventSchema("DataIO", {{"eventType", kS},
                                                    {"eventId", kI},
                                                    {"jobId", kS},
                                                    {"taskId", kI},
                                                    {"attemptId", kI},
                                                    {"clusterNodeNumber", kI},
                                                    {"dataSize", kD}})));
  EXSTREAM_RETURN_NOT_OK(reg(TaskEventSchema("MapStart")));
  EXSTREAM_RETURN_NOT_OK(reg(TaskEventSchema("MapFinish")));
  EXSTREAM_RETURN_NOT_OK(reg(TaskEventSchema("PullStart")));
  EXSTREAM_RETURN_NOT_OK(reg(TaskEventSchema("PullFinish")));
  // `uptime` is a deliberate false-positive source: it separates any earlier
  // interval from any later one perfectly within a partition, but the
  // separation does not replicate across related partitions — exactly the
  // Sec. 5.2 motivating example for validation.
  EXSTREAM_RETURN_NOT_OK(reg(EventSchema("CpuUsage", {{"clusterNodeNumber", kI},
                                                      {"cpuUsage", kD},
                                                      {"cpuIdle", kD},
                                                      {"load", kD},
                                                      {"uptime", kD}})));
  EXSTREAM_RETURN_NOT_OK(reg(EventSchema("MemUsage", {{"clusterNodeNumber", kI},
                                                      {"memFree", kD},
                                                      {"memCached", kD},
                                                      {"memBuffers", kD},
                                                      {"swapFree", kD},
                                                      {"swapTotal", kD},
                                                      {"memTotal", kD},
                                                      {"procTotal", kD}})));
  EXSTREAM_RETURN_NOT_OK(reg(EventSchema("DiskUsage", {{"clusterNodeNumber", kI},
                                                       {"diskIOPercent", kD},
                                                       {"diskFree", kD},
                                                       {"bytesWritten", kD}})));
  EXSTREAM_RETURN_NOT_OK(reg(EventSchema("NetUsage", {{"clusterNodeNumber", kI},
                                                      {"bytesIn", kD},
                                                      {"bytesOut", kD},
                                                      {"pktsIn", kD},
                                                      {"pktsOut", kD}})));
  return Status::OK();
}

HadoopClusterSim::HadoopClusterSim(HadoopSimConfig config,
                                   const EventTypeRegistry* registry)
    : config_(config), registry_(registry) {}

double HadoopClusterSim::SlowdownAt(Timestamp t) const {
  double factor = 1.0;
  for (const AnomalySpec& a : anomalies_) {
    if (a.type == AnomalyType::kNone) continue;
    if (t >= a.start && t <= a.end) factor += 2.0 * a.severity;
  }
  return factor;
}

double HadoopClusterSim::AnomalyShift(AnomalyType relevant, int node, Timestamp t,
                                      double magnitude) const {
  double shift = 0.0;
  for (const AnomalySpec& a : anomalies_) {
    if (a.type != relevant) continue;
    if (t < a.start || t > a.end) continue;
    if (!a.nodes.empty() &&
        std::find(a.nodes.begin(), a.nodes.end(), node) == a.nodes.end()) {
      continue;
    }
    shift += magnitude * a.severity;
  }
  return shift;
}

Result<std::vector<std::pair<std::string, Timestamp>>> HadoopClusterSim::Run(
    EventSink* sink) {
  Rng rng(config_.seed);
  std::vector<Event> events;
  int64_t next_event_id = 1;

  auto type_id = [&](const char* name) -> EventTypeId {
    return registry_->IdOf(name).ValueOrDie();
  };
  const EventTypeId t_job_start = type_id("JobStart");
  const EventTypeId t_job_end = type_id("JobEnd");
  const EventTypeId t_data_io = type_id("DataIO");
  const EventTypeId t_map_start = type_id("MapStart");
  const EventTypeId t_map_finish = type_id("MapFinish");
  const EventTypeId t_pull_start = type_id("PullStart");
  const EventTypeId t_pull_finish = type_id("PullFinish");
  const EventTypeId t_cpu = type_id("CpuUsage");
  const EventTypeId t_mem = type_id("MemUsage");
  const EventTypeId t_disk = type_id("DiskUsage");
  const EventTypeId t_net = type_id("NetUsage");

  // ---- Job execution (1-second ticks) -------------------------------------
  struct JobState {
    const HadoopJobConfig* cfg;
    double map_rate_mb_s;
    double reduce_rate_mb_s;
    double map_done = 0.0;
    double reduce_done = 0.0;
    double map_pending = 0.0;     ///< produced but not yet emitted as DataIO
    double reduce_pending = 0.0;  ///< consumed but not yet emitted as DataIO
    int maps_started = 0;
    int maps_finished = 0;
    int pulls_finished = 0;
    Timestamp pull_started_at = -1;
    bool started = false;
    bool ended = false;
    Timestamp end_ts = 0;
  };
  std::vector<JobState> states;
  states.reserve(jobs_.size());
  for (const HadoopJobConfig& job : jobs_) {
    JobState st;
    st.cfg = &job;
    st.map_rate_mb_s =
        job.total_map_output_mb / static_cast<double>(job.map_phase_duration);
    // Reducers drain the queue a little slower than mappers fill it, giving
    // the Fig. 1(a) shape: early peak, slow decline, drop to zero at the end.
    const double reduce_span = static_cast<double>(job.map_phase_duration -
                                                   job.reducer_start_delay) +
                               80.0;
    st.reduce_rate_mb_s = job.total_map_output_mb / reduce_span;
    states.push_back(st);
  }

  std::vector<std::pair<std::string, Timestamp>> completions;
  Timestamp horizon = config_.duration;

  Rng job_rng = rng.Fork();
  for (JobState& st : states) {
    const HadoopJobConfig& cfg = *st.cfg;
    const double map_quota =
        cfg.total_map_output_mb / static_cast<double>(cfg.num_mappers);
    const double pull_quota =
        cfg.total_map_output_mb / static_cast<double>(cfg.num_reducers * 4);
    const Timestamp hard_stop = cfg.start_time + 20 * cfg.map_phase_duration;

    auto job_event = [&](EventTypeId type, Timestamp ts, const char* etype,
                         int node) {
      events.emplace_back(type, ts,
                          MakeValues(etype, next_event_id++, cfg.job_id,
                                     static_cast<int64_t>(node)));
    };
    auto task_event = [&](EventTypeId type, Timestamp ts, const char* etype,
                          int64_t task, int node) {
      events.emplace_back(type, ts,
                          MakeValues(etype, next_event_id++, cfg.job_id, task,
                                     static_cast<int64_t>(node)));
    };

    job_event(t_job_start, cfg.start_time, "JobStart", 0);
    st.started = true;

    for (Timestamp t = cfg.start_time;; ++t) {
      if (t > hard_stop) {  // safety net against runaway configs
        st.end_ts = t;
        break;
      }
      const double slow = SlowdownAt(t);

      // Map progress. Intermediate data is emitted as fixed-size DataIO
      // chunks, so the *event rate* tracks actual progress: a slowed job
      // produces DataIO events less frequently — the signal that the paper's
      // interval labeling keys on (Fig. 11(b)'s "3.7 vs 50.1" frequencies).
      constexpr double kChunkMb = 2.0;
      if (st.map_done < cfg.total_map_output_mb) {
        const double produced = std::min(st.map_rate_mb_s / slow,
                                         cfg.total_map_output_mb - st.map_done);
        st.map_done += produced;
        st.map_pending += produced;
        const bool final_map_tick = st.map_done >= cfg.total_map_output_mb - 1e-9;
        while (st.map_pending >= kChunkMb || (final_map_tick && st.map_pending > 1e-9)) {
          const double chunk = std::min(kChunkMb, st.map_pending);
          st.map_pending -= chunk;
          const int node = static_cast<int>(job_rng.UniformInt(0, config_.num_nodes - 1));
          events.emplace_back(
              t_data_io, t,
              MakeValues("DataIO", next_event_id++, cfg.job_id,
                         static_cast<int64_t>(st.maps_started),
                         static_cast<int64_t>(1), static_cast<int64_t>(node),
                         chunk));
        }
        // Mapper lifecycle events at quota crossings.
        while (st.maps_started < cfg.num_mappers &&
               st.map_done > map_quota * static_cast<double>(st.maps_started) + 1e-9) {
          task_event(t_map_start, t, "MapStart", st.maps_started,
                     st.maps_started % config_.num_nodes);
          ++st.maps_started;
        }
        while (st.maps_finished < cfg.num_mappers &&
               st.map_done >=
                   map_quota * static_cast<double>(st.maps_finished + 1) - 1e-9) {
          task_event(t_map_finish, t, "MapFinish", st.maps_finished,
                     st.maps_finished % config_.num_nodes);
          ++st.maps_finished;
        }
      }

      // Reduce progress (starts after the configured delay).
      if (t >= cfg.start_time + cfg.reducer_start_delay &&
          st.reduce_done < st.map_done) {
        const double consumed =
            std::min(st.reduce_rate_mb_s / slow, st.map_done - st.reduce_done);
        st.reduce_done += consumed;
        st.reduce_pending += consumed;
        if (consumed > 0) {
          const bool final_reduce_tick =
              st.reduce_done >= cfg.total_map_output_mb - 1e-9;
          while (st.reduce_pending >= kChunkMb ||
                 (final_reduce_tick && st.reduce_pending > 1e-9)) {
            const double chunk = std::min(kChunkMb, st.reduce_pending);
            st.reduce_pending -= chunk;
            const int node =
                static_cast<int>(job_rng.UniformInt(0, config_.num_nodes - 1));
            events.emplace_back(
                t_data_io, t,
                MakeValues("DataIO", next_event_id++, cfg.job_id,
                           static_cast<int64_t>(st.pulls_finished),
                           static_cast<int64_t>(1), static_cast<int64_t>(node),
                           -chunk));
          }
          if (st.pull_started_at < 0) {
            st.pull_started_at = t;
            task_event(t_pull_start, t, "PullStart", st.pulls_finished,
                       st.pulls_finished % config_.num_nodes);
          }
          while (st.reduce_done >
                 pull_quota * static_cast<double>(st.pulls_finished + 1) - 1e-9) {
            task_event(t_pull_finish, t, "PullFinish", st.pulls_finished,
                       st.pulls_finished % config_.num_nodes);
            ++st.pulls_finished;
            st.pull_started_at = -1;
          }
        }
      }

      // Completion: all data produced and consumed.
      if (st.map_done >= cfg.total_map_output_mb - 1e-9 &&
          st.reduce_done >= cfg.total_map_output_mb - 1e-9) {
        st.end_ts = t + 1;
        break;
      }
    }
    job_event(t_job_end, st.end_ts, "JobEnd", 0);
    st.ended = true;
    completions.emplace_back(cfg.job_id, st.end_ts);
    horizon = std::max(horizon, st.end_ts + 2 * config_.metric_period);
  }

  // ---- Node metrics --------------------------------------------------------
  struct NodeModels {
    MetricModel cpu_usage, cpu_idle, load;
    MetricModel mem_free, mem_cached, mem_buffers, swap_free, proc_total;
    MetricModel disk_io, disk_free, bytes_written;
    MetricModel bytes_in, bytes_out, pkts_in, pkts_out;
  };
  std::vector<Rng> node_rngs;
  std::vector<NodeModels> nodes;
  node_rngs.reserve(static_cast<size_t>(config_.num_nodes));
  for (int n = 0; n < config_.num_nodes; ++n) node_rngs.push_back(rng.Fork());
  for (int n = 0; n < config_.num_nodes; ++n) {
    Rng* r = &node_rngs[static_cast<size_t>(n)];
    auto m = [&](double base, double noise, double lo, double hi) {
      return MetricModel({base, noise, 0.3, lo, hi}, r);
    };
    nodes.push_back(NodeModels{
        m(25, 4, 0, 100), m(70, 4, 0, 100), m(2, 0.4, 0, 64),
        m(9000, 250, 0, 16000), m(3000, 120, 0, 16000), m(800, 40, 0, 16000),
        m(3800, 40, 0, 4000), m(180, 6, 0, 4000),
        m(12, 3, 0, 100), m(200000, 800, 0, 1e9), m(20, 4, 0, 1e6),
        m(30, 6, 0, 1e6), m(30, 6, 0, 1e6), m(2500, 300, 0, 1e8),
        m(2400, 300, 0, 1e8)});
  }

  const double kSwapTotal = 4000.0;
  const double kMemTotal = 16000.0;
  // Metrics are *reported* at one-decimal precision, like the Ganglia gmond
  // feed the paper consumed — a collector never ships full 52-bit mantissas.
  // The AR model state stays full-precision; only the emitted sample is
  // rounded, which also lets the spill codec store these columns as
  // scaled-integer deltas instead of raw XOR residue.
  const auto report = [](double v) { return std::round(v * 10.0) / 10.0; };
  for (Timestamp t = 0; t <= horizon; t += config_.metric_period) {
    for (int n = 0; n < config_.num_nodes; ++n) {
      NodeModels& nm = nodes[static_cast<size_t>(n)];
      const auto node64 = static_cast<int64_t>(n);
      const double mem_shift = AnomalyShift(AnomalyType::kHighMemory, n, t, 1.0);
      const double cpu_shift = AnomalyShift(AnomalyType::kHighCpu, n, t, 1.0);
      const double disk_shift = AnomalyShift(AnomalyType::kBusyDisk, n, t, 1.0);
      const double net_shift = AnomalyShift(AnomalyType::kBusyNetwork, n, t, 1.0);

      events.emplace_back(
          t_cpu, t,
          MakeValues(node64, report(nm.cpu_usage.Step(55 * cpu_shift)),
                     report(nm.cpu_idle.Step(-55 * cpu_shift)),
                     report(nm.load.Step(6 * cpu_shift)),
                     static_cast<double>(t)));
      events.emplace_back(
          t_mem, t,
          MakeValues(node64, report(nm.mem_free.Step(-7500 * mem_shift)),
                     report(nm.mem_cached.Step(-1500 * mem_shift)),
                     report(nm.mem_buffers.Step(-500 * mem_shift)),
                     report(nm.swap_free.Step(-3400 * mem_shift)), kSwapTotal,
                     kMemTotal, report(nm.proc_total.Step(60 * mem_shift))));
      events.emplace_back(
          t_disk, t,
          MakeValues(node64, report(nm.disk_io.Step(70 * disk_shift)),
                     report(nm.disk_free.Step(-5000 * disk_shift)),
                     report(nm.bytes_written.Step(120 * disk_shift))));
      events.emplace_back(
          t_net, t,
          MakeValues(node64, report(nm.bytes_in.Step(200 * net_shift)),
                     report(nm.bytes_out.Step(200 * net_shift)),
                     report(nm.pkts_in.Step(15000 * net_shift)),
                     report(nm.pkts_out.Step(15000 * net_shift))));
    }
  }

  VectorEventSource source(std::move(events));
  source.SortByTime();
  // Batched move replay: the source is discarded afterwards, so the events
  // transfer into the sink (and through it into the archive) without copies.
  source.ReplayMove(sink);
  return completions;
}

}  // namespace exstream
