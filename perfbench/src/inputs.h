// Seeded inputs of the benchmark: the Hadoop event stream with its injected
// anomaly schedule, the heterogeneous monitoring-query mix, and the
// annotations an analyst would draw for each injected incident.
//
// Everything is a pure function of the seed. The system under test only ever
// receives the generated events, queries and annotations.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "event/registry.h"
#include "explain/annotation.h"
#include "sim/hadoop_sim.h"

namespace perfbench {

/// Name and output column of the monitored query: the analyst annotates its
/// per-job series.
inline constexpr char kMonitorQuery[] = "Q1";
inline constexpr char kMonitorColumn[] = "sum_dataSize";
/// The query and column the streaming detector watches: free memory per node.
inline constexpr char kDetectQuery[] = "N1";
inline constexpr char kDetectColumn[] = "memFree";

/// One injected anomaly and the annotation drawn for it, the way
/// sim/workloads.cc annotates its anomalous jobs.
struct Incident {
  exstream::AnomalyType type = exstream::AnomalyType::kNone;
  std::string job;
  exstream::Timestamp job_start = 0;
  exstream::Timestamp job_end = 0;
  exstream::AnomalyAnnotation annotation;
};

struct QueryText {
  std::string name;
  std::string text;
};

struct Inputs {
  std::unique_ptr<exstream::EventTypeRegistry> registry;
  /// The full stream in timestamp order.
  std::vector<exstream::Event> events;
  /// Monitoring queries in AddQuery order: the monitored query, the detector's
  /// query, then the mix.
  std::vector<QueryText> queries;
  /// Injected incidents in stream order.
  std::vector<Incident> incidents;
  /// Job id -> job family ("program/dataset#episode", the dimension of the
  /// partition table); related partitions for validation share it.
  std::vector<std::pair<std::string, std::string>> job_family;
};

/// Builds the inputs for `seed`.
exstream::Result<Inputs> MakeInputs(uint64_t seed);

/// Distinct query texts in the mix (the 1000-identical-query case never
/// appears: the mix is drawn from parameterized templates).
size_t DistinctQueryTexts(const std::vector<QueryText>& queries);

}  // namespace perfbench
