// perfbench: the EXstream end-to-end benchmark.
//
//   perfbench --workload ingest|explain|serve --seed N --seconds S --trace 0|1
//             --work-dir DIR --state-dir DIR
//   perfbench --self-test
//
// Prints a table of every metric (value, unit, sample count), then one JSON
// line: {"correct", "attempted", "failed", "host", "metrics"}. With --trace 0
// the metrics are the end-to-end ones measured with tracing off; with
// --trace 1 they are the per-layer ledger of a traced run. Exits non-zero
// when an output check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "harness.h"

using namespace perfbench;

int RunSelfTest();

namespace {

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload ingest|explain|serve --seed N --seconds S "
          "--trace 0|1 --work-dir DIR --state-dir DIR\n"
          "       perfbench --self-test\n");
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return RunSelfTest();
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return Usage();
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(args.seconds > 0)) return Usage();
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else if (a == "--state-dir") {
      args.state_dir = v;
    } else {
      return Usage();
    }
  }
  if (args.work_dir.empty() || args.state_dir.empty()) return Usage();
  exstream::SetLogLevel(exstream::LogLevel::kWarn);

  Run run;
  run.args = args;
  exstream::Stopwatch gen;
  auto inputs = MakeInputs(args.seed);
  if (!inputs.ok()) {
    fprintf(stderr, "input generation failed: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  fprintf(stderr, "[perfbench] seed %llu: %zu events, %zu queries (%zu distinct), "
          "%zu incidents, generated in %.2fs\n",
          static_cast<unsigned long long>(args.seed), inputs->events.size(),
          inputs->queries.size(), DistinctQueryTexts(inputs->queries),
          inputs->incidents.size(), gen.ElapsedSeconds());
  if (args.workload == "ingest") {
    RunIngest(&run, *inputs);
  } else if (args.workload == "explain") {
    RunExplain(&run, *inputs);
  } else if (args.workload == "serve") {
    RunServe(&run, *inputs);
  } else {
    return Usage();
  }
  std::filesystem::remove_all(args.work_dir);

  const double ratio =
      static_cast<double>(run.failed) / static_cast<double>(std::max<uint64_t>(1, run.attempted));
  run.Add("ops_failed_ratio", ratio, "ratio", run.attempted);
  printf("%-34s %16s %-9s %8s  %s\n", "metric", "value", "unit", "samples", "note");
  for (const Metric& m : run.metrics) {
    printf("%-34s %16s %-9s %8zu  %s\n", m.name.c_str(),
           std::isfinite(m.value) ? JsonNumber(m.value).c_str() : "n/a", m.unit.c_str(),
           m.samples, m.note.c_str());
  }
  for (const std::string& f : run.failures) printf("FAILED CHECK: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += run.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  char host[256];
  snprintf(host, sizeof(host),
           "{\"compiler\": \"%s\", \"build_type\": \"%s\", \"hardware_concurrency\": %u}",
           PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  json += ", \"host\": ";
  json += host;
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : run.metrics) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
            m.unit + "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
  return run.correct ? 0 : 1;
}
