// exstream_cli: a command-line driver for the full system over user data.
//
//   exstream_cli --demo
//       writes a demo schema + CSV event log (from the Hadoop simulator) to
//       /tmp and runs the complete monitor -> annotate -> explain flow on it.
//
//   exstream_cli --schema schema.txt --events events.csv --query query.sase
//                [--column NAME] [--list-partitions]
//                [--chart PARTITION] [--threads N] [--deadline-ms MS]
//                [--explain PARTITION:LO:HI --reference PARTITION:LO:HI]
//
// A flag the CLI does not know prints the usage and exits with status 2.
//
// --threads N runs the explanation analysis on N worker threads (default 1;
// 0 = one per hardware thread). The explanation itself is identical for any
// thread count.
//
// --batch-size B sets the replay batch size (default 512); match tables and
// notifications are bit-identical for any value.
//
// --deadline-ms MS bounds one Explain call to MS milliseconds of wall clock;
// on expiry the CLI reports how far the pipeline got and exits with status 3.
// If the archive had to skip unreadable (quarantined) spill chunks, the
// explanation is still produced and a DEGRADED warning describes the gap.
//
// Durability & overload flags:
//   --wal-dir DIR          write-ahead-log every ingested batch into DIR
//   --fsync POLICY         none | interval | every_batch  (default interval)
//   --checkpoint DIR       snapshot the system state into DIR after ingest
//   --recover DIR          restore a checkpoint (and replay the WAL tail)
//                          before ingesting; with --recover, --events is
//                          optional
//   --queue-capacity N     bounded ingest queue of N batches (0 = synchronous)
//   --backpressure POLICY  block | shed-oldest | shed-newest  (full-queue
//                          behavior; implies --queue-capacity 64 if unset)
//
// Continuous serving (see DESIGN.md §10):
//   --detect [--detect-threshold X]  after ingest, run the batch anomaly
//                          detector over the monitor query's partition family
//                          and Explain every detected anomaly automatically
//   --auto-explain [--z-threshold Z] stream-detect anomalies online (z-score
//                          over the monitored series) and auto-run Explain on
//                          each as it finalizes; results print after ingest
//   --explain-cache N      keep up to N completed Explain reports in a keyed
//                          LRU cache (repeat annotations are served instantly;
//                          ingest invalidates by advancing the data watermark)
//   --incremental-retention S  maintain in-memory per-type tails of the last
//                          S seconds (0 = unbounded) so recent-interval
//                          feature scans skip the archive
//
// Replication (multi-process parent/children, see DESIGN.md §8):
//   --replicate-to HOST:PORT  child mode: stream every ingested batch to the
//                             parent node at HOST:PORT; after ingest, wait
//                             (up to --drain-ms, default 15000) for the
//                             parent to ack everything
//   --tenant NAME             child mode: the tenant this child's stream
//                             belongs to (default "default")
//   --node-id NAME            child mode: this child's stable identity; each
//                             (tenant, node-id) owns its own seq space and
//                             resume watermark at the parent (default "child")
//   --listen PORT             parent mode: accept child replication streams
//                             on 127.0.0.1:PORT (0 = ephemeral; the chosen
//                             port prints to stderr). Runs until
//                             --expect-events events have arrived or
//                             --listen-for-ms (default 30000) passes, then
//                             continues to --chart/--explain over the
//                             replicated data. --events is optional.
//   --tenants A,B,...         parent mode: serve several tenants at once —
//                             one isolated XStreamSystem per tenant (own
//                             match tables, archive, WAL subdir, Explain),
//                             any number of children per tenant. Prints a
//                             per-tenant summary (and per-tenant explanation
//                             with --explain) instead of the single-tenant
//                             flow.
//   --quota-bytes-per-sec N   parent mode: per-tenant ingest quota (token
//                             bucket; 0 = unlimited). Over-quota frames are
//                             shed at the parent and disclosed only in the
//                             owning tenant's summary/DegradationReport.
//   --quota-burst-bytes N     parent mode: token-bucket burst (default 4x
//                             the per-second rate)
//   --expect-events N         parent mode: stop listening once the resume
//                             watermark (summed across tenants and children)
//                             reaches N events
//   --repl-state PATH         parent mode: persist the per-(tenant, child)
//                             replication gap state here so resume watermarks
//                             survive restarts
//
// Schema file: one event type per line, `TypeName attr:type attr:type ...`
// where type is int64|double|string. Event CSV: see src/io/csv.h.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "detect/detector.h"
#include "explain/engine.h"
#include "explain/explanation_io.h"
#include "io/csv.h"
#include "net/replication_receiver.h"
#include "sim/workloads.h"
#include "viz/ascii_chart.h"
#include "xstream/system.h"
#include "xstream/tenant_hub.h"

using namespace exstream;

namespace {

Result<EventTypeRegistry> LoadSchemaFile(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open schema file " + path);
  std::string text;
  char buf[1 << 14];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  fclose(f);

  EventTypeRegistry registry;
  for (const std::string& raw_line : SplitAndTrim(text, '\n')) {
    const std::string line(TrimWhitespace(raw_line));
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> parts = SplitAndTrim(line, ' ');
    std::vector<AttributeDef> attrs;
    for (size_t i = 1; i < parts.size(); ++i) {
      if (parts[i].empty()) continue;
      const auto kv = SplitAndTrim(parts[i], ':');
      if (kv.size() != 2) {
        return Status::ParseError("bad attribute spec '" + parts[i] + "'");
      }
      AttributeDef attr;
      attr.name = kv[0];
      if (kv[1] == "int64") {
        attr.type = ValueType::kInt64;
      } else if (kv[1] == "double") {
        attr.type = ValueType::kDouble;
      } else if (kv[1] == "string") {
        attr.type = ValueType::kString;
      } else {
        return Status::ParseError("unknown type '" + kv[1] + "'");
      }
      attrs.push_back(std::move(attr));
    }
    EXSTREAM_RETURN_NOT_OK(registry.Register(EventSchema(parts[0], attrs)).status());
  }
  return registry;
}

Result<std::string> ReadTextFile(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string text;
  char buf[1 << 14];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  fclose(f);
  return text;
}

// "partition:lo:hi" -> IntervalRef.
Result<IntervalRef> ParseIntervalArg(const std::string& arg,
                                     const std::string& query_name) {
  const auto parts = SplitAndTrim(arg, ':');
  if (parts.size() != 3) {
    return Status::InvalidArgument("expected PARTITION:LO:HI, got '" + arg + "'");
  }
  IntervalRef ref;
  ref.query = query_name;
  ref.partition = parts[0];
  ref.range.lower = static_cast<Timestamp>(strtoll(parts[1].c_str(), nullptr, 10));
  ref.range.upper = static_cast<Timestamp>(strtoll(parts[2].c_str(), nullptr, 10));
  if (ref.range.upper <= ref.range.lower) {
    return Status::InvalidArgument("empty interval in '" + arg + "'");
  }
  return ref;
}

// Writes the demo schema/events/query trio and returns their paths.
Result<std::array<std::string, 3>> WriteDemoFiles() {
  auto run_result = BuildWorkloadRun(HadoopWorkloads()[0]);
  EXSTREAM_RETURN_NOT_OK(run_result.status());
  const WorkloadRun& run = **run_result;

  // Schema file.
  std::string schema_text;
  for (const EventSchema& schema : run.registry->schemas()) {
    schema_text += schema.name();
    for (const AttributeDef& attr : schema.attributes()) {
      schema_text += " " + attr.name + ":" +
                     std::string(ValueTypeToString(attr.type));
    }
    schema_text += "\n";
  }
  const std::string schema_path = "/tmp/exstream_demo_schema.txt";
  FILE* sf = fopen(schema_path.c_str(), "wb");
  if (sf == nullptr) return Status::IOError("cannot write " + schema_path);
  fwrite(schema_text.data(), 1, schema_text.size(), sf);
  fclose(sf);

  // Event CSV from the archive.
  EXSTREAM_ASSIGN_OR_RETURN(
      auto grouped, run.archive->ScanAll(TimeInterval{0, Timestamp{1} << 62}));
  std::vector<Event> events;
  for (auto& per_type : grouped) {
    events.insert(events.end(), per_type.events.begin(), per_type.events.end());
  }
  VectorEventSource source(std::move(events));
  source.SortByTime();
  const std::string events_path = "/tmp/exstream_demo_events.csv";
  EXSTREAM_RETURN_NOT_OK(
      WriteCsvEventsFile(events_path, source.events(), *run.registry));

  // Query file.
  const std::string query_path = "/tmp/exstream_demo_query.sase";
  const std::string query_text =
      run.engine->compiled(run.monitor_query).query().ToString() + "\n";
  FILE* qf = fopen(query_path.c_str(), "wb");
  if (qf == nullptr) return Status::IOError("cannot write " + query_path);
  fwrite(query_text.data(), 1, query_text.size(), qf);
  fclose(qf);

  fprintf(stderr, "demo files written:\n  %s\n  %s\n  %s\n", schema_path.c_str(),
          events_path.c_str(), query_path.c_str());
  return std::array<std::string, 3>{schema_path, events_path, query_path};
}

// Parent mode with --tenants: one isolated XStreamSystem per tenant behind a
// single fan-in receiver. Every tenant gets the same query; its children
// address it by tenant name in their HELLO. Summaries, shed disclosure, and
// --explain all run per tenant — one tenant's degradation never shows up in
// another's output.
int RunMultiTenantParent(std::map<std::string, std::string>& args,
                         const XStreamConfig& base_config,
                         const EventTypeRegistry& registry,
                         const std::string& query_text) {
  const std::vector<std::string> tenant_names =
      SplitAndTrim(args["tenants"], ',');
  if (tenant_names.empty()) {
    fprintf(stderr, "--tenants expects a non-empty list\n");
    return 2;
  }

  TenantQuota quota;
  if (args.count("quota-bytes-per-sec")) {
    quota.bytes_per_sec =
        strtoull(args["quota-bytes-per-sec"].c_str(), nullptr, 10);
    quota.burst_bytes = args.count("quota-burst-bytes")
                            ? strtoull(args["quota-burst-bytes"].c_str(),
                                       nullptr, 10)
                            : quota.bytes_per_sec * 4;
  }

  TenantHub hub;
  std::vector<std::unique_ptr<XStreamSystem>> systems;
  std::vector<QueryId> qids;
  for (const std::string& tenant : tenant_names) {
    XStreamConfig config = base_config;
    if (config.durability.wal_dir.has_value()) {
      // Each tenant journals into its own subdirectory; a hostile tenant
      // name must not escape it.
      config.durability.wal_dir = *config.durability.wal_dir + "/" +
                                  TenantHub::SanitizeTenantForPath(tenant);
    }
    systems.push_back(std::make_unique<XStreamSystem>(&registry, config));
    auto qid = systems.back()->AddQuery(query_text, "Q");
    if (!qid.ok()) {
      fprintf(stderr, "query error: %s\n", qid.status().ToString().c_str());
      return 1;
    }
    qids.push_back(*qid);
    if (args.count("recover")) {
      auto recovered = systems.back()->Recover(
          args["recover"] + "/" + TenantHub::SanitizeTenantForPath(tenant));
      if (!recovered.ok()) {
        fprintf(stderr, "recover error (tenant %s): %s\n", tenant.c_str(),
                recovered.status().ToString().c_str());
        return 1;
      }
    }
    const Status added = hub.AddTenant(tenant, systems.back().get(), quota);
    if (!added.ok()) {
      fprintf(stderr, "%s\n", added.ToString().c_str());
      return 2;
    }
  }

  ReplicationReceiverOptions ropts;
  ropts.port =
      static_cast<uint16_t>(strtoul(args["listen"].c_str(), nullptr, 10));
  if (args.count("repl-state")) ropts.state_path = args["repl-state"];
  ReplicationReceiver receiver(&hub, ropts);
  const Status st = receiver.Start();
  if (!st.ok()) {
    fprintf(stderr, "listen error: %s\n", st.ToString().c_str());
    return 1;
  }
  fprintf(stderr, "listening for replication on 127.0.0.1:%u (%zu tenants)\n",
          unsigned{receiver.port()}, tenant_names.size());

  const int64_t listen_for_ms = args.count("listen-for-ms")
                                    ? atoll(args["listen-for-ms"].c_str())
                                    : 30000;
  const uint64_t expect =
      args.count("expect-events")
          ? strtoull(args["expect-events"].c_str(), nullptr, 10)
          : 0;
  Stopwatch wait_timer;
  while (wait_timer.ElapsedSeconds() * 1000.0 <
         static_cast<double>(listen_for_ms)) {
    if (expect > 0 && receiver.watermark() >= expect) break;
    usleep(50 * 1000);
  }
  receiver.Stop();

  const ReplicationReceiver::Stats rs = receiver.stats();
  printf("replicated: %llu events applied (%llu deduped, %llu lost to "
         "child-side shedding, %llu over quota) over %llu sessions\n",
         static_cast<unsigned long long>(rs.events_applied),
         static_cast<unsigned long long>(rs.events_deduped),
         static_cast<unsigned long long>(rs.gap_events),
         static_cast<unsigned long long>(rs.quota_shed_events),
         static_cast<unsigned long long>(rs.sessions));
  for (const ReplicationReceiver::SessionInfo& info : receiver.sessions()) {
    printf("  child (%s, %s): watermark %llu%s\n", info.tenant.c_str(),
           info.child.c_str(), static_cast<unsigned long long>(info.watermark),
           info.live ? " (live)" : "");
  }

  for (size_t t = 0; t < tenant_names.size(); ++t) {
    const std::string& tenant = tenant_names[t];
    XStreamSystem& system = *systems[t];
    system.Flush();
    const MatchTable& matches = system.engine().match_table(qids[t]);
    const auto tstats = hub.tenant_stats(tenant);
    printf("\ntenant %s: %zu events, %zu match rows, %zu events shed "
           "(%llu over quota, %llu over queue share)\n",
           tenant.c_str(), system.engine().events_processed(),
           matches.TotalRows(), system.shed_events(),
           static_cast<unsigned long long>(tstats.quota_shed_events),
           static_cast<unsigned long long>(tstats.queue_shed_events));
    auto partitions = hub.QualifiedPartitions(tenant, qids[t]);
    if (partitions.ok()) {
      for (const std::string& p : *partitions) {
        printf("  %s\n", p.c_str());
      }
    }

    if (args.count("explain")) {
      if (args.count("reference") == 0) {
        fprintf(stderr, "--explain needs --reference\n");
        return 2;
      }
      AnomalyAnnotation annotation;
      auto abnormal = ParseIntervalArg(args["explain"], "Q");
      auto reference = ParseIntervalArg(args["reference"], "Q");
      if (!abnormal.ok() || !reference.ok()) {
        fprintf(stderr, "bad interval argument\n");
        return 2;
      }
      annotation.abnormal = *abnormal;
      annotation.reference = *reference;
      const std::string column = args.count("column")
                                     ? args["column"]
                                     : matches.column_names().back();
      auto report = hub.Explain(tenant, annotation, qids[t], column);
      if (!report.ok()) {
        fprintf(stderr, "  explain error (tenant %s): %s\n", tenant.c_str(),
                report.status().ToString().c_str());
        continue;
      }
      printf("  EXPLANATION (%zu of %zu features, %.2f s):\n    %s\n",
             report->final_features.size(), report->ranked.size(),
             report->duration_seconds, report->explanation.ToString().c_str());
      if (report->degradation.degraded()) {
        fprintf(stderr, "  WARNING: DEGRADED explanation (tenant %s) — %s\n",
                tenant.c_str(), report->degradation.ToString().c_str());
      }
    }
  }
  return 0;
}

// Every `--name value` flag Run reads; any other name is a usage error.
const std::set<std::string> kValueFlags = {
    "backpressure", "batch-size", "chart", "checkpoint", "column",
    "deadline-ms", "detect-threshold", "drain-ms", "events", "expect-events",
    "explain", "explain-cache", "fsync", "incremental-retention", "listen",
    "listen-for-ms", "node-id", "query", "queue-capacity", "quota-burst-bytes",
    "quota-bytes-per-sec", "recover", "reference", "repl-state", "replicate-to",
    "save-rule", "schema", "tenant", "tenants", "threads", "wal-dir",
    "z-threshold"};

int Usage() {
  fprintf(stderr,
          "usage: exstream_cli --demo | --schema F --events F --query F\n"
          "       [--column NAME] [--list-partitions] [--chart PARTITION]\n"
          "       [--threads N] [--batch-size B]\n"
          "       [--deadline-ms MS]\n"
          "       [--wal-dir DIR] [--fsync none|interval|every_batch]\n"
          "       [--checkpoint DIR] [--recover DIR]\n"
          "       [--queue-capacity N]\n"
          "       [--backpressure block|shed-oldest|shed-newest]\n"
          "       [--detect [--detect-threshold X]]\n"
          "       [--auto-explain [--z-threshold Z]]\n"
          "       [--explain-cache N] [--incremental-retention S]\n"
          "       [--replicate-to HOST:PORT [--drain-ms MS]\n"
          "        [--tenant NAME] [--node-id NAME]]\n"
          "       [--listen PORT [--expect-events N] [--listen-for-ms MS]\n"
          "        [--repl-state PATH] [--tenants A,B,...]\n"
          "        [--quota-bytes-per-sec N] [--quota-burst-bytes N]]\n"
          "       [--explain P:LO:HI --reference P:LO:HI [--save-rule F]]\n");
  return 2;
}

int Run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool demo = argc <= 1;  // bare invocation runs the self-contained demo
  bool list_partitions = false;
  bool detect = false;
  bool auto_explain = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--list-partitions") {
      list_partitions = true;
    } else if (arg == "--detect") {
      detect = true;
    } else if (arg == "--auto-explain") {
      auto_explain = true;
    } else if (StartsWith(arg, "--") && i + 1 < argc) {
      args[arg.substr(2)] = argv[++i];
    } else {
      fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  for (const auto& [name, value] : args) {
    if (kValueFlags.count(name) == 0) {
      fprintf(stderr, "unknown flag '--%s'\n", name.c_str());
      return Usage();
    }
  }

  if (demo) {
    auto paths = WriteDemoFiles();
    if (!paths.ok()) {
      fprintf(stderr, "%s\n", paths.status().ToString().c_str());
      return 1;
    }
    args["schema"] = (*paths)[0];
    // With --recover the checkpoint/WAL already hold the demo stream;
    // re-ingesting it would append the same events on top of recovered state.
    if (args.count("recover") == 0) args["events"] = (*paths)[1];
    args["query"] = (*paths)[2];
    if (args.count("explain") == 0) {
      args["explain"] = "job-anomaly:3060:3360";
      args["reference"] = "job-anomaly:3420:3641";
      args["chart"] = "job-anomaly";
    }
  }
  const bool have_inputs = args.count("schema") && args.count("query") &&
                           (args.count("events") || args.count("recover") ||
                            args.count("listen"));
  if (!have_inputs) return Usage();

  auto registry = LoadSchemaFile(args["schema"]);
  if (!registry.ok()) {
    fprintf(stderr, "%s\n", registry.status().ToString().c_str());
    return 1;
  }
  auto query_text = ReadTextFile(args["query"]);
  if (!query_text.ok()) {
    fprintf(stderr, "%s\n", query_text.status().ToString().c_str());
    return 1;
  }

  XStreamConfig config;
  if (args.count("threads")) {
    config.explain.num_threads =
        static_cast<size_t>(strtoull(args["threads"].c_str(), nullptr, 10));
  }
  if (args.count("deadline-ms")) {
    config.explain.deadline_ms = strtod(args["deadline-ms"].c_str(), nullptr);
  }
  size_t batch_size = kDefaultIngestBatchSize;
  if (args.count("batch-size")) {
    batch_size = static_cast<size_t>(strtoull(args["batch-size"].c_str(), nullptr, 10));
    if (batch_size == 0) batch_size = 1;
  }
  if (args.count("wal-dir")) config.durability.wal_dir = args["wal-dir"];
  if (args.count("fsync")) {
    const std::string& policy = args["fsync"];
    if (policy == "none") {
      config.durability.fsync = WalFsyncPolicy::kNone;
    } else if (policy == "interval") {
      config.durability.fsync = WalFsyncPolicy::kInterval;
    } else if (policy == "every_batch") {
      config.durability.fsync = WalFsyncPolicy::kEveryBatch;
    } else {
      fprintf(stderr, "unknown --fsync policy '%s'\n", policy.c_str());
      return 2;
    }
  }
  if (args.count("queue-capacity")) {
    config.overload.queue_capacity =
        static_cast<size_t>(strtoull(args["queue-capacity"].c_str(), nullptr, 10));
  }
  if (args.count("backpressure")) {
    const std::string& policy = args["backpressure"];
    if (policy == "block") {
      config.overload.policy = BackpressurePolicy::kBlock;
    } else if (policy == "shed-oldest") {
      config.overload.policy = BackpressurePolicy::kShedOldest;
    } else if (policy == "shed-newest") {
      config.overload.policy = BackpressurePolicy::kShedNewest;
    } else {
      fprintf(stderr, "unknown --backpressure policy '%s'\n", policy.c_str());
      return 2;
    }
    if (config.overload.queue_capacity == 0) config.overload.queue_capacity = 64;
  }
  if (args.count("explain-cache")) {
    config.serving.explain_cache_capacity =
        static_cast<size_t>(strtoull(args["explain-cache"].c_str(), nullptr, 10));
  }
  if (args.count("incremental-retention")) {
    config.serving.incremental_features = true;
    config.serving.incremental_retention = static_cast<Timestamp>(
        strtoll(args["incremental-retention"].c_str(), nullptr, 10));
  }
  if (auto_explain) {
    StreamingDetectorOptions sdopts;
    if (args.count("z-threshold")) {
      sdopts.z_threshold = strtod(args["z-threshold"].c_str(), nullptr);
    }
    config.serving.detector = sdopts;
    config.serving.auto_explain = true;
    if (args.count("column")) config.serving.detect_column = args["column"];
  }
  if (args.count("replicate-to")) {
    const auto parts = SplitAndTrim(args["replicate-to"], ':');
    if (parts.size() != 2) {
      fprintf(stderr, "--replicate-to expects HOST:PORT, got '%s'\n",
              args["replicate-to"].c_str());
      return 2;
    }
    ReplicationSenderOptions repl;
    repl.host = parts[0];
    repl.port = static_cast<uint16_t>(strtoul(parts[1].c_str(), nullptr, 10));
    if (args.count("tenant")) repl.tenant = args["tenant"];
    if (args.count("node-id")) repl.node_id = args["node-id"];
    config.replication = std::move(repl);
  }

  if (args.count("tenants")) {
    if (args.count("listen") == 0) {
      fprintf(stderr, "--tenants requires --listen (parent mode)\n");
      return 2;
    }
    return RunMultiTenantParent(args, config, *registry, *query_text);
  }

  XStreamSystem system(&*registry, config);
  auto qid = system.AddQuery(*query_text, "Q");
  if (!qid.ok()) {
    fprintf(stderr, "query error: %s\n", qid.status().ToString().c_str());
    return 1;
  }

  if (args.count("recover")) {
    auto recovered = system.Recover(args["recover"]);
    if (!recovered.ok()) {
      fprintf(stderr, "recover error: %s\n",
              recovered.status().ToString().c_str());
      return 1;
    }
    printf("recovered: checkpoint %s (seq %llu), WAL replayed %zu events in "
           "%zu records%s\n",
           recovered->manifest_loaded ? "loaded" : "absent",
           static_cast<unsigned long long>(recovered->checkpoint_seq),
           recovered->wal.events_applied, recovered->wal.records,
           recovered->wal.torn_tail ? " (torn tail discarded)" : "");
  }

  std::unique_ptr<ReplicationReceiver> receiver;
  if (args.count("listen")) {
    ReplicationReceiverOptions ropts;
    ropts.port = static_cast<uint16_t>(strtoul(args["listen"].c_str(), nullptr, 10));
    if (args.count("repl-state")) ropts.state_path = args["repl-state"];
    receiver = std::make_unique<ReplicationReceiver>(&system, ropts);
    const Status st = receiver->Start();
    if (!st.ok()) {
      fprintf(stderr, "listen error: %s\n", st.ToString().c_str());
      return 1;
    }
    fprintf(stderr, "listening for replication on 127.0.0.1:%u\n",
            unsigned{receiver->port()});
  }

  if (args.count("events")) {
    auto parsed = ReadCsvEventsFile(args["events"], *registry);
    if (!parsed.ok()) {
      fprintf(stderr, "event load error: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    VectorEventSource source(std::move(parsed->events));
    source.SortByTime();
    const size_t num_events = source.size();  // ReplayMove drains the source
    Stopwatch ingest_timer;
    source.ReplayMove(&system, batch_size);
    const double ingest_secs = ingest_timer.ElapsedSeconds();
    printf("ingested %zu events; %zu match rows\n", num_events,
           system.engine().match_table(*qid).TotalRows());
    if (ingest_secs > 0.0) {
      // stderr: a measured rate varies run to run, and stdout is expected to be
      // byte-identical across thread counts (the determinism contract).
      fprintf(stderr,
              "ingest throughput: %.0f events/sec (batch %zu)\n",
              static_cast<double>(num_events) / ingest_secs, batch_size);
    }
  } else if (args.count("listen") == 0) {
    printf("recovered state: %zu match rows\n",
           system.engine().match_table(*qid).TotalRows());
  }

  if (system.replication() != nullptr) {
    // Child mode: give the parent a chance to ack everything before the
    // process (and its spool) goes away. Unacked data still survives in the
    // WAL via the truncate pin.
    const int drain_ms = args.count("drain-ms")
                             ? atoi(args["drain-ms"].c_str())
                             : 15000;
    const bool drained = system.replication()->WaitForDrain(drain_ms);
    const ReplicationSender::Stats rs = system.replication()->stats();
    fprintf(stderr,
            "replication: %s (acked seq %llu, %llu chunks sealed, "
            "%llu shed, %llu reconnects)\n",
            drained ? "drained" : "NOT drained",
            static_cast<unsigned long long>(rs.acked_seq),
            static_cast<unsigned long long>(rs.chunks_sealed),
            static_cast<unsigned long long>(rs.shed_chunks),
            static_cast<unsigned long long>(rs.reconnects));
  }

  if (receiver != nullptr) {
    // Parent mode: wait for the child's stream, then continue to the normal
    // chart/explain flow over the replicated data.
    const int64_t listen_for_ms = args.count("listen-for-ms")
                                      ? atoll(args["listen-for-ms"].c_str())
                                      : 30000;
    const uint64_t expect = args.count("expect-events")
                                ? strtoull(args["expect-events"].c_str(), nullptr, 10)
                                : 0;
    Stopwatch wait_timer;
    while (wait_timer.ElapsedSeconds() * 1000.0 < static_cast<double>(listen_for_ms)) {
      if (expect > 0 && receiver->watermark() >= expect) break;
      usleep(50 * 1000);
    }
    receiver->Stop();
    const ReplicationReceiver::Stats rs = receiver->stats();
    printf("replicated: %llu events applied (%llu deduped, %llu lost to "
           "child-side shedding) over %llu sessions; %zu match rows\n",
           static_cast<unsigned long long>(rs.events_applied),
           static_cast<unsigned long long>(rs.events_deduped),
           static_cast<unsigned long long>(rs.gap_events),
           static_cast<unsigned long long>(rs.sessions),
           system.engine().match_table(*qid).TotalRows());
    system.Flush();
  }

  const RejectReport rejects = system.reject_report();
  if (rejects.total() > 0 || system.shed_events() > 0) {
    fprintf(stderr, "ingest health: %s; %zu events shed by backpressure\n",
            rejects.ToString().c_str(), system.shed_events());
  }

  if (args.count("checkpoint")) {
    const Status st = system.Checkpoint(args["checkpoint"]);
    if (!st.ok()) {
      fprintf(stderr, "checkpoint error: %s\n", st.ToString().c_str());
      return 1;
    }
    printf("checkpoint written to %s\n", args["checkpoint"].c_str());
  }

  const MatchTable& matches = system.engine().match_table(*qid);
  const std::string column =
      args.count("column") ? args["column"] : matches.column_names().back();

  if (auto_explain) {
    // Let the streaming detector see the full stream, force-close any
    // excursion still elevated at end-of-input, then wait for the background
    // worker to finish explaining every finalized anomaly.
    system.Flush();
    const size_t finalized = system.FinalizeDetector();
    system.DrainAutoExplains();
    const auto autos = system.TakeAutoExplanations();
    const auto dstats = system.detector()->stats();
    printf("\ndetector: %llu samples over %llu partitions, %llu excursions "
           "(%llu discarded, %zu open at end-of-stream)\n",
           static_cast<unsigned long long>(dstats.samples),
           static_cast<unsigned long long>(dstats.partitions_tracked),
           static_cast<unsigned long long>(dstats.excursions_opened),
           static_cast<unsigned long long>(dstats.anomalies_dropped),
           finalized);
    printf("auto-explained %zu streaming anomalies (%zu dropped):\n",
           autos.size(), system.auto_anomalies_dropped());
    for (const auto& ae : autos) {
      const TimeInterval& abn = ae.anomaly.annotation.abnormal.range;
      printf("  %s peak-z %.1f abnormal [%lld, %lld]\n",
             ae.anomaly.partition.c_str(), ae.anomaly.peak_z,
             static_cast<long long>(abn.lower), static_cast<long long>(abn.upper));
      if (ae.report->ok()) {
        printf("    -> %s\n", (**ae.report).explanation.ToString().c_str());
      } else {
        printf("    -> explain error: %s\n",
               ae.report->status().ToString().c_str());
      }
    }
  }

  if (list_partitions || args.count("chart") || args.count("explain") || detect) {
    if (system.IndexPartitions(*qid, {{"source", args["events"]}}).ok() &&
        list_partitions) {
      printf("\npartitions:\n");
      for (const std::string& p : matches.Partitions()) {
        printf("  %-24s %6zu rows%s\n", p.c_str(), matches.NumRows(p),
               matches.IsComplete(p) ? "  (complete)" : "");
      }
    }
  }

  if (detect) {
    DetectorOptions dopts;
    if (args.count("detect-threshold")) {
      dopts.outlier_threshold = strtod(args["detect-threshold"].c_str(), nullptr);
    }
    AnomalyDetector detector(&system.partitions(),
                             system.MakeSeriesProvider(*qid, column), dopts);
    const std::vector<std::string> parts = matches.Partitions();
    if (parts.empty()) {
      fprintf(stderr, "--detect: no partitions to score\n");
      return 1;
    }
    auto seed = system.partitions().Get("Q", parts.front());
    if (!seed.ok()) {
      fprintf(stderr, "--detect: %s\n", seed.status().ToString().c_str());
      return 1;
    }
    auto found = detector.Detect(*seed);
    if (!found.ok()) {
      fprintf(stderr, "detect error: %s\n", found.status().ToString().c_str());
      return 1;
    }
    printf("\ndetected %zu anomalous partition(s):\n", found->size());
    for (const DetectedAnomaly& a : *found) {
      printf("  %s score %.3f abnormal [%lld, %lld] vs %s [%lld, %lld]\n",
             a.partition.c_str(), a.score,
             static_cast<long long>(a.abnormal_region.lower),
             static_cast<long long>(a.abnormal_region.upper),
             a.reference_partition.c_str(),
             static_cast<long long>(a.reference_region.lower),
             static_cast<long long>(a.reference_region.upper));
      auto report = system.Explain(a.ToAnnotation("Q"), *qid, column);
      if (report.ok()) {
        printf("    -> %s\n", report->explanation.ToString().c_str());
      } else {
        fprintf(stderr, "    -> explain error: %s\n",
                report.status().ToString().c_str());
      }
    }
  }

  if (args.count("chart")) {
    auto series = matches.ExtractSeries(args["chart"], column);
    if (!series.ok()) {
      fprintf(stderr, "%s\n", series.status().ToString().c_str());
      return 1;
    }
    printf("\n%s / %s:\n%s", args["chart"].c_str(), column.c_str(),
           RenderSeries(*series).c_str());
  }

  if (args.count("explain")) {
    if (args.count("reference") == 0) {
      fprintf(stderr, "--explain needs --reference\n");
      return 2;
    }
    AnomalyAnnotation annotation;
    auto abnormal = ParseIntervalArg(args["explain"], "Q");
    auto reference = ParseIntervalArg(args["reference"], "Q");
    if (!abnormal.ok() || !reference.ok()) {
      fprintf(stderr, "bad interval argument\n");
      return 2;
    }
    annotation.abnormal = *abnormal;
    annotation.reference = *reference;
    auto report = system.Explain(annotation, *qid, column);
    if (!report.ok()) {
      if (report.status().IsDeadlineExceeded()) {
        fprintf(stderr, "explain deadline exceeded (--deadline-ms %s): %s\n",
                args["deadline-ms"].c_str(),
                report.status().ToString().c_str());
        return 3;
      }
      fprintf(stderr, "explain error: %s\n", report.status().ToString().c_str());
      return 1;
    }
    printf("\nEXPLANATION (%zu of %zu features, %.2f s):\n  %s\n",
           report->final_features.size(), report->ranked.size(),
           report->duration_seconds, report->explanation.ToString().c_str());
    if (report->degradation.degraded()) {
      fprintf(stderr, "WARNING: DEGRADED explanation — %s\n",
              report->degradation.ToString().c_str());
    }
    if (args.count("save-rule")) {
      const Status saved =
          SaveExplanationFile(args["save-rule"], report->explanation);
      if (!saved.ok()) {
        fprintf(stderr, "%s\n", saved.ToString().c_str());
        return 1;
      }
      printf("rule saved to %s (reload with LoadExplanationFile)\n",
             args["save-rule"].c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
