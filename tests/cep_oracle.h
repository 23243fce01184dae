// CepOracle: the per-query reference semantics of CepEngine.
//
// Every query is evaluated on its own: one QueryRun per (query, partition),
// fed one event at a time, rows appended to the query's own MatchTable and
// callbacks fired in (event, query) order. There is no merging, no batching
// and no key sharing — this is what CepEngine's merge groups, residue and
// table classes, and batched routing must reproduce bit for bit. The
// differential and property tests compare the engine's MatchTables, callback
// sequence and SaveState bytes against this oracle, and
// bench_ingest_throughput runs it as the no-merge baseline.
//
// SaveState writes the engine's checkpoint format (each query's record is
// its QueryRun-per-partition state), so snapshots move between the oracle
// and the engine in both directions.

#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cep/engine.h"
#include "cep/match_table.h"
#include "cep/nfa.h"
#include "common/bytes.h"
#include "common/result.h"
#include "event/registry.h"

namespace exstream {

class CepOracle {
 public:
  explicit CepOracle(const EventTypeRegistry* registry) : registry_(registry) {}

  Result<QueryId> AddQueryText(std::string_view text, std::string name);

  void OnEvent(const Event& event);

  void SetMatchCallback(std::function<void(const MatchNotification&)> cb) {
    callback_ = std::move(cb);
  }

  size_t num_queries() const { return queries_.size(); }
  uint64_t events_processed() const { return events_processed_; }
  const MatchTable& match_table(QueryId id) const { return queries_[id]->matches; }

  /// CepEngine::SaveState's format.
  void SaveState(BytesWriter* out) const;
  /// Restores a CepEngine or CepOracle snapshot into fresh queries.
  Status RestoreState(BytesReader* in);

 private:
  struct QueryState {
    CompiledQuery compiled;
    MatchTable matches;
    std::deque<std::string> keys;  ///< partition id -> key (stable views)
    std::unordered_map<std::string, uint32_t> ids;
    std::vector<QueryRun> runs;      ///< indexed by partition id
    std::vector<uint32_t> buckets;   ///< partition id -> match-table bucket
    bool added_mid_stream = false;

    explicit QueryState(CompiledQuery cq)
        : compiled(std::move(cq)), matches(compiled.OutputColumns()) {}
  };

  /// The partition key of `event` for `qs`, or false if the query ignores
  /// events of its type.
  static bool PartitionKey(const QueryState& qs, const Event& event, std::string* key);

  /// Partition id of `key` in `qs`, creating its run and bucket on first use.
  static uint32_t Intern(QueryState& qs, const std::string& key);

  const EventTypeRegistry* registry_;  // not owned
  std::vector<std::unique_ptr<QueryState>> queries_;
  std::function<void(const MatchNotification&)> callback_;
  uint64_t events_processed_ = 0;
};

}  // namespace exstream
