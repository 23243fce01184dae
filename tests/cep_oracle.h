// CepOracle: the per-query reference semantics of CepEngine.
//
// Every query is evaluated on its own: one QueryRun per (query, partition),
// fed one event at a time, rows appended to the query's own MatchTable and
// callbacks fired in (event, query) order. There is no merging, no batching
// and no key sharing — this is what CepEngine's merge groups, residue and
// table classes, and batched routing must reproduce bit for bit. The
// differential and property tests compare the engine's MatchTables and
// callback sequence against this oracle, and bench_ingest_throughput runs it
// as the no-merge baseline.
//
// The oracle has no checkpoint format. Checkpoints are checked by
// restore-and-continue: an engine restored from its own snapshot must go on
// exactly like the oracle that was never interrupted.

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
#include "common/result.h"
#include "event/registry.h"

namespace exstream {

/// \brief Outcome of feeding one event to a run.
struct RunStepResult {
  bool consumed = false;        ///< the event advanced or extended the run
  bool emitted_row = false;     ///< a match row was produced
  bool match_complete = false;  ///< the full pattern completed (run resets)
};

/// \brief The matching state of one partition of one query.
///
/// Holds the bound single events, the kleene running aggregates, and the
/// current NFA state. One event in, at most one row out. This is the
/// per-query reference semantics: CepEngine's shared automata
/// (cep/shared_nfa.h) reproduce it exactly, and CepOracle runs it directly.
class QueryRun {
 public:
  explicit QueryRun(const CompiledQuery* cq);

  /// \brief Feeds a partition-local event (type relevance already checked
  /// upstream). When the step emits a row it is written into `*row` — cleared
  /// and refilled, so a caller-reused MatchRow stops allocating after warm-up.
  RunStepResult OnEvent(const Event& event, MatchRow* row);

  /// Resets to the initial state.
  void Reset();

  size_t current_state() const { return state_; }
  size_t kleene_count() const { return kleene_count_; }

 private:
  struct AggState {
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    size_t count = 0;
  };

  /// Advances the run without building a row or resetting on completion;
  /// OnEvent then builds the row from the intact pre-reset state.
  RunStepResult Step(const Event& event);

  bool TryAdvance(const Event& event, size_t component_idx);
  void AbsorbKleene(const Event& event);
  /// Writes the RETURN-clause row for `trigger` into `*out` (values cleared
  /// and refilled in place).
  void BuildRow(const Event& trigger, MatchRow* out) const;
  /// Appends the RETURN-clause values for `trigger` onto `*out`.
  void AppendRowValues(const Event& trigger, std::vector<Value>* out) const;
  /// Index of the first non-negated component at or after `from`
  /// (components.size() if none).
  size_t NextPositiveIndex(size_t from) const;
  /// True if any active negation guard matches the event (which voids the
  /// current run).
  bool ViolatesNegation(const Event& event) const;

  const CompiledQuery* cq_;  // not owned
  size_t state_ = 0;         // positive component currently being matched
  int last_positive_ = -1;   // index of the last matched positive component
  Timestamp run_start_ = 0;  // ts of the first matched event (WITHIN anchor)
  std::vector<Event> bound_;  // matched single events, indexed by component
  bool kleene_active_ = false;
  size_t kleene_count_ = 0;
  std::vector<AggState> aggs_;  // one per RETURN item (used by agg items)
};

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

 private:
  struct QueryState {
    CompiledQuery compiled;
    MatchTable matches;
    std::deque<std::string> keys;  ///< partition id -> key (stable views)
    std::unordered_map<std::string, uint32_t> ids;
    std::vector<QueryRun> runs;      ///< indexed by partition id
    std::vector<uint32_t> buckets;   ///< partition id -> match-table bucket

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
