// NFA compilation and per-partition run evaluation of SASE queries.
//
// A query's SEQ pattern compiles to a linear NFA whose states are the
// components; the (at most one) Kleene-plus component loops on itself. The
// evaluation strategy is skip-till-next-match within a partition: events that
// neither extend the current state nor start the next are ignored, which is
// the standard semantics for monitoring queries over interleaved streams.

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cep/match_table.h"
#include "common/bytes.h"
#include "cep/predicate.h"
#include "common/result.h"
#include "event/registry.h"
#include "query/ast.h"

namespace exstream {

/// \brief A RETURN expression compiled against the pattern's schemas.
struct CompiledReturn {
  ReturnAgg agg = ReturnAgg::kNone;
  CompiledRef ref;
  KleeneIndex index = KleeneIndex::kNone;
  std::string output_name;
};

/// \brief One pattern component resolved to type ids and attribute indices.
struct CompiledComponent {
  EventTypeId type = kInvalidEventType;
  bool kleene = false;
  bool negated = false;
  /// Index of the partition attribute within this component's schema.
  std::optional<size_t> partition_attr;
  /// Predicates anchored on this component (evaluated per candidate event).
  std::vector<CompiledPredicate> predicates;
};

/// \brief A schema-resolved, executable form of a Query.
class CompiledQuery {
 public:
  /// Compiles `query` against `registry`; fails on unknown event types,
  /// attributes, unsupported constructs, or a partition attribute that is not
  /// present in every component's schema.
  static Result<CompiledQuery> Compile(const Query& query,
                                       const EventTypeRegistry* registry);

  const Query& query() const { return query_; }
  const std::vector<CompiledComponent>& components() const { return components_; }
  const std::vector<CompiledReturn>& returns() const { return returns_; }

  /// RETURN column names in output order (excluding the timestamp).
  std::vector<std::string> OutputColumns() const;

  /// True if any RETURN item references the kleene variable, which makes the
  /// query emit one row per absorbed kleene event (streaming results).
  bool EmitsPerKleeneEvent() const { return emits_per_kleene_; }

  /// True if events of this type can ever affect the query.
  bool IsRelevantType(EventTypeId type) const;

  /// True if any component is negated.
  bool has_negation() const { return has_negation_; }
  /// Index of the kleene component (meaningful only if the query has one).
  size_t kleene_component() const { return kleene_idx_; }
  /// True if anything ever reads the kleene slot of the bound-event vector.
  bool kleene_bound_needed() const { return kleene_bound_needed_; }

 private:
  Query query_;
  std::vector<CompiledComponent> components_;
  std::vector<CompiledReturn> returns_;
  std::vector<bool> relevant_types_;
  bool emits_per_kleene_ = false;
  /// True if any component is negated; lets runs skip the per-event negation
  /// guard scan entirely for the common negation-free query.
  bool has_negation_ = false;
  /// Kleene component index, cached off the AST for the absorb hot path.
  size_t kleene_idx_ = 0;
  /// True if anything ever reads bound_[kleene_idx_] — a later predicate's
  /// rhs or a non-aggregated, non-current RETURN ref. When false, AbsorbKleene
  /// skips the per-event Event copy into bound_.
  bool kleene_bound_needed_ = false;

  friend class QueryRun;
};

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
/// per-query reference semantics: CepEngine's shared automata (shared_nfa.h)
/// reproduce it exactly, and the tests' reference oracle runs it directly.
class QueryRun {
 public:
  explicit QueryRun(const CompiledQuery* cq);

  /// \brief Feeds a partition-local event (type relevance already checked
  /// upstream). When the step emits a row it is written into `*row` — cleared
  /// and refilled, so a caller-reused MatchRow stops allocating after warm-up.
  RunStepResult OnEvent(const Event& event, MatchRow* row);

  /// Resets to the initial state.
  void Reset();

  /// \brief Serializes the run's full matching state (NFA position, bound
  /// events, kleene aggregates) for a checkpoint manifest.
  void SaveState(BytesWriter* out) const;

  /// \brief Restores a SaveState snapshot. The run must have been built from
  /// an identically compiled query (same components and RETURN items).
  Status RestoreState(BytesReader* in);

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

}  // namespace exstream
