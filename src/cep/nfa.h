// NFA compilation of SASE queries.
//
// A query's SEQ pattern compiles to a linear NFA whose states are the
// components; the (at most one) Kleene-plus component loops on itself. The
// evaluation strategy is skip-till-next-match within a partition: events that
// neither extend the current state nor start the next are ignored, which is
// the standard semantics for monitoring queries over interleaved streams.
// CompiledQuery is the executable form; CepEngine evaluates it through the
// shared automata of cep/shared_nfa.h, and the tests' per-query reference
// oracle (tests/cep_oracle.h) evaluates it one run per partition.

#pragma once

#include <optional>
#include <string>
#include <vector>

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
};

}  // namespace exstream
