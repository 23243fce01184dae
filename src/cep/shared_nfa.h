// SharedNfa: one automaton evaluated once per event on behalf of every query
// in a merge group (see query_merge.h).
//
// The *matching* structure — component sequence, predicates, WITHIN bound,
// negation guards — is identical for all members of a group, so a SharedRun
// carries exactly one copy of the traversal state per partition (NFA
// position, bound events, kleene count). What differs per member is the
// RETURN clause; members with identical compiled RETURNs form a *residue
// class*, and the run keeps one aggregate block per residue class. Stepping
// a run is therefore O(1) in the number of member queries; only row fan-out
// (one append per table class) scales with distinct outputs.
//
// State-transition semantics are bit-identical to the per-query reference
// runs of tests/cep_oracle.h: the same skip-till-next-match strategy, the
// same WITHIN/negation reset points, and the same aggregate update order, so
// a merged engine reproduces the independent-evaluation MatchTables and
// callback stream exactly (tests/query_merge_test.cc,
// tests/ingest_differential_test.cc).
//
// Checkpoint compatibility: SaveState writes the run's shared state once —
// traversal position, every bound slot, every residue's aggregates — and
// RestoreState reads it back into a run of an identically planned group, so
// a restored engine re-checkpoints to the same bytes.

#pragma once

#include <cstdint>
#include <vector>

#include "cep/nfa.h"
#include "common/bytes.h"
#include "common/result.h"

namespace exstream {

/// \brief Outcome of feeding one event to a SharedRun. Emission is decided
/// per residue class by the caller:
///   row      <=> (absorbed_kleene && residue streams per kleene event) ||
///                (match_complete && !(streams && closed_kleene))
///   complete <=> match_complete
/// The closed_kleene term reproduces the per-query run exactly: a streaming
/// residue emits no row on the event that merely closes its kleene closure,
/// but a completion later in the pattern (components after the closing one)
/// always emits.
struct SharedStepResult {
  bool consumed = false;        ///< the event advanced or extended the run
  bool absorbed_kleene = false; ///< the event was folded into the kleene closure
  bool closed_kleene = false;   ///< the event closed an active kleene closure
  bool match_complete = false;  ///< the full pattern completed (caller resets)
};

class SharedRun;

/// \brief The merged evaluator of one merge group.
class SharedNfa {
 public:
  /// `shape` supplies the matching structure (components, predicates,
  /// WITHIN); it must outlive the SharedNfa. Residues are added afterwards.
  explicit SharedNfa(const CompiledQuery* shape);

  /// \brief Registers a residue class whose RETURN clause is `returns_src`'s.
  /// Must be called before any run is created. Returns the residue index.
  uint32_t AddResidue(const CompiledQuery* returns_src);

  size_t num_residues() const { return residues_.size(); }
  const CompiledQuery& shape() const { return *shape_; }
  bool has_kleene() const { return has_kleene_; }

  /// True if `residue`'s RETURN clause streams one row per absorbed kleene
  /// event (otherwise it emits a single row on pattern completion).
  bool EmitsPerKleeneEvent(uint32_t residue) const {
    return residues_[residue].src->EmitsPerKleeneEvent();
  }

 private:
  struct Residue {
    const CompiledQuery* src = nullptr;  ///< residue representative (returns)
    size_t agg_offset = 0;               ///< into SharedRun::aggs_
  };

  const CompiledQuery* shape_;  // not owned
  std::vector<Residue> residues_;
  size_t total_aggs_ = 0;
  bool has_kleene_ = false;
  /// True if the traversal itself (a predicate rhs) or any residue's RETURN
  /// reads the kleene slot of the bound vector.
  bool kleene_bound_needed_ = false;

  friend class SharedRun;
};

/// \brief The matching state of one partition of one merge group.
class SharedRun {
 public:
  explicit SharedRun(const SharedNfa* nfa);

  /// \brief Advances the run without building rows or resetting on
  /// completion: the caller harvests rows per residue via AppendRowValues
  /// while the pre-reset state is intact, then calls Reset() itself when
  /// match_complete.
  SharedStepResult Step(const Event& event);

  /// Appends `residue`'s RETURN values for `trigger` onto `*out`, in column
  /// order. Only valid right after a Step whose result emits for `residue`.
  void AppendRowValues(uint32_t residue, const Event& trigger,
                       std::vector<Value>* out) const;

  /// Resets to the initial state.
  void Reset();

  /// \brief Serializes the run: traversal state, every bound slot and every
  /// residue's aggregate block.
  void SaveState(BytesWriter* out) const;

  /// \brief Restores a SaveState record written by a run of an identically
  /// planned group (same components and residues). Rejects a record whose
  /// slot or aggregate counts, or NFA position, do not fit this group.
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

  bool TryAdvance(const Event& event, size_t component_idx) const;
  void AbsorbKleene(const Event& event);
  size_t NextPositiveIndex(size_t from) const;
  bool ViolatesNegation(const Event& event) const;

  const SharedNfa* nfa_;  // not owned
  size_t state_ = 0;
  int last_positive_ = -1;
  Timestamp run_start_ = 0;
  std::vector<Event> bound_;
  bool kleene_active_ = false;
  size_t kleene_count_ = 0;
  /// Aggregate blocks of every residue class, laid out back to back at the
  /// residues' agg_offsets (one slot per RETURN item).
  std::vector<AggState> aggs_;
};

}  // namespace exstream
