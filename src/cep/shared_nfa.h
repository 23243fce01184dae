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
// State-transition semantics are bit-identical to QueryRun (nfa.h): the same
// skip-till-next-match strategy, the same WITHIN/negation reset points, and
// the same aggregate update order, so a merged engine reproduces the
// independent-evaluation MatchTables and callback stream exactly
// (tests/query_merge_test.cc, tests/ingest_differential_test.cc).
//
// Checkpoint compatibility: SaveMemberView serializes the state one member's
// QueryRun would have held, byte-identical to QueryRun::SaveState, so engine
// snapshots equal the per-query reference oracle's and round-trip with it in
// either direction.

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
/// The closed_kleene term reproduces QueryRun exactly: a streaming residue
/// emits no row on the event that merely closes its kleene closure, but a
/// completion later in the pattern (components after the closing one) always
/// emits.
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

  /// \brief True if a member of `residue`, evaluated as an independent
  /// QueryRun, would store the latest kleene event in its bound vector —
  /// the flag that keeps SaveMemberView byte-identical to QueryRun.
  bool MemberKleeneBoundNeeded(uint32_t residue) const {
    return residues_[residue].src->kleene_bound_needed();
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

/// \brief The matching state of one partition of one merge group — the
/// shared-traversal counterpart of QueryRun.
class SharedRun {
 public:
  explicit SharedRun(const SharedNfa* nfa);

  /// \brief Advances the run without building rows or resetting on
  /// completion (like QueryRun::Step): the caller harvests rows per
  /// residue via AppendRowValues while the pre-reset state is intact, then
  /// calls Reset() itself when match_complete.
  SharedStepResult Step(const Event& event);

  /// Appends `residue`'s RETURN values for `trigger` onto `*out`, in column
  /// order. Only valid right after a Step whose result emits for `residue`.
  void AppendRowValues(uint32_t residue, const Event& trigger,
                       std::vector<Value>* out) const;

  /// Resets to the initial state.
  void Reset();

  /// \brief Serializes the state a member of `residue` would hold as an
  /// independent QueryRun — byte-identical to QueryRun::SaveState.
  void SaveMemberView(uint32_t residue, BytesWriter* out) const;

  /// \brief Restores from one member's QueryRun-format record. Each member
  /// of the group carries a redundant copy of the shared traversal state, so
  /// the caller selects which record supplies which piece:
  ///  - `take_base`: traversal state + bound events (the group's first member)
  ///  - `take_kleene_bound`: the kleene slot of the bound vector (the first
  ///    member whose own QueryRun stores it — others saved an empty event)
  ///  - `take_aggs`: `residue`'s aggregate block (the residue representative)
  /// Records not selected for a piece are still parsed and length-checked.
  Status RestoreMemberView(BytesReader* in, uint32_t residue, bool take_base,
                           bool take_kleene_bound, bool take_aggs);

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
  /// residues' agg_offsets (one slot per RETURN item, as in QueryRun).
  std::vector<AggState> aggs_;
};

}  // namespace exstream
