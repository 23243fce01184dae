#include "cep/shared_nfa.h"

#include <algorithm>

#include "common/strings.h"
#include "event/codec.h"

namespace exstream {

SharedNfa::SharedNfa(const CompiledQuery* shape) : shape_(shape) {
  for (const CompiledComponent& comp : shape_->components()) {
    if (comp.kleene) has_kleene_ = true;
  }
  if (!has_kleene_) return;
  // A predicate rhs referencing the kleene component forces the bound slot
  // regardless of any residue's RETURN clause.
  for (const CompiledComponent& comp : shape_->components()) {
    for (const CompiledPredicate& pred : comp.predicates) {
      if (pred.rhs_ref.has_value() &&
          pred.rhs_ref->component == shape_->kleene_component()) {
        kleene_bound_needed_ = true;
      }
    }
  }
}

uint32_t SharedNfa::AddResidue(const CompiledQuery* returns_src) {
  Residue r;
  r.src = returns_src;
  r.agg_offset = total_aggs_;
  total_aggs_ += returns_src->returns().size();
  if (returns_src->kleene_bound_needed()) kleene_bound_needed_ = true;
  residues_.push_back(r);
  return static_cast<uint32_t>(residues_.size() - 1);
}

SharedRun::SharedRun(const SharedNfa* nfa) : nfa_(nfa) {
  bound_.resize(nfa_->shape_->components().size());
  aggs_.resize(nfa_->total_aggs_);
  Reset();
}

void SharedRun::Reset() {
  state_ = NextPositiveIndex(0);
  last_positive_ = -1;
  kleene_active_ = false;
  kleene_count_ = 0;
  std::fill(aggs_.begin(), aggs_.end(), AggState{});
  for (Event& e : bound_) e = Event{};
}

size_t SharedRun::NextPositiveIndex(size_t from) const {
  const auto& comps = nfa_->shape_->components();
  size_t i = from;
  while (i < comps.size() && comps[i].negated) ++i;
  return i;
}

bool SharedRun::ViolatesNegation(const Event& event) const {
  const auto& comps = nfa_->shape_->components();
  size_t lo;
  size_t hi;
  if (kleene_active_) {
    lo = state_ + 1;
    hi = NextPositiveIndex(state_ + 1);
  } else {
    if (last_positive_ < 0) return false;
    lo = static_cast<size_t>(last_positive_) + 1;
    hi = state_;
  }
  for (size_t i = lo; i < hi && i < comps.size(); ++i) {
    if (!comps[i].negated || event.type != comps[i].type) continue;
    bool pass = true;
    for (const CompiledPredicate& pred : comps[i].predicates) {
      if (!pred.Eval(event, bound_)) {
        pass = false;
        break;
      }
    }
    if (pass) return true;
  }
  return false;
}

bool SharedRun::TryAdvance(const Event& event, size_t component_idx) const {
  const CompiledComponent& comp = nfa_->shape_->components()[component_idx];
  if (event.type != comp.type) return false;
  for (const CompiledPredicate& pred : comp.predicates) {
    if (!pred.Eval(event, bound_)) return false;
  }
  return true;
}

void SharedRun::AbsorbKleene(const Event& event) {
  ++kleene_count_;
  if (nfa_->kleene_bound_needed_) {
    bound_[nfa_->shape_->kleene_component()] = event;
  }
  // Aggregates update in residue order, and within a residue in RETURN-item
  // order — the same per-item order each member's QueryRun uses, so the
  // floating-point results are bit-identical.
  for (const SharedNfa::Residue& res : nfa_->residues_) {
    const auto& returns = res.src->returns();
    for (size_t i = 0; i < returns.size(); ++i) {
      const CompiledReturn& r = returns[i];
      if (r.agg == ReturnAgg::kNone) continue;
      const double v = RefValueAsDouble(r.ref, event);
      AggState& a = aggs_[res.agg_offset + i];
      a.sum += v;
      a.min = a.count == 0 ? v : std::min(a.min, v);
      a.max = a.count == 0 ? v : std::max(a.max, v);
      ++a.count;
    }
  }
}

SharedStepResult SharedRun::Step(const Event& event) {
  SharedStepResult result;
  const CompiledQuery& shape = *nfa_->shape_;
  const size_t num_components = shape.components().size();
  const bool run_active = kleene_active_ || last_positive_ >= 0;

  const Timestamp within = shape.query().within;
  if (within > 0 && run_active && event.ts - run_start_ > within) {
    Reset();
  }

  if (shape.has_negation() && ViolatesNegation(event)) Reset();

  if (kleene_active_) {
    if (TryAdvance(event, state_)) {
      AbsorbKleene(event);
      result.consumed = true;
      result.absorbed_kleene = true;
      return result;
    }
    const size_t next = NextPositiveIndex(state_ + 1);
    if (next < num_components && TryAdvance(event, next)) {
      bound_[next] = event;
      kleene_active_ = false;
      last_positive_ = static_cast<int>(next);
      result.consumed = true;
      result.closed_kleene = true;
      if (NextPositiveIndex(next + 1) >= num_components) {
        result.match_complete = true;
      } else {
        state_ = NextPositiveIndex(next + 1);
      }
      return result;
    }
    return result;  // skip-till-next-match
  }

  if (state_ >= num_components || !TryAdvance(event, state_)) return result;
  const CompiledComponent& comp = shape.components()[state_];
  result.consumed = true;
  if (!run_active || last_positive_ < 0) run_start_ = event.ts;
  if (comp.kleene) {
    kleene_active_ = true;
    AbsorbKleene(event);
    result.absorbed_kleene = true;
    return result;
  }
  bound_[state_] = event;
  last_positive_ = static_cast<int>(state_);
  if (NextPositiveIndex(state_ + 1) >= num_components) {
    result.match_complete = true;
  } else {
    state_ = NextPositiveIndex(state_ + 1);
  }
  return result;
}

void SharedRun::AppendRowValues(uint32_t residue, const Event& trigger,
                                std::vector<Value>* out) const {
  const SharedNfa::Residue& res = nfa_->residues_[residue];
  const auto& returns = res.src->returns();
  for (size_t i = 0; i < returns.size(); ++i) {
    const CompiledReturn& r = returns[i];
    if (r.agg != ReturnAgg::kNone) {
      const AggState& a = aggs_[res.agg_offset + i];
      switch (r.agg) {
        case ReturnAgg::kSum:
          out->emplace_back(a.sum);
          break;
        case ReturnAgg::kCount:
          out->emplace_back(static_cast<int64_t>(a.count));
          break;
        case ReturnAgg::kAvg:
          out->emplace_back(a.count > 0 ? a.sum / static_cast<double>(a.count)
                                        : 0.0);
          break;
        case ReturnAgg::kMin:
          out->emplace_back(a.min);
          break;
        case ReturnAgg::kMax:
          out->emplace_back(a.max);
          break;
        case ReturnAgg::kNone:
          break;  // unreachable
      }
      continue;
    }
    const Event& source =
        r.index == KleeneIndex::kCurrent ? trigger : bound_[r.ref.component];
    out->push_back(RefValue(r.ref, source));
  }
}

void SharedRun::SaveMemberView(uint32_t residue, BytesWriter* out) const {
  const SharedNfa::Residue& res = nfa_->residues_[residue];
  out->Put<uint64_t>(state_);
  out->Put<int32_t>(last_positive_);
  out->Put<int64_t>(run_start_);
  out->Put<uint8_t>(kleene_active_ ? 1 : 0);
  out->Put<uint64_t>(kleene_count_);
  out->Put<uint16_t>(static_cast<uint16_t>(bound_.size()));
  const size_t kleene_idx = nfa_->shape_->kleene_component();
  const bool member_stores_kleene = nfa_->MemberKleeneBoundNeeded(residue);
  for (size_t c = 0; c < bound_.size(); ++c) {
    if (c == kleene_idx && nfa_->kleene_bound_needed_ && !member_stores_kleene) {
      // This member's own QueryRun would have left the slot empty; writing
      // the group's copy would desync the byte format from QueryRun's.
      PutEvent(out, Event{});
    } else {
      PutEvent(out, bound_[c]);
    }
  }
  const auto& returns = res.src->returns();
  out->Put<uint16_t>(static_cast<uint16_t>(returns.size()));
  for (size_t i = 0; i < returns.size(); ++i) {
    const AggState& a = aggs_[res.agg_offset + i];
    out->Put<double>(a.sum);
    out->Put<double>(a.min);
    out->Put<double>(a.max);
    out->Put<uint64_t>(a.count);
  }
}

Status SharedRun::RestoreMemberView(BytesReader* in, uint32_t residue,
                                    bool take_base, bool take_kleene_bound,
                                    bool take_aggs) {
  const SharedNfa::Residue& res = nfa_->residues_[residue];
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t state, in->Get<uint64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const int32_t last_positive, in->Get<int32_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const int64_t run_start, in->Get<int64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint8_t kleene_active, in->Get<uint8_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t kleene_count, in->Get<uint64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint16_t n_bound, in->Get<uint16_t>());
  if (n_bound != bound_.size()) {
    return Status::Corruption(
        StrFormat("run snapshot binds %u components, group query has %zu",
                  n_bound, bound_.size()));
  }
  const size_t kleene_idx = nfa_->shape_->kleene_component();
  for (size_t c = 0; c < bound_.size(); ++c) {
    EXSTREAM_ASSIGN_OR_RETURN(Event e, GetEvent(in));
    // The kleene slot is special: most members saved Event{} there (their
    // own QueryRun never stored it), so it is taken only from the designated
    // bound-source record.
    const bool kleene_slot = nfa_->has_kleene_ && c == kleene_idx;
    if ((take_base && !kleene_slot) || (kleene_slot && take_kleene_bound)) {
      bound_[c] = std::move(e);
    }
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint16_t n_aggs, in->Get<uint16_t>());
  if (n_aggs != res.src->returns().size()) {
    return Status::Corruption(
        StrFormat("run snapshot carries %u aggregates, residue has %zu", n_aggs,
                  res.src->returns().size()));
  }
  for (size_t i = 0; i < n_aggs; ++i) {
    AggState a;
    EXSTREAM_ASSIGN_OR_RETURN(a.sum, in->Get<double>());
    EXSTREAM_ASSIGN_OR_RETURN(a.min, in->Get<double>());
    EXSTREAM_ASSIGN_OR_RETURN(a.max, in->Get<double>());
    EXSTREAM_ASSIGN_OR_RETURN(a.count, in->Get<uint64_t>());
    if (take_aggs) aggs_[res.agg_offset + i] = a;
  }
  if (take_base) {
    state_ = static_cast<size_t>(state);
    last_positive_ = last_positive;
    run_start_ = run_start;
    kleene_active_ = kleene_active != 0;
    kleene_count_ = static_cast<size_t>(kleene_count);
  }
  return Status::OK();
}

}  // namespace exstream
