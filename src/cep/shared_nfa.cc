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
  // order — the same per-item order each member's own run would use, so the
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

void SharedRun::SaveState(BytesWriter* out) const {
  out->Put<uint64_t>(state_);
  out->Put<int32_t>(last_positive_);
  out->Put<int64_t>(run_start_);
  out->Put<uint8_t>(kleene_active_ ? 1 : 0);
  out->Put<uint64_t>(kleene_count_);
  out->Put<uint16_t>(static_cast<uint16_t>(bound_.size()));
  for (const Event& e : bound_) PutEvent(out, e);
  out->Put<uint32_t>(static_cast<uint32_t>(aggs_.size()));
  for (const AggState& a : aggs_) {
    out->Put<double>(a.sum);
    out->Put<double>(a.min);
    out->Put<double>(a.max);
    out->Put<uint64_t>(a.count);
  }
}

Status SharedRun::RestoreState(BytesReader* in) {
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t state, in->Get<uint64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const int32_t last_positive, in->Get<int32_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const int64_t run_start, in->Get<int64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint8_t kleene_active, in->Get<uint8_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t kleene_count, in->Get<uint64_t>());
  // Step indexes the component list with the NFA position (and, while a
  // closure is open, expects it on the kleene component).
  const auto& comps = nfa_->shape_->components();
  if (state > comps.size() || last_positive < -1 ||
      last_positive >= static_cast<int64_t>(comps.size()) ||
      (kleene_active != 0 && (state == comps.size() || !comps[state].kleene))) {
    return Status::Corruption(StrFormat(
        "run snapshot position (state %llu, last %d, kleene %u) does not fit "
        "a %zu-component pattern",
        static_cast<unsigned long long>(state), last_positive, kleene_active,
        comps.size()));
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint16_t n_bound, in->Get<uint16_t>());
  if (n_bound != bound_.size()) {
    return Status::Corruption(
        StrFormat("run snapshot binds %u components, group query has %zu",
                  n_bound, bound_.size()));
  }
  for (Event& e : bound_) {
    EXSTREAM_ASSIGN_OR_RETURN(e, GetEvent(in));
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_aggs, in->Get<uint32_t>());
  if (n_aggs != aggs_.size()) {
    return Status::Corruption(
        StrFormat("run snapshot carries %u aggregates, group has %zu", n_aggs,
                  aggs_.size()));
  }
  for (AggState& a : aggs_) {
    EXSTREAM_ASSIGN_OR_RETURN(a.sum, in->Get<double>());
    EXSTREAM_ASSIGN_OR_RETURN(a.min, in->Get<double>());
    EXSTREAM_ASSIGN_OR_RETURN(a.max, in->Get<double>());
    EXSTREAM_ASSIGN_OR_RETURN(a.count, in->Get<uint64_t>());
  }
  state_ = static_cast<size_t>(state);
  last_positive_ = last_positive;
  run_start_ = run_start;
  kleene_active_ = kleene_active != 0;
  kleene_count_ = static_cast<size_t>(kleene_count);
  return Status::OK();
}

}  // namespace exstream
