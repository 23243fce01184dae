#include "cep/nfa.h"

#include <algorithm>

#include "common/strings.h"
#include "event/codec.h"

namespace exstream {

namespace {

// Resolves an AttrRef against the component list. Returns the component index
// and the compiled reference.
Result<std::pair<size_t, CompiledRef>> ResolveRef(const AttrRef& ref,
                                                  const Query& query,
                                                  const EventTypeRegistry* registry) {
  for (size_t c = 0; c < query.components.size(); ++c) {
    if (query.components[c].variable != ref.variable) continue;
    CompiledRef out;
    out.component = c;
    if (EqualsIgnoreCase(ref.attribute, "timestamp")) {
      out.is_timestamp = true;
      return std::make_pair(c, out);
    }
    EXSTREAM_ASSIGN_OR_RETURN(const EventTypeId tid,
                              registry->IdOf(query.components[c].event_type));
    EXSTREAM_ASSIGN_OR_RETURN(out.attr_index,
                              registry->schema(tid).AttributeIndex(ref.attribute));
    return std::make_pair(c, out);
  }
  return Status::InvalidArgument("unknown pattern variable '" + ref.variable + "'");
}

}  // namespace

Result<CompiledQuery> CompiledQuery::Compile(const Query& query,
                                             const EventTypeRegistry* registry) {
  if (query.components.empty()) {
    return Status::InvalidArgument("query has no pattern components");
  }
  CompiledQuery cq;
  cq.query_ = query;
  cq.relevant_types_.assign(registry->size(), false);

  if (query.components.front().negated || query.components.back().negated) {
    return Status::InvalidArgument(
        "a negated component needs surrounding positive components");
  }
  for (const QueryComponent& comp : query.components) {
    if (comp.negated && comp.kleene) {
      return Status::InvalidArgument("a component cannot be negated and kleene");
    }
    CompiledComponent cc;
    EXSTREAM_ASSIGN_OR_RETURN(cc.type, registry->IdOf(comp.event_type));
    cc.kleene = comp.kleene;
    cc.negated = comp.negated;
    if (!query.partition_attribute.empty()) {
      auto idx = registry->schema(cc.type).AttributeIndex(query.partition_attribute);
      if (!idx.ok()) {
        return Status::InvalidArgument(StrFormat(
            "partition attribute '%s' missing from event type '%s'",
            query.partition_attribute.c_str(), comp.event_type.c_str()));
      }
      cc.partition_attr = *idx;
    }
    cq.relevant_types_[cc.type] = true;
    if (cc.negated) cq.has_negation_ = true;
    cq.components_.push_back(std::move(cc));
  }

  for (const QueryPredicate& pred : query.predicates) {
    if (pred.lhs.index == KleeneIndex::kRange) {
      return Status::NotImplemented("range-indexed predicates are not supported");
    }
    EXSTREAM_ASSIGN_OR_RETURN(auto lhs_resolved, ResolveRef(pred.lhs, query, registry));
    const size_t anchor = lhs_resolved.first;
    CompiledPredicate cp;
    cp.lhs = lhs_resolved.second;
    cp.op = pred.op;
    if (pred.rhs_constant.has_value()) {
      cp.rhs_constant = pred.rhs_constant;
    } else {
      EXSTREAM_ASSIGN_OR_RETURN(auto rhs_resolved,
                                ResolveRef(*pred.rhs_attr, query, registry));
      if (rhs_resolved.first >= anchor) {
        return Status::InvalidArgument(
            "predicate rhs must reference an earlier pattern variable");
      }
      if (query.components[rhs_resolved.first].negated) {
        return Status::InvalidArgument(
            "predicate rhs cannot reference a negated component (it never "
            "binds an event)");
      }
      cp.rhs_ref = rhs_resolved.second;
    }
    cq.components_[anchor].predicates.push_back(std::move(cp));
  }

  const auto kleene_idx = query.KleeneComponentIndex();
  for (const ReturnItem& item : query.return_items) {
    CompiledReturn cr;
    cr.agg = item.agg;
    cr.index = item.ref.index;
    cr.output_name = item.OutputName();
    EXSTREAM_ASSIGN_OR_RETURN(auto resolved, ResolveRef(item.ref, query, registry));
    if (query.components[resolved.first].negated) {
      return Status::InvalidArgument(
          "RETURN cannot reference a negated component (it never binds an "
          "event)");
    }
    cr.ref = resolved.second;
    const bool on_kleene = kleene_idx.has_value() && resolved.first == *kleene_idx;
    if (item.agg != ReturnAgg::kNone && !on_kleene) {
      return Status::InvalidArgument(
          "aggregates in RETURN must range over the kleene variable");
    }
    if ((cr.index == KleeneIndex::kCurrent || cr.index == KleeneIndex::kRange) &&
        !on_kleene) {
      return Status::InvalidArgument(
          "kleene-indexed reference on a non-kleene variable");
    }
    if (on_kleene) cq.emits_per_kleene_ = true;
    cq.returns_.push_back(std::move(cr));
  }

  if (kleene_idx.has_value()) {
    cq.kleene_idx_ = *kleene_idx;
    for (const CompiledComponent& comp : cq.components_) {
      for (const CompiledPredicate& pred : comp.predicates) {
        if (pred.rhs_ref.has_value() && pred.rhs_ref->component == *kleene_idx) {
          cq.kleene_bound_needed_ = true;
        }
      }
    }
    for (const CompiledReturn& r : cq.returns_) {
      if (r.agg == ReturnAgg::kNone && r.ref.component == *kleene_idx &&
          r.index != KleeneIndex::kCurrent) {
        cq.kleene_bound_needed_ = true;
      }
    }
  }
  return cq;
}

std::vector<std::string> CompiledQuery::OutputColumns() const {
  std::vector<std::string> out;
  out.reserve(returns_.size());
  for (const auto& r : returns_) out.push_back(r.output_name);
  return out;
}

bool CompiledQuery::IsRelevantType(EventTypeId type) const {
  return type < relevant_types_.size() && relevant_types_[type];
}

QueryRun::QueryRun(const CompiledQuery* cq) : cq_(cq) {
  bound_.resize(cq_->components_.size());
  aggs_.resize(cq_->returns_.size());
  Reset();
}

void QueryRun::Reset() {
  state_ = NextPositiveIndex(0);
  last_positive_ = -1;
  kleene_active_ = false;
  kleene_count_ = 0;
  std::fill(aggs_.begin(), aggs_.end(), AggState{});
  for (Event& e : bound_) e = Event{};
}

size_t QueryRun::NextPositiveIndex(size_t from) const {
  const auto& comps = cq_->components_;
  size_t i = from;
  while (i < comps.size() && comps[i].negated) ++i;
  return i;
}

bool QueryRun::ViolatesNegation(const Event& event) const {
  // Active guards: the negated components strictly between the last matched
  // positive component (the kleene itself while it is absorbing) and the
  // positive component currently awaited.
  const auto& comps = cq_->components_;
  size_t lo;
  size_t hi;
  if (kleene_active_) {
    lo = state_ + 1;
    hi = NextPositiveIndex(state_ + 1);
  } else {
    if (last_positive_ < 0) return false;  // no run in flight
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

bool QueryRun::TryAdvance(const Event& event, size_t component_idx) {
  const CompiledComponent& comp = cq_->components_[component_idx];
  if (event.type != comp.type) return false;
  for (const CompiledPredicate& pred : comp.predicates) {
    if (!pred.Eval(event, bound_)) return false;
  }
  return true;
}

void QueryRun::AbsorbKleene(const Event& event) {
  ++kleene_count_;
  if (cq_->kleene_bound_needed_) {
    bound_[cq_->kleene_idx_] = event;  // later predicates/returns see the latest
  }
  for (size_t i = 0; i < cq_->returns_.size(); ++i) {
    const CompiledReturn& r = cq_->returns_[i];
    if (r.agg == ReturnAgg::kNone) continue;
    const double v = RefValueAsDouble(r.ref, event);
    AggState& a = aggs_[i];
    a.sum += v;
    a.min = a.count == 0 ? v : std::min(a.min, v);
    a.max = a.count == 0 ? v : std::max(a.max, v);
    ++a.count;
  }
}

void QueryRun::AppendRowValues(const Event& trigger, std::vector<Value>* out) const {
  for (size_t i = 0; i < cq_->returns_.size(); ++i) {
    const CompiledReturn& r = cq_->returns_[i];
    if (r.agg != ReturnAgg::kNone) {
      const AggState& a = aggs_[i];
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
    // A kCurrent ref implies emits_per_kleene_, under which rows are only
    // ever harvested with the just-absorbed kleene event as trigger — so the
    // trigger IS the current kleene event and no stored copy is needed.
    const Event& source =
        r.index == KleeneIndex::kCurrent ? trigger : bound_[r.ref.component];
    out->push_back(RefValue(r.ref, source));
  }
}

void QueryRun::BuildRow(const Event& trigger, MatchRow* out) const {
  out->ts = trigger.ts;
  out->values.clear();
  out->values.reserve(cq_->returns_.size());
  AppendRowValues(trigger, &out->values);
}

RunStepResult QueryRun::OnEvent(const Event& event, MatchRow* row) {
  RunStepResult result = Step(event);
  if (result.emitted_row) BuildRow(event, row);
  if (result.match_complete) Reset();
  return result;
}

RunStepResult QueryRun::Step(const Event& event) {
  RunStepResult result;
  const size_t num_components = cq_->components_.size();
  const bool run_active = kleene_active_ || last_positive_ >= 0;

  // WITHIN enforcement: an active run whose time budget is exhausted dies;
  // the current event may then open a fresh run below.
  const Timestamp within = cq_->query_.within;
  if (within > 0 && run_active && event.ts - run_start_ > within) {
    Reset();
  }

  // Negation guards: an event matching an active negated component voids the
  // run (and may then open a fresh one below).
  if (cq_->has_negation_ && ViolatesNegation(event)) Reset();

  if (kleene_active_) {
    // Either extend the kleene closure or close it with the next positive
    // component.
    if (TryAdvance(event, state_)) {
      AbsorbKleene(event);
      result.consumed = true;
      if (cq_->emits_per_kleene_) result.emitted_row = true;
      return result;
    }
    const size_t next = NextPositiveIndex(state_ + 1);
    if (next < num_components && TryAdvance(event, next)) {
      bound_[next] = event;
      kleene_active_ = false;
      last_positive_ = static_cast<int>(next);
      result.consumed = true;
      if (NextPositiveIndex(next + 1) >= num_components) {
        result.match_complete = true;
        if (!cq_->emits_per_kleene_) result.emitted_row = true;
      } else {
        state_ = NextPositiveIndex(next + 1);
      }
      return result;
    }
    return result;  // skip-till-next-match: irrelevant event ignored
  }

  if (state_ >= num_components || !TryAdvance(event, state_)) return result;
  const CompiledComponent& comp = cq_->components_[state_];
  result.consumed = true;
  if (!run_active || last_positive_ < 0) run_start_ = event.ts;
  if (comp.kleene) {
    kleene_active_ = true;
    AbsorbKleene(event);
    if (cq_->emits_per_kleene_) result.emitted_row = true;
    return result;
  }
  bound_[state_] = event;
  last_positive_ = static_cast<int>(state_);
  if (NextPositiveIndex(state_ + 1) >= num_components) {
    result.match_complete = true;
    result.emitted_row = true;
  } else {
    state_ = NextPositiveIndex(state_ + 1);
  }
  return result;
}

void QueryRun::SaveState(BytesWriter* out) const {
  out->Put<uint64_t>(state_);
  out->Put<int32_t>(last_positive_);
  out->Put<int64_t>(run_start_);
  out->Put<uint8_t>(kleene_active_ ? 1 : 0);
  out->Put<uint64_t>(kleene_count_);
  out->Put<uint16_t>(static_cast<uint16_t>(bound_.size()));
  for (const Event& e : bound_) PutEvent(out, e);
  out->Put<uint16_t>(static_cast<uint16_t>(aggs_.size()));
  for (const AggState& a : aggs_) {
    out->Put<double>(a.sum);
    out->Put<double>(a.min);
    out->Put<double>(a.max);
    out->Put<uint64_t>(a.count);
  }
}

Status QueryRun::RestoreState(BytesReader* in) {
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t state, in->Get<uint64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const int32_t last_positive, in->Get<int32_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const int64_t run_start, in->Get<int64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint8_t kleene_active, in->Get<uint8_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t kleene_count, in->Get<uint64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint16_t n_bound, in->Get<uint16_t>());
  if (n_bound != bound_.size()) {
    return Status::Corruption(
        StrFormat("run snapshot binds %u components, query has %zu", n_bound,
                  bound_.size()));
  }
  for (Event& e : bound_) {
    EXSTREAM_ASSIGN_OR_RETURN(e, GetEvent(in));
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint16_t n_aggs, in->Get<uint16_t>());
  if (n_aggs != aggs_.size()) {
    return Status::Corruption(
        StrFormat("run snapshot carries %u aggregates, query has %zu", n_aggs,
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
