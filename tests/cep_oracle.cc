#include "cep_oracle.h"

#include <algorithm>

#include "query/parser.h"

namespace exstream {

QueryRun::QueryRun(const CompiledQuery* cq) : cq_(cq) {
  bound_.resize(cq_->components().size());
  aggs_.resize(cq_->returns().size());
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
  const auto& comps = cq_->components();
  size_t i = from;
  while (i < comps.size() && comps[i].negated) ++i;
  return i;
}

bool QueryRun::ViolatesNegation(const Event& event) const {
  // Active guards: the negated components strictly between the last matched
  // positive component (the kleene itself while it is absorbing) and the
  // positive component currently awaited.
  const auto& comps = cq_->components();
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
  const CompiledComponent& comp = cq_->components()[component_idx];
  if (event.type != comp.type) return false;
  for (const CompiledPredicate& pred : comp.predicates) {
    if (!pred.Eval(event, bound_)) return false;
  }
  return true;
}

void QueryRun::AbsorbKleene(const Event& event) {
  ++kleene_count_;
  if (cq_->kleene_bound_needed()) {
    bound_[cq_->kleene_component()] = event;  // later predicates/returns see the latest
  }
  for (size_t i = 0; i < cq_->returns().size(); ++i) {
    const CompiledReturn& r = cq_->returns()[i];
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
  for (size_t i = 0; i < cq_->returns().size(); ++i) {
    const CompiledReturn& r = cq_->returns()[i];
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
  out->values.reserve(cq_->returns().size());
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
  const size_t num_components = cq_->components().size();
  const bool run_active = kleene_active_ || last_positive_ >= 0;

  // WITHIN enforcement: an active run whose time budget is exhausted dies;
  // the current event may then open a fresh run below.
  const Timestamp within = cq_->query().within;
  if (within > 0 && run_active && event.ts - run_start_ > within) {
    Reset();
  }

  // Negation guards: an event matching an active negated component voids the
  // run (and may then open a fresh one below).
  if (cq_->has_negation() && ViolatesNegation(event)) Reset();

  if (kleene_active_) {
    // Either extend the kleene closure or close it with the next positive
    // component.
    if (TryAdvance(event, state_)) {
      AbsorbKleene(event);
      result.consumed = true;
      if (cq_->EmitsPerKleeneEvent()) result.emitted_row = true;
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
        if (!cq_->EmitsPerKleeneEvent()) result.emitted_row = true;
      } else {
        state_ = NextPositiveIndex(next + 1);
      }
      return result;
    }
    return result;  // skip-till-next-match: irrelevant event ignored
  }

  if (state_ >= num_components || !TryAdvance(event, state_)) return result;
  const CompiledComponent& comp = cq_->components()[state_];
  result.consumed = true;
  if (!run_active || last_positive_ < 0) run_start_ = event.ts;
  if (comp.kleene) {
    kleene_active_ = true;
    AbsorbKleene(event);
    if (cq_->EmitsPerKleeneEvent()) result.emitted_row = true;
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


Result<QueryId> CepOracle::AddQueryText(std::string_view text, std::string name) {
  EXSTREAM_ASSIGN_OR_RETURN(Query q, ParseQuery(text, std::move(name)));
  EXSTREAM_ASSIGN_OR_RETURN(CompiledQuery cq, CompiledQuery::Compile(q, registry_));
  queries_.push_back(std::make_unique<QueryState>(std::move(cq)));
  return static_cast<QueryId>(queries_.size() - 1);
}

bool CepOracle::PartitionKey(const QueryState& qs, const Event& event,
                             std::string* key) {
  const bool partitioned = !qs.compiled.query().partition_attribute.empty();
  bool relevant = false;
  size_t attr = 0;
  for (const CompiledComponent& comp : qs.compiled.components()) {
    if (comp.type != event.type) continue;
    if (!partitioned) {
      relevant = true;
    } else if (comp.partition_attr.has_value()) {
      relevant = true;
      attr = *comp.partition_attr;
    }
  }
  if (!relevant) return false;
  key->clear();
  if (partitioned) {
    const Value& v = event.values[attr];
    *key = v.is_string() ? std::string(v.AsString()) : v.ToString();
  }
  return true;
}

uint32_t CepOracle::Intern(QueryState& qs, const std::string& key) {
  auto [it, created] = qs.ids.emplace(key, static_cast<uint32_t>(qs.keys.size()));
  if (created) {
    qs.keys.push_back(key);
    qs.runs.emplace_back(&qs.compiled);
    qs.buckets.push_back(qs.matches.EnsureBucket(key));
  }
  return it->second;
}

void CepOracle::OnEvent(const Event& event) {
  ++events_processed_;
  std::string key;
  MatchRow row;
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    QueryState& qs = *queries_[qi];
    if (!PartitionKey(qs, event, &key)) continue;
    const uint32_t id = Intern(qs, key);
    const RunStepResult step = qs.runs[id].OnEvent(event, &row);
    const uint32_t bucket = qs.buckets[id];
    const QueryId q = static_cast<QueryId>(qi);
    if (step.emitted_row) {
      qs.matches.Append(bucket, row);
      if (callback_) {
        callback_(MatchNotification{q, id, qs.keys[id], row, step.match_complete});
      }
    }
    if (step.match_complete) {
      qs.matches.MarkComplete(bucket);
      if (callback_ && !step.emitted_row) {
        callback_(MatchNotification{q, id, qs.keys[id], MatchRow{}, true});
      }
    }
  }
}

}  // namespace exstream
