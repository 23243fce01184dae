#include "cep/nfa.h"

#include "common/strings.h"

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

}  // namespace exstream
