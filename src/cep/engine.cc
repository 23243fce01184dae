#include "cep/engine.h"

#include <algorithm>

#include "query/parser.h"

namespace exstream {

Result<QueryId> CepEngine::AddQuery(const Query& query) {
  EXSTREAM_ASSIGN_OR_RETURN(CompiledQuery cq, CompiledQuery::Compile(query, registry_));
  const QueryId id = static_cast<QueryId>(queries_.size());
  queries_.push_back(std::make_unique<QueryState>(std::move(cq)));

  // Build the type-route table: one lookup replaces the per-event relevance
  // bitmap check plus the per-component partition-attribute scan.
  QueryState& qs = *queries_.back();
  qs.route.assign(registry_->size(), kRouteIrrelevant);
  const bool partitioned = !qs.compiled.query().partition_attribute.empty();
  for (const CompiledComponent& comp : qs.compiled.components()) {
    if (comp.type >= qs.route.size()) continue;
    if (!partitioned) {
      qs.route[comp.type] = kRouteEmptyKey;
    } else if (comp.partition_attr.has_value()) {
      qs.route[comp.type] =
          static_cast<uint16_t>(kRouteSpecBase + SpecIndexFor(comp.type,
                                                              *comp.partition_attr));
    }
    // A relevant type without a partition attribute stays unroutable: an
    // event of that type carries no key, so it is skipped.
  }

  // Assign the query to its route class (creating one if this route table is
  // new). AddQuery is rare and #classes is small, so linear search is fine.
  qs.route_class = static_cast<uint32_t>(route_classes_.size());
  for (size_t c = 0; c < route_classes_.size(); ++c) {
    if (route_classes_[c] == qs.route) {
      qs.route_class = static_cast<uint32_t>(c);
      break;
    }
  }
  if (qs.route_class == route_classes_.size()) route_classes_.push_back(qs.route);
  route_index_dirty_ = true;

  // Merge-plan assignment. A query added after ingestion started must not
  // join a group whose runs already carry partial matches from events it
  // never saw — it is forced into a fresh singleton group instead. The flag
  // is persisted by SaveState so a restoring engine reproduces the plan even
  // though recovery re-adds every query before any event flows.
  qs.added_mid_stream = events_processed_ > 0;
  AssignMergePlan(id, /*force_singleton=*/qs.added_mid_stream);
  qs.notify = notify_new_queries_;
  return id;
}

void CepEngine::SetMatchCallback(std::function<void(const MatchNotification&)> cb) {
  for (auto& qs : queries_) qs->notify = true;
  notify_new_queries_ = true;
  callback_ = std::move(cb);
}

Status CepEngine::SetMatchCallback(std::span<const QueryId> queries,
                                   std::function<void(const MatchNotification&)> cb) {
  for (const QueryId q : queries) {
    if (q >= queries_.size()) {
      return Status::InvalidArgument(StrFormat(
          "match callback names query %u, engine has %zu", q, queries_.size()));
    }
  }
  for (auto& qs : queries_) qs->notify = false;
  for (const QueryId q : queries) queries_[q]->notify = true;
  notify_new_queries_ = false;
  callback_ = std::move(cb);
  return Status::OK();
}

void CepEngine::AssignMergePlan(QueryId id, bool force_singleton) {
  QueryState& qs = *queries_[id];
  const MergeAssignment a = planner_.Assign(qs.compiled, force_singleton);
  if (a.new_group) {
    auto g = std::make_unique<MergeGroup>();
    g->nfa = std::make_unique<SharedNfa>(&qs.compiled);
    g->route = qs.route;
    g->route_class = qs.route_class;
    groups_.push_back(std::move(g));
  }
  MergeGroup& g = *groups_[a.group];
  if (a.new_residue) {
    ResidueClass rc;
    rc.nfa_residue = g.nfa->AddResidue(&qs.compiled);
    g.residues.push_back(std::move(rc));
  }
  ResidueClass& rc = g.residues[a.residue];
  if (a.new_table) {
    TableClass tc;
    tc.rep = id;
    tc.table = &qs.matches;
    rc.tables.push_back(std::move(tc));
  }
  TableClass& tc = rc.tables[a.table];
  tc.members.push_back(id);
  rc.members.push_back(id);
  g.members.push_back(id);
  qs.physical = tc.table;
  qs.merge_group = a.group;
  qs.merge_residue = a.residue;
}

Result<QueryId> CepEngine::AddQueryText(std::string_view text, std::string name) {
  EXSTREAM_ASSIGN_OR_RETURN(Query q, ParseQuery(text, std::move(name)));
  return AddQuery(q);
}

Result<QueryId> CepEngine::QueryIdByName(std::string_view name) const {
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i]->compiled.query().name == name) {
      return static_cast<QueryId>(i);
    }
  }
  return Status::NotFound("no query named '" + std::string(name) + "'");
}

uint16_t CepEngine::SpecIndexFor(EventTypeId type, size_t attr) {
  for (size_t s = 0; s < specs_.size(); ++s) {
    if (specs_[s].type == type && specs_[s].attr == attr) {
      return static_cast<uint16_t>(s);
    }
  }
  const uint16_t s = static_cast<uint16_t>(specs_.size());
  specs_.push_back(ExtractorSpec{type, attr});
  if (specs_by_type_.size() <= type) specs_by_type_.resize(type + 1);
  specs_by_type_[type].push_back(s);
  return s;
}

uint32_t CepEngine::InternGroupKey(MergeGroup& g, std::string_view key,
                                   uint64_t hash) {
  bool created = false;
  const uint32_t id = g.interner.Intern(key, hash, &created);
  if (created) {
    g.runs.emplace_back(g.nfa.get());
    // Every member table registers the partition in the same first-seen
    // order, so its bucket id is the partition id in all of them.
    const std::string_view stored = g.interner.KeyOf(id);
    for (ResidueClass& rc : g.residues) {
      for (TableClass& tc : rc.tables) tc.table->EnsureBucket(stored);
    }
  }
  return id;
}

void CepEngine::RebuildRouteIndex() {
  classes_by_type_.assign(registry_->size(), {});
  for (size_t c = 0; c < route_classes_.size(); ++c) {
    const std::vector<uint16_t>& route = route_classes_[c];
    for (size_t t = 0; t < route.size() && t < classes_by_type_.size(); ++t) {
      if (route[t] != kRouteIrrelevant) {
        classes_by_type_[t].push_back(static_cast<uint16_t>(c));
      }
    }
  }
  route_index_dirty_ = false;
}

void CepEngine::PrepareBatchKeys(std::span<const Event> batch) {
  const size_t n = batch.size();
  prep_.resize(specs_.size());
  prep_keys_.resize(specs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    if (prep_[s].size() < n) prep_[s].resize(n);
  }
  if (route_index_dirty_) RebuildRouteIndex();
  class_events_.resize(route_classes_.size());
  for (auto& list : class_events_) list.clear();
  for (uint32_t i = 0; i < n; ++i) {
    const Event& e = batch[i];
    // The inverted class index makes this loop proportional to the classes
    // that actually want the event's type, not to all classes.
    if (e.type < classes_by_type_.size()) {
      for (const uint16_t c : classes_by_type_[e.type]) {
        class_events_[c].push_back(i);
      }
    }
    if (e.type >= specs_by_type_.size()) continue;
    for (const uint16_t s : specs_by_type_[e.type]) {
      const Value& v = e.values[specs_[s].attr];
      PrepKey& pk = prep_[s][i];
      if (v.is_string()) {
        pk.view = v.AsString();
      } else {
        auto& storage = prep_keys_[s];
        if (storage.size() < n) storage.resize(n);
        storage[i] = v.ToString();
        pk.view = storage[i];
      }
      pk.hash = PartitionKeyHash(pk.view);
    }
  }
}

void CepEngine::RouteGroupBatch(MergeGroup& g, std::span<const Event> batch) {
  items_.clear();
  for (const uint32_t i : class_events_[g.route_class]) {
    const Event& e = batch[i];
    const uint16_t r = g.route[e.type];

    std::string_view key;
    uint64_t hash;
    if (r == kRouteEmptyKey) {
      hash = empty_key_hash_;
    } else {
      const PrepKey& pk = prep_[r - kRouteSpecBase][i];
      key = pk.view;
      hash = pk.hash;
    }

    items_.push_back(WorkItem{i, InternGroupKey(g, key, hash)});
  }
}

void CepEngine::ProcessGroup(MergeGroup& g, std::span<const Event> batch) {
  const bool want_notes = callback_ != nullptr;
  const SharedNfa& nfa = *g.nfa;
  for (const WorkItem& it : items_) {
    const Event& e = batch[it.event];
    SharedRun& run = g.runs[it.run];
    const SharedStepResult step = run.Step(e);
    if (!step.absorbed_kleene && !step.match_complete) continue;
    const uint32_t bucket = it.run;  // bucket ids equal partition ids
    for (ResidueClass& rc : g.residues) {
      const bool per_kleene = nfa.EmitsPerKleeneEvent(rc.nfa_residue);
      const bool row_now =
          (step.absorbed_kleene && per_kleene) ||
          (step.match_complete && !(per_kleene && step.closed_kleene));
      if (row_now) {
        // Build the row once per residue class, then fan out one physical
        // append per table class (not per member query).
        row_.ts = e.ts;
        row_.values.clear();
        run.AppendRowValues(rc.nfa_residue, e, &row_.values);
        for (TableClass& tc : rc.tables) {
          tc.table->Append(bucket, row_);
          if (step.match_complete) tc.table->MarkComplete(bucket);
        }
        if (want_notes) {
          for (const QueryId q : rc.members) {
            if (!queries_[q]->notify) continue;
            notes_.push_back({it.event,
                              MatchNotification{q, it.run, g.interner.KeyOf(it.run),
                                                row_, step.match_complete}});
          }
        }
      } else if (step.match_complete) {
        for (TableClass& tc : rc.tables) tc.table->MarkComplete(bucket);
        if (want_notes) {
          for (const QueryId q : rc.members) {
            if (!queries_[q]->notify) continue;
            notes_.push_back({it.event,
                              MatchNotification{q, it.run, g.interner.KeyOf(it.run),
                                                MatchRow{}, true}});
          }
        }
      }
    }
    if (step.match_complete) run.Reset();
  }
}

void CepEngine::DispatchNotifications() {
  if (notes_.empty()) return;
  // Groups emit in per-group stream order; the canonical sequential order is
  // (event, query). Stable sort keeps the fixed row-before-completion order
  // of the (at most two) notes one (event, query) pair can produce.
  std::stable_sort(notes_.begin(), notes_.end(),
                   [](const PendingNote& a, const PendingNote& b) {
                     if (a.event_idx != b.event_idx) return a.event_idx < b.event_idx;
                     return a.note.query < b.note.query;
                   });
  for (const PendingNote& p : notes_) callback_(p.note);
  notes_.clear();
}

void CepEngine::IngestBatch(std::span<const Event> batch) {
  if (batch.empty()) return;
  events_processed_ += batch.size();
  PrepareBatchKeys(batch);
  for (auto& gp : groups_) {
    MergeGroup& g = *gp;
    if (g.route_class >= class_events_.size() ||
        class_events_[g.route_class].empty()) {
      continue;
    }
    // Route the whole group first (intern ids and bucket registrations in
    // stream order), then evaluate its routed events.
    RouteGroupBatch(g, batch);
    ProcessGroup(g, batch);
  }
  DispatchNotifications();
}

void CepEngine::SaveState(BytesWriter* out) const {
  out->Put<uint64_t>(events_processed_);
  out->Put<uint32_t>(static_cast<uint32_t>(queries_.size()));
  // Mid-stream-add flags. RestoreState replays them into the merge planner:
  // a query added after ingestion started was forced singleton at save time,
  // and must land in its own group again on restore even though recovery
  // re-adds every query before any event flows.
  for (const auto& qs : queries_) {
    out->Put<uint8_t>(qs->added_mid_stream ? 1 : 0);
  }
  out->Put<uint32_t>(static_cast<uint32_t>(groups_.size()));
  for (const auto& gp : groups_) {
    const MergeGroup& g = *gp;
    out->Put<uint32_t>(static_cast<uint32_t>(g.runs.size()));
    for (const SharedRun& run : g.runs) run.SaveState(out);
    for (const ResidueClass& rc : g.residues) {
      for (const TableClass& tc : rc.tables) tc.table->SaveState(out);
    }
  }
}

Status CepEngine::RestoreState(BytesReader* in) {
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t events_processed, in->Get<uint64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_queries, in->Get<uint32_t>());
  if (n_queries != queries_.size()) {
    return Status::InvalidArgument(
        StrFormat("snapshot holds %u queries, engine has %zu registered",
                  n_queries, queries_.size()));
  }
  std::vector<uint8_t> mid_stream(n_queries, 0);
  for (uint32_t i = 0; i < n_queries; ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(mid_stream[i], in->Get<uint8_t>());
  }
  const Status not_fresh =
      Status::InvalidArgument("engine must be freshly constructed before restore");
  for (const auto& gp : groups_) {
    if (gp->interner.size() != 0) return not_fresh;
  }
  // If the snapshot's mid-stream flags disagree with how this engine's
  // queries were added (during recovery every query is re-added before any
  // event, so none is forced singleton), the current merge plan groups
  // queries the snapshot kept apart. Rebuild the plan with the persisted
  // flags instead.
  bool replan = false;
  for (uint32_t i = 0; i < n_queries; ++i) {
    if ((mid_stream[i] != 0) != queries_[i]->added_mid_stream) replan = true;
  }
  if (replan) {
    for (const auto& qs : queries_) {
      if (qs->matches.TotalRows() != 0) return not_fresh;
    }
    planner_ = MergePlanner();
    groups_.clear();
    for (QueryId qi = 0; qi < queries_.size(); ++qi) {
      queries_[qi]->physical = &queries_[qi]->matches;
      AssignMergePlan(qi, /*force_singleton=*/mid_stream[qi] != 0);
    }
  }
  // Adopt the persisted flags so a re-checkpoint of the restored engine
  // writes the same plan.
  for (QueryId qi = 0; qi < queries_.size(); ++qi) {
    queries_[qi]->added_mid_stream = mid_stream[qi] != 0;
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_groups, in->Get<uint32_t>());
  if (n_groups != groups_.size()) {
    return Status::Corruption(StrFormat(
        "snapshot holds %u merge groups, the restored plan has %zu", n_groups,
        groups_.size()));
  }
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    MergeGroup& g = *groups_[gi];
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_runs, in->Get<uint32_t>());
    // Every run record takes more than one byte: a count beyond the bytes
    // left is corrupt, and must not size an allocation.
    if (n_runs > in->remaining()) {
      return Status::Corruption(StrFormat(
          "merge group %zu claims %u runs, %zu bytes left", gi, n_runs,
          in->remaining()));
    }
    g.runs.reserve(n_runs);
    for (uint32_t i = 0; i < n_runs; ++i) {
      g.runs.emplace_back(g.nfa.get());
      EXSTREAM_RETURN_NOT_OK(g.runs.back().RestoreState(in));
    }
    // The first table's keys, in bucket order, rebuild the interner (first
    // intern order is id order); every other table must list the same keys.
    std::vector<std::string> keys;
    bool first = true;
    for (ResidueClass& rc : g.residues) {
      for (TableClass& tc : rc.tables) {
        EXSTREAM_RETURN_NOT_OK(tc.table->RestoreState(in));
        std::vector<std::string> table_keys = tc.table->BucketKeys();
        if (first) {
          keys = std::move(table_keys);
          first = false;
        } else if (table_keys != keys) {
          return Status::Corruption(StrFormat(
              "merge group %zu: table of query %u disagrees with the group's "
              "partition keys",
              gi, tc.rep));
        }
      }
    }
    if (keys.size() != n_runs) {
      return Status::Corruption(
          StrFormat("merge group %zu holds %u runs for %zu partition keys", gi,
                    n_runs, keys.size()));
    }
    for (const std::string& key : keys) g.interner.Intern(key, PartitionKeyHash(key));
  }
  events_processed_ = events_processed;
  return Status::OK();
}

}  // namespace exstream
