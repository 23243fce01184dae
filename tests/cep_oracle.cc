#include "cep_oracle.h"

#include "common/strings.h"
#include "query/parser.h"

namespace exstream {

Result<QueryId> CepOracle::AddQueryText(std::string_view text, std::string name) {
  EXSTREAM_ASSIGN_OR_RETURN(Query q, ParseQuery(text, std::move(name)));
  EXSTREAM_ASSIGN_OR_RETURN(CompiledQuery cq, CompiledQuery::Compile(q, registry_));
  queries_.push_back(std::make_unique<QueryState>(std::move(cq)));
  queries_.back()->added_mid_stream = events_processed_ > 0;
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

void CepOracle::SaveState(BytesWriter* out) const {
  out->Put<uint64_t>(events_processed_);
  out->Put<uint32_t>(static_cast<uint32_t>(queries_.size()));
  for (const auto& qs : queries_) out->Put<uint8_t>(qs->added_mid_stream ? 1 : 0);
  for (const auto& qs : queries_) {
    out->Put<uint32_t>(static_cast<uint32_t>(qs->keys.size()));
    for (const std::string& key : qs->keys) out->PutString(key);
    out->PutPodVector(qs->buckets);
    for (const QueryRun& run : qs->runs) run.SaveState(out);
    qs->matches.SaveState(out);
  }
}

Status CepOracle::RestoreState(BytesReader* in) {
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t events_processed, in->Get<uint64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_queries, in->Get<uint32_t>());
  if (n_queries != queries_.size()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot holds %u queries, oracle has %zu", n_queries, queries_.size()));
  }
  for (auto& qs : queries_) {
    EXSTREAM_ASSIGN_OR_RETURN(const uint8_t mid_stream, in->Get<uint8_t>());
    qs->added_mid_stream = mid_stream != 0;
  }
  for (auto& qs : queries_) {
    if (!qs->keys.empty() || qs->matches.TotalRows() != 0) {
      return Status::InvalidArgument("oracle must be fresh before restore");
    }
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_keys, in->Get<uint32_t>());
    for (uint32_t i = 0; i < n_keys; ++i) {
      EXSTREAM_ASSIGN_OR_RETURN(std::string key, in->GetString());
      if (!qs->ids.emplace(key, i).second) {
        return Status::Corruption("duplicate partition key in snapshot");
      }
      qs->keys.push_back(std::move(key));
    }
    EXSTREAM_RETURN_NOT_OK(in->GetPodVector(&qs->buckets));
    if (qs->buckets.size() != n_keys) {
      return Status::Corruption("snapshot bucket map does not match its keys");
    }
    for (uint32_t i = 0; i < n_keys; ++i) {
      qs->runs.emplace_back(&qs->compiled);
      EXSTREAM_RETURN_NOT_OK(qs->runs.back().RestoreState(in));
    }
    EXSTREAM_RETURN_NOT_OK(qs->matches.RestoreState(in));
  }
  events_processed_ = events_processed;
  return Status::OK();
}

}  // namespace exstream
