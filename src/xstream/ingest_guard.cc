#include "xstream/ingest_guard.h"

#include <algorithm>
#include <cmath>

#include "archive/serialization.h"
#include "common/logging.h"
#include "common/strings.h"
#include "event/codec.h"
#include "io/file_util.h"
#include "io/quarantine_dir.h"

namespace exstream {

namespace {

constexpr Timestamp kTsMin = std::numeric_limits<Timestamp>::min();
constexpr Timestamp kTsMax = std::numeric_limits<Timestamp>::max();

bool TimestampOrder(const Event& a, const Event& b) { return a.ts < b.ts; }

}  // namespace

std::string RejectReport::ToString() const {
  if (total() == 0) return "no rejects";
  std::string out = StrFormat("%zu rejected (", total());
  const char* sep = "";
  auto add = [&](size_t n, const char* label) {
    if (n == 0) return;
    out += StrFormat("%s%zu %s", sep, n, label);
    sep = ", ";
  };
  add(unknown_type, "unknown type");
  add(arity_mismatch, "arity mismatch");
  add(value_kind_mismatch, "value kind mismatch");
  add(non_finite, "non-finite value");
  add(invalid_timestamp, "invalid timestamp");
  add(late, "late");
  out += ")";
  return out;
}

IngestGuard::IngestGuard(const EventTypeRegistry* registry,
                         IngestGuardOptions options)
    : registry_(registry), options_(std::move(options)) {}

IngestGuard::~IngestGuard() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushRejectLogLocked();
}

bool IngestGuard::Validate(const Event& event, RejectReason* why) const {
  if (event.ts == kTsMin || event.ts == kTsMax) {
    *why = RejectReason::kInvalidTimestamp;
    return false;
  }
  if (event.type >= registry_->size()) {
    *why = RejectReason::kUnknownType;
    return false;
  }
  const EventSchema& schema = registry_->schema(event.type);
  if (event.values.size() != schema.num_attributes()) {
    *why = RejectReason::kArityMismatch;
    return false;
  }
  const auto& attrs = schema.attributes();
  for (size_t i = 0; i < attrs.size(); ++i) {
    const Value& v = event.values[i];
    const bool want_string = attrs[i].type == ValueType::kString;
    if (v.is_string() != want_string) {
      *why = RejectReason::kValueKindMismatch;
      return false;
    }
    if (v.type() == ValueType::kDouble && !std::isfinite(v.AsDouble())) {
      *why = RejectReason::kNonFiniteValue;
      return false;
    }
  }
  return true;
}

void IngestGuard::Reject(const Event& event, RejectReason why) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (why) {
    case RejectReason::kUnknownType:
      ++report_.unknown_type;
      break;
    case RejectReason::kArityMismatch:
      ++report_.arity_mismatch;
      break;
    case RejectReason::kValueKindMismatch:
      ++report_.value_kind_mismatch;
      break;
    case RejectReason::kNonFiniteValue:
      ++report_.non_finite;
      break;
    case RejectReason::kInvalidTimestamp:
      ++report_.invalid_timestamp;
      break;
    case RejectReason::kLate:
      ++report_.late;
      break;
  }
  if (!options_.reject_dir.has_value()) return;
  reject_buffer_.push_back(event);
  if (reject_buffer_.size() >= options_.reject_file_events) {
    FlushRejectLogLocked();
  }
}

void IngestGuard::FlushRejectLogLocked() {
  if (reject_buffer_.empty() || !options_.reject_dir.has_value()) return;
  const std::string& dir = *options_.reject_dir;
  Status st = EnsureDir(dir);
  if (st.ok()) {
    const std::string path =
        StrFormat("%s/rejects-%06zu.quarantine", dir.c_str(), reject_file_seq_);
    st = WriteEventsFile(path, reject_buffer_);
  }
  if (st.ok()) {
    ++reject_file_seq_;
    ++report_.reject_files_written;
    auto evicted = EnforceQuarantineCap(dir, options_.max_reject_files);
    if (evicted.ok()) {
      report_.reject_file_evictions += *evicted;
    } else {
      EXSTREAM_LOG(Warn) << "quarantine cap enforcement failed: "
                         << evicted.status().ToString();
    }
  } else {
    EXSTREAM_LOG(Warn) << "failed to write reject quarantine log: "
                       << st.ToString();
  }
  // Dropped either way: the quarantine log is best-effort, the counters are
  // the durable signal.
  reject_buffer_.clear();
}

EventBatch IngestGuard::Admit(EventBatch batch) {
  if (!options_.validate && !options_.lateness_slack.has_value()) {
    return batch;  // passthrough: nothing to check, nothing to reorder
  }
  EventBatch kept;
  kept.reserve(batch.size());
  RejectReason why;
  for (Event& e : batch) {
    if (options_.validate && !Validate(e, &why)) {
      Reject(e, why);
      continue;
    }
    kept.push_back(std::move(e));
  }
  if (!options_.lateness_slack.has_value()) return kept;

  const Timestamp slack = *options_.lateness_slack;
  for (Event& e : kept) {
    if (e.ts < last_released_) {
      Reject(e, RejectReason::kLate);
      continue;
    }
    if (e.ts > watermark_) watermark_ = e.ts;
    buffer_.push_back(std::move(e));
  }
  // Release the prefix that can no longer be reordered past: everything at
  // least `slack` behind the newest timestamp seen. Saturate the threshold so
  // a huge slack near the timestamp floor cannot wrap.
  std::stable_sort(buffer_.begin(), buffer_.end(), TimestampOrder);
  size_t release = 0;
  if (watermark_ >= kTsMin + slack) {
    const Timestamp threshold = watermark_ - slack;
    while (release < buffer_.size() && buffer_[release].ts <= threshold) {
      ++release;
    }
  }
  EventBatch out(std::make_move_iterator(buffer_.begin()),
                 std::make_move_iterator(buffer_.begin() + release));
  buffer_.erase(buffer_.begin(), buffer_.begin() + release);
  if (!out.empty()) last_released_ = out.back().ts;
  return out;
}

EventBatch IngestGuard::Drain() {
  std::stable_sort(buffer_.begin(), buffer_.end(), TimestampOrder);
  EventBatch out = std::move(buffer_);
  buffer_.clear();
  if (!out.empty()) last_released_ = out.back().ts;
  std::lock_guard<std::mutex> lock(mu_);
  FlushRejectLogLocked();
  return out;
}

RejectReport IngestGuard::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

void IngestGuard::SaveState(BytesWriter* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->Put<int64_t>(watermark_);
  out->Put<int64_t>(last_released_);
  out->Put<uint32_t>(static_cast<uint32_t>(buffer_.size()));
  for (const Event& e : buffer_) PutEvent(out, e);
  out->Put<uint64_t>(report_.unknown_type);
  out->Put<uint64_t>(report_.arity_mismatch);
  out->Put<uint64_t>(report_.value_kind_mismatch);
  out->Put<uint64_t>(report_.non_finite);
  out->Put<uint64_t>(report_.invalid_timestamp);
  out->Put<uint64_t>(report_.late);
  out->Put<uint64_t>(reject_file_seq_);
}

Status IngestGuard::RestoreState(BytesReader* in) {
  std::lock_guard<std::mutex> lock(mu_);
  EXSTREAM_ASSIGN_OR_RETURN(watermark_, in->Get<int64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(last_released_, in->Get<int64_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_buffered, in->Get<uint32_t>());
  buffer_.clear();
  buffer_.reserve(n_buffered);
  for (uint32_t i = 0; i < n_buffered; ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(Event e, GetEvent(in));
    buffer_.push_back(std::move(e));
  }
  auto get_count = [&](size_t* field) -> Status {
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t v, in->Get<uint64_t>());
    *field = static_cast<size_t>(v);
    return Status::OK();
  };
  EXSTREAM_RETURN_NOT_OK(get_count(&report_.unknown_type));
  EXSTREAM_RETURN_NOT_OK(get_count(&report_.arity_mismatch));
  EXSTREAM_RETURN_NOT_OK(get_count(&report_.value_kind_mismatch));
  EXSTREAM_RETURN_NOT_OK(get_count(&report_.non_finite));
  EXSTREAM_RETURN_NOT_OK(get_count(&report_.invalid_timestamp));
  EXSTREAM_RETURN_NOT_OK(get_count(&report_.late));
  EXSTREAM_RETURN_NOT_OK(get_count(&reject_file_seq_));
  return Status::OK();
}

}  // namespace exstream
