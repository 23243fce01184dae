#include "cep/match_table.h"

#include <algorithm>

#include "common/strings.h"
#include "event/codec.h"

namespace exstream {

Result<size_t> MatchTable::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (column_names_[i] == name) return i;
  }
  return Status::NotFound(StrFormat("no match column '%.*s'",
                                    static_cast<int>(name.size()), name.data()));
}

size_t MatchTable::FindLocked(std::string_view partition) const {
  auto it = index_.find(partition);
  return it == index_.end() ? buckets_.size() : it->second;
}

uint32_t MatchTable::EnsureBucket(std::string_view partition) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(partition);
  if (it != index_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(buckets_.size());
  buckets_.emplace_back();
  buckets_.back().key = std::string(partition);
  index_.emplace(std::string_view(buckets_.back().key), id);
  return id;
}

void MatchTable::Append(uint32_t bucket, const MatchRow& row) {
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& b = buckets_[bucket];
  b.ts.push_back(row.ts);
  b.cells.insert(b.cells.end(), row.values.begin(), row.values.end());
  b.ends.push_back(static_cast<uint32_t>(b.cells.size()));
}

void MatchTable::Append(const std::string& partition, const MatchRow& row) {
  Append(EnsureBucket(partition), row);
}

void MatchTable::MarkComplete(uint32_t bucket) {
  std::lock_guard<std::mutex> lock(mu_);
  buckets_[bucket].complete = true;
}

void MatchTable::MarkComplete(const std::string& partition) {
  MarkComplete(EnsureBucket(partition));
}

bool MatchTable::IsComplete(const std::string& partition) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t i = FindLocked(partition);
  if (i >= buckets_.size()) return false;
  return buckets_[i].complete;
}

std::vector<std::string> MatchTable::BucketKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(buckets_.size());
  for (const Bucket& b : buckets_) out.push_back(b.key);
  return out;
}

std::vector<std::string> MatchTable::Partitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(buckets_.size());
  for (const Bucket& b : buckets_) {
    // Buckets are pre-registered at partition-intern time; only partitions
    // that actually produced rows are listed (matching the pre-bucket API).
    if (!b.ts.empty()) out.push_back(b.key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<MatchRow> MatchTable::Rows(const std::string& partition) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t i = FindLocked(partition);
  if (i >= buckets_.size()) return {};
  const Bucket& b = buckets_[i];
  std::vector<MatchRow> out(b.ts.size());
  for (size_t r = 0; r < b.ts.size(); ++r) {
    const size_t begin = r == 0 ? 0 : b.ends[r - 1];
    out[r].ts = b.ts[r];
    out[r].values.assign(b.cells.begin() + static_cast<ptrdiff_t>(begin),
                         b.cells.begin() + static_cast<ptrdiff_t>(b.ends[r]));
  }
  return out;
}

size_t MatchTable::NumRows(const std::string& partition) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t i = FindLocked(partition);
  if (i >= buckets_.size()) return 0;
  return buckets_[i].ts.size();
}

size_t MatchTable::TotalRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Bucket& b : buckets_) n += b.ts.size();
  return n;
}

Result<TimeSeries> MatchTable::ExtractSeries(const std::string& partition,
                                             std::string_view column) const {
  EXSTREAM_ASSIGN_OR_RETURN(const size_t col, ColumnIndex(column));
  std::lock_guard<std::mutex> lock(mu_);
  const size_t i = FindLocked(partition);
  if (i >= buckets_.size()) {
    return Status::NotFound("no match rows for partition '" + partition + "'");
  }
  const Bucket& b = buckets_[i];
  TimeSeries out;
  for (size_t r = 0; r < b.ts.size(); ++r) {
    const size_t begin = r == 0 ? 0 : b.ends[r - 1];
    if (begin + col >= b.ends[r]) continue;  // row too narrow for this column
    EXSTREAM_RETURN_NOT_OK(out.Append(b.ts[r], b.cells[begin + col].AsDouble()));
  }
  return out;
}

void MatchTable::SaveState(BytesWriter* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->Put<uint32_t>(static_cast<uint32_t>(buckets_.size()));
  for (const Bucket& b : buckets_) {
    out->PutString(b.key);
    out->Put<uint8_t>(b.complete ? 1 : 0);
    out->PutPodVector(b.ts);
    out->Put<uint32_t>(static_cast<uint32_t>(b.cells.size()));
    for (const Value& v : b.cells) PutValue(out, v);
    out->PutPodVector(b.ends);
  }
}

Status MatchTable::RestoreState(BytesReader* in) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!buckets_.empty()) {
    return Status::InvalidArgument("match table must be empty before restore");
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_buckets, in->Get<uint32_t>());
  for (uint32_t i = 0; i < n_buckets; ++i) {
    Bucket b;
    EXSTREAM_ASSIGN_OR_RETURN(b.key, in->GetString());
    EXSTREAM_ASSIGN_OR_RETURN(const uint8_t complete, in->Get<uint8_t>());
    b.complete = complete != 0;
    EXSTREAM_RETURN_NOT_OK(in->GetPodVector(&b.ts));
    EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_cells, in->Get<uint32_t>());
    // Each cell takes at least one byte: never reserve past the buffer.
    b.cells.reserve(std::min<size_t>(n_cells, in->remaining()));
    for (uint32_t c = 0; c < n_cells; ++c) {
      EXSTREAM_ASSIGN_OR_RETURN(Value v, GetValue(in));
      b.cells.push_back(std::move(v));
    }
    EXSTREAM_RETURN_NOT_OK(in->GetPodVector(&b.ends));
    // Rows(), ExtractSeries() and Append() index cells through ends: one end
    // per row, non-decreasing, the last one closing the cell vector.
    bool framed = b.ends.size() == b.ts.size() &&
                  (b.ends.empty() ? b.cells.empty() : b.ends.back() == b.cells.size());
    for (size_t r = 1; framed && r < b.ends.size(); ++r) {
      framed = b.ends[r - 1] <= b.ends[r];
    }
    if (!framed) {
      return Status::Corruption(StrFormat(
          "match table bucket %u ('%s'): %zu row ends do not frame %zu rows of "
          "%zu cells",
          i, b.key.c_str(), b.ends.size(), b.ts.size(), b.cells.size()));
    }
    if (index_.count(b.key) != 0) {
      return Status::Corruption(
          StrFormat("match table snapshot repeats partition '%s'", b.key.c_str()));
    }
    buckets_.push_back(std::move(b));
    index_.emplace(std::string_view(buckets_.back().key),
                   static_cast<uint32_t>(buckets_.size() - 1));
  }
  return Status::OK();
}

}  // namespace exstream
