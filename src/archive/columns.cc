#include "archive/columns.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace exstream {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Rows tagged `type` in [first, last); 0 without a walk when the column holds
// no dense values of that kind (`dense` is its dense vector).
template <typename Dense>
size_t CountTag(const Dense& dense, std::vector<uint8_t>::const_iterator first,
                std::vector<uint8_t>::const_iterator last, ValueType type) {
  if (dense.empty()) return 0;
  return static_cast<size_t>(std::count(first, last, static_cast<uint8_t>(type)));
}

}  // namespace

std::pair<size_t, size_t> AttributeColumn::DenseOffsetsAt(size_t row) const {
  const auto end = tags.begin() + static_cast<std::ptrdiff_t>(row);
  return {CountTag(ints, tags.begin(), end, ValueType::kInt64),
          CountTag(str_ids, tags.begin(), end, ValueType::kString)};
}

ChunkColumns::ChunkColumns(EventTypeId type, const EventSchema* schema)
    : type_(type) {
  if (schema == nullptr) return;
  attrs_.resize(schema->num_attributes());
  dict_index_.resize(attrs_.size());
  for (size_t i = 0; i < attrs_.size(); ++i) {
    attrs_[i].declared = schema->attributes()[i].type;
  }
}

uint32_t ChunkColumns::InternString(size_t col, const std::string& s) {
  if (dict_index_.size() < attrs_.size()) dict_index_.resize(attrs_.size());
  auto& index = dict_index_[col];
  std::vector<std::string>& dict = attrs_[col].dict;
  if (index.empty() && !dict.empty()) {
    // Slices and restored checkpoints come without the index; rebuild it
    // before the first append so known strings keep their ids.
    for (uint32_t id = 0; id < dict.size(); ++id) index.emplace(dict[id], id);
  }
  // Look up before inserting: emplace would build a key string every call.
  if (const auto it = index.find(s); it != index.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(dict.size());
  index.emplace(s, id);
  dict.push_back(s);
  return id;
}

void ChunkColumns::AppendEvent(const Event& event) {
  const size_t prior_rows = ts_.size();
  if (event.values.size() > attrs_.size()) {
    // A wider event than any seen so far: add columns, backfilling every
    // earlier row as missing.
    attrs_.resize(event.values.size());
    for (AttributeColumn& col : attrs_) {
      if (col.tags.size() < prior_rows) {
        col.tags.resize(prior_rows, kMissingValueTag);
        col.nums.resize(prior_rows, kNaN);
      }
    }
  }
  ts_.push_back(event.ts);
  for (size_t j = 0; j < attrs_.size(); ++j) {
    AttributeColumn& col = attrs_[j];
    if (j >= event.values.size()) {
      col.tags.push_back(kMissingValueTag);
      col.nums.push_back(kNaN);
      continue;
    }
    const Value& v = event.values[j];
    col.tags.push_back(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case ValueType::kInt64:
        col.ints.push_back(v.AsInt64());
        col.nums.push_back(v.AsDouble());
        break;
      case ValueType::kDouble:
        col.nums.push_back(v.AsDouble());
        break;
      case ValueType::kString:
        col.str_ids.push_back(InternString(j, v.AsString()));
        col.nums.push_back(kNaN);
        break;
    }
  }
}

void ChunkColumns::Reserve(size_t n) {
  ts_.reserve(n);
  for (AttributeColumn& col : attrs_) {
    col.tags.reserve(n);
    col.nums.reserve(n);
  }
}

void ChunkColumns::Clear(EventTypeId type) {
  type_ = type;
  ts_.clear();
  for (AttributeColumn& col : attrs_) {
    col.tags.clear();
    col.nums.clear();
    col.ints.clear();
    col.str_ids.clear();
    col.dict.clear();
  }
  for (auto& index : dict_index_) index.clear();
}

void ChunkColumns::SealStorage() {
  dict_index_.clear();
  dict_index_.shrink_to_fit();
  ts_.shrink_to_fit();
  for (AttributeColumn& col : attrs_) {
    col.tags.shrink_to_fit();
    col.nums.shrink_to_fit();
    col.ints.shrink_to_fit();
    col.str_ids.shrink_to_fit();
    col.dict.shrink_to_fit();
  }
}

std::pair<size_t, size_t> ChunkColumns::RowRange(const TimeInterval& interval) const {
  const auto lo = std::lower_bound(ts_.begin(), ts_.end(), interval.lower);
  const auto hi = std::upper_bound(lo, ts_.end(), interval.upper);
  return {static_cast<size_t>(lo - ts_.begin()),
          static_cast<size_t>(hi - ts_.begin())};
}

Event ChunkColumns::MaterializeRow(size_t i, size_t* int_off, size_t* str_off) const {
  Event e;
  e.type = type_;
  e.ts = ts_[i];
  // Missing tags are always a row suffix (events carry value prefixes), so
  // the first missing column ends the row's values.
  size_t nvals = 0;
  while (nvals < attrs_.size() && attrs_[nvals].tags[i] != kMissingValueTag) {
    ++nvals;
  }
  e.values.reserve(nvals);
  for (size_t j = 0; j < nvals; ++j) {
    const AttributeColumn& col = attrs_[j];
    switch (static_cast<ValueType>(col.tags[i])) {
      case ValueType::kInt64:
        e.values.emplace_back(col.ints[int_off[j]++]);
        break;
      case ValueType::kDouble:
        e.values.emplace_back(col.nums[i]);
        break;
      case ValueType::kString:
        e.values.emplace_back(col.dict[col.str_ids[str_off[j]++]]);
        break;
    }
  }
  return e;
}

void ChunkColumns::MaterializeRows(size_t lo, size_t hi,
                                   std::vector<Event>* out) const {
  if (lo >= hi) return;
  // Dense cursors per column, positioned at row `lo` once, then advanced
  // row by row.
  std::vector<size_t> int_off(attrs_.size(), 0);
  std::vector<size_t> str_off(attrs_.size(), 0);
  for (size_t j = 0; j < attrs_.size(); ++j) {
    const auto [io, so] = attrs_[j].DenseOffsetsAt(lo);
    int_off[j] = io;
    str_off[j] = so;
  }
  out->reserve(out->size() + (hi - lo));
  for (size_t i = lo; i < hi; ++i) {
    out->push_back(MaterializeRow(i, int_off.data(), str_off.data()));
  }
}

ChunkColumns ChunkColumns::Slice(size_t lo, size_t hi) const {
  ChunkColumns out;
  out.type_ = type_;
  if (lo >= hi) return out;
  out.ts_.assign(ts_.begin() + lo, ts_.begin() + hi);
  out.attrs_.resize(attrs_.size());
  for (size_t j = 0; j < attrs_.size(); ++j) {
    const AttributeColumn& src = attrs_[j];
    AttributeColumn& dst = out.attrs_[j];
    dst.declared = src.declared;
    dst.tags.assign(src.tags.begin() + lo, src.tags.begin() + hi);
    dst.nums.assign(src.nums.begin() + lo, src.nums.begin() + hi);
    // Dense cursors at `lo`, then only the slice's own tags are counted.
    const auto [int_lo, str_lo] = src.DenseOffsetsAt(lo);
    const size_t int_hi =
        int_lo + CountTag(src.ints, dst.tags.begin(), dst.tags.end(), ValueType::kInt64);
    const size_t str_hi = str_lo + CountTag(src.str_ids, dst.tags.begin(),
                                            dst.tags.end(), ValueType::kString);
    dst.ints.assign(src.ints.begin() + int_lo, src.ints.begin() + int_hi);
    // The dictionary keeps only the strings these rows use, renumbered in
    // first-seen order, so repeated compaction cannot grow it.
    if (str_hi == str_lo) continue;
    constexpr uint32_t kUnmapped = std::numeric_limits<uint32_t>::max();
    std::vector<uint32_t> remap(src.dict.size(), kUnmapped);
    dst.str_ids.reserve(str_hi - str_lo);
    for (size_t k = str_lo; k < str_hi; ++k) {
      uint32_t& id = remap[src.str_ids[k]];
      if (id == kUnmapped) {
        id = static_cast<uint32_t>(dst.dict.size());
        dst.dict.push_back(src.dict[src.str_ids[k]]);
      }
      dst.str_ids.push_back(id);
    }
  }
  return out;
}

size_t ScanView::rows() const {
  size_t n = 0;
  for (const Segment& seg : segments) n += seg.size();
  return n;
}

void ScanView::MaterializeEvents(std::vector<Event>* out) const {
  for (const Segment& seg : segments) {
    seg.columns->MaterializeRows(seg.begin, seg.end, out);
  }
}

}  // namespace exstream
