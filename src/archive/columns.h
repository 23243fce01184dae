// Columnar chunk storage: the read-optimized layout behind archive scans.
//
// The explanation hot path replays archived intervals and folds them into
// features; what it actually reads is, per (type, attribute) pair, the ts
// column and one attribute's numeric view. Storing sealed chunks as typed
// columns (MonetDB/X100-style) makes that access pattern a contiguous array
// walk, and lets scans return pinned column *views* instead of materialized
// `std::vector<Event>` copies.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "event/event.h"
#include "event/schema.h"

namespace exstream {

/// Per-row value tag marking an attribute the event did not carry (an event
/// may have fewer values than the widest event of its chunk).
inline constexpr uint8_t kMissingValueTag = 0xFF;

/// \brief One attribute of a chunk, decomposed by value kind.
///
/// `tags` and `nums` are per-row: `nums[i]` is the row's numeric view
/// (AsDouble — NaN for strings and missing values), which is exactly what
/// feature generation consumes, as a contiguous double array. Exact values
/// are kept densely per kind (`ints` holds only the int64-tagged rows in row
/// order, `str_ids` only the string-tagged rows), so row materialization and
/// serialization stay lossless without padding every kind to full length.
struct AttributeColumn {
  ValueType declared = ValueType::kDouble;  ///< schema-declared kind
  std::vector<uint8_t> tags;   ///< per row: ValueType or kMissingValueTag
  std::vector<double> nums;    ///< per row: AsDouble view (NaN if not numeric)
  std::vector<int64_t> ints;   ///< dense: int64-tagged rows, in row order
  std::vector<uint32_t> str_ids;  ///< dense: string-tagged rows, in row order
  std::vector<std::string> dict;  ///< string dictionary (first-seen order)

  /// Dense cursor positions of `ints` / `str_ids` for the given first row.
  /// O(row) tag walk; used by row materialization only.
  std::pair<size_t, size_t> DenseOffsetsAt(size_t row) const;
};

/// \brief A chunk's events in columnar form: one sorted ts column plus one
/// AttributeColumn per schema attribute.
///
/// Open chunks append in place (externally synchronized, like the row layout
/// before it); once sealed the structure is immutable and can be shared
/// across scan snapshots via `shared_ptr<const ChunkColumns>` with no copying.
class ChunkColumns {
 public:
  ChunkColumns() = default;
  /// Pre-declares one column per schema attribute (events may still widen the
  /// set; unseen trailing attributes are backfilled as missing).
  ChunkColumns(EventTypeId type, const EventSchema* schema);

  EventTypeId type() const { return type_; }
  size_t rows() const { return ts_.size(); }
  size_t num_columns() const { return attrs_.size(); }

  const std::vector<Timestamp>& ts() const { return ts_; }
  const AttributeColumn& attr(size_t i) const { return attrs_[i]; }
  const std::vector<AttributeColumn>& attrs() const { return attrs_; }

  /// Appends one event's values across the columns. The caller has already
  /// validated type and time order (Chunk::Append).
  void AppendEvent(const Event& event);

  /// Reserves row capacity across the ts and per-row column vectors.
  void Reserve(size_t n);

  /// Drops append-only scaffolding (dictionary hash index) and shrinks the
  /// column vectors; called when the owning chunk seals.
  void SealStorage();

  /// Row range [first, second) with ts inside [interval.lower, interval.upper],
  /// by binary search on the sorted ts column.
  std::pair<size_t, size_t> RowRange(const TimeInterval& interval) const;

  /// Lossless reconstruction of row `i` as an Event (row materialization).
  /// `int_off`/`str_off` are the dense cursors for row i (see DenseOffsetsAt)
  /// and are advanced past the row's values.
  Event MaterializeRow(size_t i, size_t* int_off, size_t* str_off) const;

  /// Appends rows [lo, hi) to `out` as Events.
  void MaterializeRows(size_t lo, size_t hi, std::vector<Event>* out) const;

  /// Deep copy of rows [lo, hi) — used to snapshot the mutable open tail of a
  /// chunk under the shard lock. The dictionary is copied whole (ids stay
  /// valid); dense vectors are trimmed to the range.
  ChunkColumns Slice(size_t lo, size_t hi) const;

  /// Builds columns from a row vector (v1/v2 spill-file loads). All events
  /// must share one type; mixed types mean the buffer was not a chunk spill.
  static Result<ChunkColumns> FromRows(const std::vector<Event>& events);

  /// Serialization needs mutable access when rebuilding the struct.
  std::vector<Timestamp>* mutable_ts() { return &ts_; }
  std::vector<AttributeColumn>* mutable_attrs() { return &attrs_; }
  void set_type(EventTypeId type) { type_ = type; }

 private:
  uint32_t InternString(size_t col, const std::string& s);

  EventTypeId type_ = kInvalidEventType;
  std::vector<Timestamp> ts_;
  std::vector<AttributeColumn> attrs_;
  /// Per-column dictionary index; only consulted while the chunk is open.
  std::vector<std::unordered_map<std::string, uint32_t>> dict_index_;
};

struct TierColumns;  // archive/tiers.h

/// \brief Zero-copy result of a columnar archive scan.
///
/// A view is a list of segments, each pinning one chunk's immutable columns
/// (shared snapshot) plus the row range that falls inside the scanned
/// interval. Sealed resident chunks are shared without copying; spilled
/// chunks are deserialized straight into columns owned by the view; the open
/// tail is the one copied segment (it is still mutating under the shard
/// lock). Segments are in chunk order, so concatenating them yields the same
/// time-ordered rows the row-materializing EventArchive::Scan returns.
///
/// A resolution-aware scan (EventArchive::ScanColumns with resolution > 0)
/// may answer a sealed chunk from a downsampled tier instead of raw rows: the
/// chunk then contributes a TierSegment (pre-aggregated windows, no disk
/// read) rather than a raw Segment. The two segment lists interleave in chunk
/// order via the `order` field, so a consumer folding both sees windows and
/// rows in global time order.
///
/// Lifetime: a segment's columns stay valid (and immutable) for as long as
/// the view is alive, even if the archive spills or seals the chunk
/// meanwhile — the shared_ptr pins the snapshot, exactly like the row
/// snapshot handles before it. A TierSegment's pointer aliases the chunk's
/// immutable ChunkTiers the same way.
struct ScanView {
  struct Segment {
    std::shared_ptr<const ChunkColumns> columns;
    size_t begin = 0;  ///< first in-range row
    size_t end = 0;    ///< one past the last in-range row
    size_t order = 0;  ///< chunk position among all segments of the view
    size_t size() const { return end - begin; }
  };

  /// One chunk answered from a downsampled tier (archive/tiers.h).
  struct TierSegment {
    std::shared_ptr<const TierColumns> tier;  ///< aliases the chunk's tiers
    size_t begin = 0;  ///< first in-range window
    size_t end = 0;    ///< one past the last in-range window
    size_t order = 0;  ///< chunk position among all segments of the view
    size_t size() const { return end - begin; }
  };

  std::vector<Segment> segments;
  std::vector<TierSegment> tier_segments;

  /// Total in-range raw rows across all raw segments (tier windows are not
  /// rows and do not count).
  size_t rows() const;
  bool empty() const { return rows() == 0 && tier_segments.empty(); }

  /// Materializes every in-range raw row, in order — EventArchive::Scan's
  /// output.
  /// Tier segments cannot be materialized as events and must be empty when a
  /// caller needs exact rows (scans with resolution 0 never produce them).
  void MaterializeEvents(std::vector<Event>* out) const;
};

}  // namespace exstream
