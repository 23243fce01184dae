// MatchTable: the relational table T_MQ of returned match events (Sec. 2.1).
//
// "All returned events of M_Q are stored in a relational table T_MQ, and the
//  data to be visualized for a particular partition is specified as
//  pi_{t,attr_i}(sigma_{partitionAttribute=v}(M))."
//
// Storage is bucketed by interned partition id: the engine registers each
// partition once (EnsureBucket) and then appends rows by dense id — no
// string hashing or map walk per row. Inside a bucket the rows are stored
// column-flat (one timestamp vector plus one row-major cell vector), so an
// append never allocates a per-row values vector and ExtractSeries — the
// visualization read path — is a strided scan. The string-keyed read API
// (visualization, benches, tests) is unchanged; MatchRow remains the
// row-exchange type.

#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "event/event.h"
#include "ts/time_series.h"

namespace exstream {

/// \brief One returned match event: timestamp plus derived attribute values
/// in RETURN-clause order.
struct MatchRow {
  Timestamp ts = 0;
  std::vector<Value> values;
};

/// \brief All match rows of one query, grouped by partition value.
///
/// Thread-safe; the visualization/bench side reads while the engine appends.
class MatchTable {
 public:
  explicit MatchTable(std::vector<std::string> column_names)
      : column_names_(std::move(column_names)) {}

  const std::vector<std::string>& column_names() const { return column_names_; }

  Result<size_t> ColumnIndex(std::string_view name) const;

  /// \brief Returns the dense bucket id for `partition`, creating the bucket
  /// if unseen. Ids are assigned in first-call order.
  uint32_t EnsureBucket(std::string_view partition);

  /// Appends one row to a bucket previously returned by EnsureBucket.
  void Append(uint32_t bucket, const MatchRow& row);

  /// String-keyed append (convenience for tests / non-hot-path callers).
  void Append(const std::string& partition, const MatchRow& row);

  /// Marks a partition's pattern match as completed (JobEnd seen).
  void MarkComplete(uint32_t bucket);
  void MarkComplete(const std::string& partition);
  bool IsComplete(const std::string& partition) const;

  /// Keys of every bucket in bucket-id order, row-less buckets included.
  std::vector<std::string> BucketKeys() const;

  /// Partition keys present in the table, sorted.
  std::vector<std::string> Partitions() const;

  /// Rows of one partition in arrival order (copy; the engine keeps writing).
  std::vector<MatchRow> Rows(const std::string& partition) const;

  size_t NumRows(const std::string& partition) const;
  size_t TotalRows() const;

  /// \brief pi_{t,column}(sigma_{partition=v}): the visualization series for
  /// one derived attribute of one partition (e.g. Fig. 1's queuing size).
  Result<TimeSeries> ExtractSeries(const std::string& partition,
                                   std::string_view column) const;

  /// \brief Serializes every bucket — keys in id order, rows, completion —
  /// for a checkpoint manifest. Takes the table lock.
  void SaveState(BytesWriter* out) const;

  /// \brief Restores a SaveState snapshot into an empty table (bucket ids
  /// come back identical, so interned partition ids stay valid). Corruption
  /// on a duplicate key or row offsets that do not frame the bucket's cells.
  Status RestoreState(BytesReader* in);

 private:
  /// Column-flat row storage: ts_[i] pairs with cells_[ends[i-1]..ends[i]).
  /// Rows are ragged in principle (test convenience appends), so per-row end
  /// offsets are kept instead of assuming column_names_.size() cells per row.
  struct Bucket {
    std::string key;
    bool complete = false;
    std::vector<Timestamp> ts;
    std::vector<Value> cells;
    std::vector<uint32_t> ends;
  };

  struct StringViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Bucket index for `partition`, or buckets_.size() if absent. Caller locks.
  size_t FindLocked(std::string_view partition) const;

  std::vector<std::string> column_names_;
  mutable std::mutex mu_;
  std::deque<Bucket> buckets_;  // deque: bucket.key views in index_ never move
  std::unordered_map<std::string_view, uint32_t, StringViewHash, std::equal_to<>>
      index_;  // views into buckets_[i].key
};

}  // namespace exstream
