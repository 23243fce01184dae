// Test helpers: capture everything an observer of a CEP evaluator can see —
// per-query MatchTables, the match-callback sequence and, for the engine, the
// SaveState bytes — and compare the engine's capture against the reference
// oracle's or another engine's.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "cep/engine.h"
#include "cep_oracle.h"
#include "common/strings.h"

namespace exstream {

// A deep copy of one MatchNotification, safe to compare after the fact.
struct NoteCopy {
  QueryId query;
  uint32_t partition_id;
  std::string partition;
  Timestamp ts;
  std::vector<Value> values;
  bool complete;

  static NoteCopy From(const MatchNotification& n) {
    return NoteCopy{n.query,  n.partition_id, std::string(n.partition),
                    n.row.ts, n.row.values,   n.complete};
  }
  bool operator==(const NoteCopy& o) const {
    return query == o.query && partition_id == o.partition_id &&
           partition == o.partition && ts == o.ts && values == o.values &&
           complete == o.complete;
  }
};

// Snapshot of one query's match table: partition list order included.
struct TableCopy {
  std::vector<std::string> partitions;
  std::vector<std::vector<MatchRow>> rows;
  std::vector<bool> complete;

  static TableCopy From(const MatchTable& t) {
    TableCopy c;
    c.partitions = t.Partitions();
    for (const std::string& p : c.partitions) {
      c.rows.push_back(t.Rows(p));
      c.complete.push_back(t.IsComplete(p));
    }
    return c;
  }
};

inline void ExpectTablesEqual(const TableCopy& a, const TableCopy& b,
                              const std::string& label) {
  ASSERT_EQ(a.partitions, b.partitions) << label;
  ASSERT_EQ(a.complete, b.complete) << label;
  for (size_t p = 0; p < a.partitions.size(); ++p) {
    const auto& ra = a.rows[p];
    const auto& rb = b.rows[p];
    ASSERT_EQ(ra.size(), rb.size()) << label << " partition " << a.partitions[p];
    for (size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i].ts, rb[i].ts) << label << " " << a.partitions[p] << "#" << i;
      ASSERT_EQ(ra[i].values, rb[i].values)
          << label << " " << a.partitions[p] << "#" << i;
    }
  }
}

// What an evaluator left behind after a run.
struct CepCapture {
  std::vector<TableCopy> tables;  // one per query, in id order
  std::vector<NoteCopy> notes;    // every callback, in delivery order
  std::string snapshot;           // SaveState bytes; empty for the oracle
};

template <typename Evaluator>
void CaptureState(const Evaluator& cep, CepCapture* out) {
  out->tables.clear();
  for (QueryId q = 0; q < cep.num_queries(); ++q) {
    out->tables.push_back(TableCopy::From(cep.match_table(q)));
  }
  out->snapshot.clear();
  if constexpr (std::is_same_v<Evaluator, CepEngine>) {
    BytesWriter w;
    cep.SaveState(&w);
    out->snapshot = w.Take();
  }
}

template <typename Evaluator>
void AddQueries(Evaluator* cep, const std::vector<std::string>& queries) {
  for (const std::string& text : queries) {
    const auto id = cep->AddQueryText(text, StrFormat("Q%zu", cep->num_queries()));
    ASSERT_TRUE(id.ok()) << text << ": " << id.status().ToString();
  }
}

// The reference: `queries` evaluated one event at a time by the oracle.
inline CepCapture RunOracle(const EventTypeRegistry& registry,
                            const std::vector<std::string>& queries,
                            const std::vector<Event>& stream) {
  CepCapture out;
  CepOracle oracle(&registry);
  AddQueries(&oracle, queries);
  oracle.SetMatchCallback(
      [&out](const MatchNotification& n) { out.notes.push_back(NoteCopy::From(n)); });
  for (const Event& e : stream) oracle.OnEvent(e);
  CaptureState(oracle, &out);
  return out;
}

// The engine fed `stream` in batches of `batch_size` (0 = OnEvent per event).
inline CepCapture RunEngine(const EventTypeRegistry& registry,
                            const std::vector<std::string>& queries,
                            const std::vector<Event>& stream, size_t batch_size) {
  CepCapture out;
  CepEngine engine(&registry);
  AddQueries(&engine, queries);
  engine.SetMatchCallback(
      [&out](const MatchNotification& n) { out.notes.push_back(NoteCopy::From(n)); });
  if (batch_size == 0) {
    for (const Event& e : stream) engine.OnEvent(e);
  } else {
    for (size_t i = 0; i < stream.size(); i += batch_size) {
      const size_t end = std::min(stream.size(), i + batch_size);
      engine.IngestBatch(std::span<const Event>(stream).subspan(i, end - i));
    }
  }
  EXPECT_EQ(engine.events_processed(), stream.size());
  CaptureState(engine, &out);
  return out;
}

inline void ExpectSameCapture(const CepCapture& want, const CepCapture& got,
                              const std::string& label) {
  ASSERT_EQ(want.tables.size(), got.tables.size()) << label;
  for (size_t q = 0; q < want.tables.size(); ++q) {
    ExpectTablesEqual(want.tables[q], got.tables[q], StrFormat("%s Q%zu", label.c_str(), q));
  }
  ASSERT_EQ(want.notes.size(), got.notes.size()) << label;
  for (size_t i = 0; i < want.notes.size(); ++i) {
    ASSERT_TRUE(want.notes[i] == got.notes[i])
        << label << " note #" << i << " (callback order must match)";
  }
  // The oracle writes no checkpoint: bytes are compared engine to engine.
  if (!want.snapshot.empty() && !got.snapshot.empty()) {
    ASSERT_TRUE(want.snapshot == got.snapshot) << label << ": SaveState bytes differ";
  }
}

}  // namespace exstream
