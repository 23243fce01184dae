// CepEngine: the multi-query CEP evaluator at the core of the monitoring
// system (Fig. 1c / Fig. 18).
//
// There is one evaluator. Queries are canonicalized and grouped by matching
// structure (cep/query_merge.h), and each *group* is evaluated once per event
// by a shared automaton (cep/shared_nfa.h) regardless of how many member
// queries it carries — the Fig. 20 scenario of thousands of near-identical
// monitoring queries. Within a group, members with identical RETURN semantics
// share row construction (residue classes) and members with identical output
// columns share one physical MatchTable (table classes). Negation queries and
// queries added mid-stream are singleton groups on the same evaluator.
//
// Ingestion is batched: IngestBatch extracts and hashes partition keys once
// per event (not once per query per event), then walks each group's relevant
// events in stream order — interning keys to dense ids, stepping the shared
// runs, appending rows — and finally delivers the batch's match callbacks,
// for the queries the subscriber named, in canonical (event, query) order.
// OnEvent is a batch of one over the same code.
//
// Determinism contract: for any batch split, the resulting MatchTables and
// the callback sequence (restricted to the subscribed queries) are identical
// to evaluating every query on its own, one run per partition, event by event
// (the reference oracle of tests/cep_oracle.h the differential tests compare
// against), and the SaveState bytes are identical across batch splits. A
// snapshot restored into a freshly planned engine continues exactly like the
// uninterrupted engine and re-checkpoints to the same bytes.

#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cep/interner.h"
#include "cep/match_table.h"
#include "cep/nfa.h"
#include "cep/query_merge.h"
#include "cep/shared_nfa.h"
#include "common/result.h"
#include "event/registry.h"
#include "event/stream.h"

namespace exstream {

using QueryId = uint32_t;

/// \brief A match-row notification delivered to the engine's callback.
///
/// `partition` is a view into the engine's interned key storage — valid for
/// the engine's lifetime, never a per-row string copy. `partition_id` is the
/// dense intern id (assigned in first-seen stream order, so it is
/// deterministic for a fixed event order regardless of batching).
struct MatchNotification {
  QueryId query = 0;
  uint32_t partition_id = 0;
  std::string_view partition;
  MatchRow row;
  bool complete = false;  ///< the full pattern completed with this event
};

/// \brief Engine construction options (none today; kept so configurations
/// such as XStreamConfig::ingest have a stable home).
struct CepEngineOptions {};

/// \brief Evaluates many SASE queries over one event stream.
///
/// Each merge group maintains one run per partition value (the bracketed
/// equivalence attribute). Events irrelevant to a group (by type) are skipped
/// via per-route-class event lists, so thousands of concurrent queries stay
/// cheap per event (the Fig. 20 scenario).
///
/// Thread model: one ingesting thread calls OnEvent/OnEventBatch/IngestBatch;
/// readers (visualization, explanations, checkpoints) may query MatchTables
/// concurrently — every row is appended under its table's mutex.
class CepEngine : public EventSink {
 public:
  explicit CepEngine(const EventTypeRegistry* registry, CepEngineOptions = {})
      : registry_(registry) {}

  CepEngine(CepEngine&&) = delete;
  CepEngine& operator=(CepEngine&&) = delete;

  /// Compiles and registers a query; returns its id.
  Result<QueryId> AddQuery(const Query& query);

  /// Parses, compiles, and registers a query given in Fig. 3 syntax.
  Result<QueryId> AddQueryText(std::string_view text, std::string name);

  /// EventSink: feeds one event (a batch of one).
  void OnEvent(const Event& event) override { IngestBatch({&event, 1}); }

  /// EventSink: batched ingest (see class comment for the contract).
  void OnEventBatch(EventBatch batch) override { IngestBatch(batch); }

  /// Batched ingest for callers that keep the buffer (e.g. to forward it).
  void IngestBatch(std::span<const Event> batch);

  size_t num_queries() const { return queries_.size(); }
  uint64_t events_processed() const { return events_processed_; }

  /// Merge-plan shape (groups/residues/tables).
  const MergePlanStats& merge_stats() const { return planner_.stats(); }

  const CompiledQuery& compiled(QueryId id) const { return queries_[id]->compiled; }
  /// The query's match table. Queries in the same table class share one
  /// physical table (their contents are bit-identical by construction).
  const MatchTable& match_table(QueryId id) const { return *queries_[id]->physical; }

  /// Lookup by query name; NotFound if absent.
  Result<QueryId> QueryIdByName(std::string_view name) const;

  /// \brief Registers a callback invoked on every emitted match row of every
  /// query, including queries added later.
  ///
  /// Rows are appended to the match table before the callback sees them.
  /// Callbacks for a batch are delivered after the batch is evaluated, in
  /// canonical (event, query) order, on the ingesting thread.
  void SetMatchCallback(std::function<void(const MatchNotification&)> cb);

  /// \brief Registers a callback for the listed queries only.
  ///
  /// Notifications are built, ordered and delivered (as above) only for
  /// members of `queries`; an empty list builds none. Queries added after
  /// this call are not subscribed. The subscription is runtime wiring, not
  /// evaluation state: it survives a mid-stream AddQuery and RestoreState,
  /// and SaveState bytes do not depend on it. InvalidArgument, installing
  /// nothing, if an id is not registered.
  Status SetMatchCallback(std::span<const QueryId> queries,
                          std::function<void(const MatchNotification&)> cb);

  /// \brief Serializes the engine's mutable evaluation state, each fact once:
  /// the processed-event count; each query's mid-stream-add flag, so the
  /// restoring engine rebuilds the exact merge plan (mid-stream queries are
  /// forced-singleton groups with their own key sets); then per merge group,
  /// in plan order, its SharedRuns (indexed by partition id) followed by its
  /// physical MatchTables in (residue, table class) order. Partition keys
  /// live only in the table records: bucket ids equal partition ids, so the
  /// group's interner is rebuilt from its first table. Compiled queries and
  /// route tables are NOT included: RestoreState requires the same queries
  /// added in the same order. Must not run concurrently with ingestion.
  void SaveState(BytesWriter* out) const;

  /// \brief Restores a SaveState snapshot. The engine must hold the same
  /// queries as at save time with empty match tables (fresh AddQuery calls).
  /// Corruption if a group's tables disagree on their partition keys or the
  /// keys do not match the group's run count.
  Status RestoreState(BytesReader* in);

 private:
  /// Route-table entry values: how a query treats events of one type.
  static constexpr uint16_t kRouteIrrelevant = 0;
  static constexpr uint16_t kRouteEmptyKey = 1;  ///< unpartitioned query
  static constexpr uint16_t kRouteSpecBase = 2;  ///< spec index + 2

  /// One partition-key extraction: attribute `attr` of events of `type`.
  /// Deduplicated across queries so a key is extracted/hashed once per event.
  struct ExtractorSpec {
    EventTypeId type = kInvalidEventType;
    size_t attr = 0;
  };

  /// A partition key ready for interning: view plus its precomputed hash.
  struct PrepKey {
    std::string_view view;
    uint64_t hash = 0;
  };

  struct PendingNote {
    uint32_t event_idx = 0;
    MatchNotification note;
  };

  struct QueryState {
    CompiledQuery compiled;
    MatchTable matches;
    /// The physical table serving match_table(id): &matches, or the table
    /// class representative's matches when this query merged into one.
    MatchTable* physical = nullptr;
    std::vector<uint16_t> route;      ///< event type -> route entry
    uint32_t route_class = 0;         ///< index into route_classes_
    uint32_t merge_group = 0;         ///< owning group index
    uint32_t merge_residue = 0;       ///< residue within the group
    /// Added after ingestion started (forced singleton in the merge plan).
    /// Persisted by SaveState so RestoreState reproduces the same plan.
    bool added_mid_stream = false;
    /// The match callback receives this query's notes.
    bool notify = false;

    QueryState(CompiledQuery cq)
        : compiled(std::move(cq)), matches(compiled.OutputColumns()),
          physical(&matches) {}
  };

  /// \brief Queries sharing one physical MatchTable (identical residue +
  /// identical output column names → bit-identical tables).
  struct TableClass {
    QueryId rep = 0;               ///< owns the physical table (its QueryState)
    MatchTable* table = nullptr;   ///< == &queries_[rep]->matches
    std::vector<QueryId> members;  ///< ascending query id
  };

  /// \brief Queries sharing row construction (identical compiled RETURNs).
  struct ResidueClass {
    uint32_t nfa_residue = 0;      ///< index into the group's SharedNfa
    std::vector<TableClass> tables;
    std::vector<QueryId> members;  ///< ascending query id (note fan-out order)
  };

  /// \brief One merge group: a shared automaton plus all per-partition state
  /// its members would otherwise hold independently.
  struct MergeGroup {
    std::unique_ptr<SharedNfa> nfa;
    std::vector<ResidueClass> residues;
    std::vector<QueryId> members;      ///< ascending query id
    PartitionInterner interner;
    /// Indexed by interned partition id, which is also the partition's
    /// bucket id in every table of the group: each table belongs to one
    /// group and registers its buckets in intern order.
    std::vector<SharedRun> runs;
    std::vector<uint16_t> route;       ///< == every member's route table
    uint32_t route_class = 0;
  };

  /// One unit of routed work: event index in the current batch + run id.
  struct WorkItem {
    uint32_t event = 0;
    uint32_t run = 0;
  };

  /// Deduplicated index of (type, attr); appends a new spec if unseen.
  uint16_t SpecIndexFor(EventTypeId type, size_t attr);

  /// Assigns query `id` to its merge group / residue / table classes,
  /// creating them as needed. Called by AddQuery, and by RestoreState when a
  /// snapshot's persisted mid-stream flags require rebuilding the plan.
  void AssignMergePlan(QueryId id, bool force_singleton);

  /// Fills prep_ with one (view, hash) per (spec, event) for this batch.
  void PrepareBatchKeys(std::span<const Event> batch);

  /// Rebuilds classes_by_type_ from route_classes_ when stale.
  void RebuildRouteIndex();

  /// \brief Stream-order routing of one group's relevant events: interns
  /// keys, creates runs/buckets on first sight, and fills items_ with one
  /// WorkItem per (event, run).
  void RouteGroupBatch(MergeGroup& g, std::span<const Event> batch);

  /// Interns `key` into group `g`: creates the SharedRun and registers the
  /// partition's bucket (id == partition id) in every member table on first
  /// use.
  uint32_t InternGroupKey(MergeGroup& g, std::string_view key, uint64_t hash);

  /// Evaluates the routed items_ of group `g`: steps its shared runs, appends
  /// rows to every table class and, with a callback set, buffers notes for
  /// the subscribed members.
  void ProcessGroup(MergeGroup& g, std::span<const Event> batch);

  /// Sorts the batch's notes into (event, query) order and fires callbacks.
  void DispatchNotifications();

  const EventTypeRegistry* registry_;  // not owned
  std::vector<std::unique_ptr<QueryState>> queries_;
  std::function<void(const MatchNotification&)> callback_;
  bool notify_new_queries_ = false;  ///< AddQuery subscribes the new query
  uint64_t events_processed_ = 0;

  // Partition-key extraction, shared across queries.
  std::vector<ExtractorSpec> specs_;
  std::vector<std::vector<uint16_t>> specs_by_type_;  ///< type -> spec indices
  uint64_t empty_key_hash_ = PartitionKeyHash({});

  // Route classes: queries with identical route tables share one class, and
  // each batch computes the class's relevant-event index list once — so 1000
  // replicated queries (the Fig. 20 shape) skip a batch's irrelevant events
  // with one scan total instead of one scan each. classes_by_type_ inverts
  // the class route tables (event type -> classes that want it); it is
  // rebuilt lazily after AddQuery instead of being rescanned per batch.
  std::vector<std::vector<uint16_t>> route_classes_;   ///< class -> route table
  std::vector<std::vector<uint16_t>> classes_by_type_; ///< type -> class idxs
  bool route_index_dirty_ = false;
  std::vector<std::vector<uint32_t>> class_events_;    ///< class -> event idxs

  // Multi-query merge plan.
  MergePlanner planner_;
  std::vector<std::unique_ptr<MergeGroup>> groups_;

  // Per-batch buffers, reused across batches.
  std::vector<std::vector<PrepKey>> prep_;           ///< per spec, per event
  std::vector<std::vector<std::string>> prep_keys_;  ///< numeric keys storage
  std::vector<WorkItem> items_;                      ///< one group's routed work
  MatchRow row_;                                     ///< per-residue row build
  std::vector<PendingNote> notes_;                   ///< whole batch
};

}  // namespace exstream
