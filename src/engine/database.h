#ifndef CRACKDB_ENGINE_DATABASE_H_
#define CRACKDB_ENGINE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "adaptive/adaptive_config.h"
#include "adaptive/repartition_policy.h"
#include "adaptive/workload_histogram.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "engine/sharded_engine.h"
#include "obs/query_log.h"
#include "storage/catalog.h"
#include "storage/dictionary.h"
#include "storage/partitioner.h"

namespace crackdb {

struct DatabaseOptions {
  /// Pool auto-size sentinel: one worker per hardware thread.
  static constexpr size_t kPoolAuto = static_cast<size_t>(-1);

  /// Workers in the shared fan-out pool. kPoolAuto = hardware concurrency;
  /// 0 = no pool, partition sub-queries run sequentially on the client
  /// thread — the throughput-serving configuration where many client
  /// threads are themselves the parallelism (crackbench's serve-rw).
  /// Scheduling is partition-affine: partition p's sub-query groups (and
  /// async queries whose home partition is p) go to pool worker
  /// p % pool_threads, so a partition's cracked structures stay core-local
  /// across queries.
  size_t pool_threads = kPoolAuto;
};

/// One write of a mixed Insert/Delete batch (Database::ApplyBatch).
struct WriteOp {
  enum class Kind { kInsert, kDelete };

  static WriteOp MakeInsert(std::vector<Value> values) {
    WriteOp op;
    op.kind = Kind::kInsert;
    op.values = std::move(values);
    return op;
  }
  static WriteOp MakeDelete(Key global_key) {
    WriteOp op;
    op.kind = Kind::kDelete;
    op.key = global_key;
    return op;
  }

  Kind kind = Kind::kInsert;
  std::vector<Value> values;  // kInsert: the row to append
  Key key = kInvalidKey;      // kDelete: the global key to tombstone
};

/// Per-op result of ApplyBatch, in op order. Inserts always succeed and
/// carry the new global key; a delete fails (ok = false) when the key is
/// unknown or the row is already dead — exactly as Delete would.
struct WriteOutcome {
  bool ok = false;
  Key key = kInvalidKey;
};

/// One partition's slice of a TableStats snapshot: tuple counts plus —
/// when adaptive repartitioning is enabled — the workload histogram's view
/// of the partition, so benches and tests can observe skew (and watch a
/// hot partition split) without poking internals. system.partitions is a
/// row per PartitionStats; nothing else counts per-partition traffic.
struct PartitionStats {
  size_t rows = 0;
  size_t live_rows = 0;
  size_t deleted = 0;
  /// Range sharding: the domain values this slice covers.
  Value cover_lo = 0;
  Value cover_hi = 0;
  /// The workload histogram's decayed access count (zero when adaptivity
  /// is off); reset to zero for the partitions a split or merge creates.
  uint64_t accesses = 0;
  /// This partition's engine kind and physical layout: "raw", or the
  /// distinct codecs of its compressed columns ("for", "rle+dict", ...),
  /// plus the bytes its columns occupy in that layout.
  std::string engine;
  std::string codec;
  size_t resident_bytes = 0;
};

/// View of one table. Each partition is read under its shared lock, so no
/// value reflects a half-applied write or mid-crack state; partitions are
/// visited one at a time, though, so under live traffic the totals (and
/// the op counters, which are read without locks) are not one global
/// atomic snapshot — `rows == initial + inserts` holds exactly only in
/// quiescence. Every op counter below reads the one place its event is
/// counted (the table's atomics or its ShardedEngine); system.tables is a
/// row per TableStats, and the registry keeps no copy of these
/// (docs/OBSERVABILITY.md).
struct TableStats {
  std::string engine;
  size_t partitions = 0;
  size_t rows = 0;       // global keys ever issued
  size_t live_rows = 0;  // minus tombstones
  size_t deleted = 0;
  uint64_t queries = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  /// Adaptive repartitioning actions executed so far.
  uint64_t splits = 0;
  uint64_t merges = 0;
  /// Compression layer: partitions currently compressed, layout changes
  /// (compressions at load; decompressions by writes and by query-driven
  /// crack-on-touch), queries answered in the encoded domain, and the
  /// resident footprint of all base columns in their current layouts —
  /// `bytes_per_row` is that footprint over the row-slot count (raw
  /// storage is num_columns * 8).
  size_t compressed_partitions = 0;
  uint64_t compressions = 0;
  uint64_t decompressions = 0;
  uint64_t encoded_queries = 0;
  size_t resident_column_bytes = 0;
  double bytes_per_row = 0;
  /// Per-partition breakdown, in partition order (see PartitionStats).
  std::vector<PartitionStats> per_partition;
};

/// The thread-safe serving facade over the partitioned execution layer:
/// owns the Catalog, the shared ThreadPool, and per table a
/// PartitionedRelation plus a ShardedEngine of the chosen kind.
///
/// Every public method is safe to call from any number of client threads
/// concurrently. The discipline (documented in docs/ARCHITECTURE.md):
///
///   - queries take no table-level *lock*; the ShardedEngine holds the
///     relation's map gate shared (one uncontended mutex round-trip, only
///     ever contended by an adaptive repartition swap), locks each
///     partition exclusively only while cracking it, and merges results
///     outside the locks;
///   - writers (Insert/Delete) hold the map gate shared, serialize per
///     table on `writer_mu` (which also guards the global-key router),
///     and then take only the target partition's exclusive lock, so a
///     writer never blocks queries on the other partitions;
///   - Stats holds the gate shared and takes the per-partition locks
///     *shared*, giving concurrent, consistent snapshots that exclude
///     writers and cracking readers;
///   - adaptive repartitioning (src/adaptive) swaps new shards into the
///     map under the gate held exclusively — see docs/ARCHITECTURE.md,
///     "Adaptive repartitioning".
///
/// Lock order is always: tables map -> map gate -> writer_mu -> partition
/// mutex; queries skip the tables map and writer_mu, so the hierarchy is
/// cycle-free. Partition locks are never nested, including inside
/// ApplyBatch (one is released before the next is taken).
///
/// There is one query surface — the fluent Query (From(...)...Build(), or
/// a hand-built Query{table, spec}) run through Execute, ExecuteBatch, or
/// ExecuteAsync — and one execution path under it: all three share one
/// admission step (validation, tracing, logging) and funnel into
/// ShardedEngine::Execute, the batch scheduler. Insert/Delete are one-op
/// ApplyBatch calls. Queries, writes, and repartition ticks on an unknown
/// table fail soft (an Expected error, kInvalidKey, or false) instead of
/// aborting, and so does a rejected RegisterSharded.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  /// Joins the pool before any table is torn down, so in-flight async
  /// queries never touch a dead table. Queued ExecuteAsync tasks whose
  /// futures were dropped still run to completion first.
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Shards `source` into `spec.num_partitions` partition relations
  /// registered in catalog() (named `<source>#p<i>`) and serves `table`
  /// from one `engine_kind` engine per partition (any engine_factory.h
  /// kind). Global keys equal source keys; tombstones are replicated.
  /// Returns the number of partitions serving the table, or — before any
  /// catalog side effect — an Expected error for an unknown engine kind,
  /// a duplicate table name, or a spec Partitioner::Validate rejects
  /// (zero partitions, an unknown organizing column, an inverted range
  /// domain, partition relations that already exist). Not thread-safe
  /// against in-flight operations on the same table name; registration is
  /// expected at startup (concurrent registration of *different* tables is
  /// fine).
  ///
  /// `adaptive` (off by default) arms workload-aware repartitioning for
  /// this table: queries feed a WorkloadHistogram, and each
  /// MaybeRepartition() tick may hot-split or cold-merge partitions online
  /// (see src/adaptive/ and docs/ARCHITECTURE.md, "Adaptive
  /// repartitioning"). Range sharding only; on hash-sharded tables ticks
  /// are no-ops. `adaptive.compression` picks the load-time layout, for
  /// any sharding.
  Expected<size_t> RegisterSharded(const std::string& table,
                                   const Relation& source,
                                   const PartitionSpec& spec,
                                   const std::string& engine_kind,
                                   const AdaptiveConfig& adaptive = {});

  /// One adaptive-repartitioning tick, run inline on the calling (client)
  /// thread: consults the workload histogram and policy, and executes at
  /// most one hot-split or cold-merge. Returns true iff an action was
  /// executed. No-op (false) when the table is unknown, adaptivity is off
  /// for it, it is hash-sharded, or another tick is already in flight (the
  /// at-most-one rule for concurrent callers). Nothing ticks on its own:
  /// the caller decides how often. Must
  /// not be called from a pool worker of this database's pool (the
  /// rebuild blocks on engine-construction futures).
  bool MaybeRepartition(const std::string& table);

  /// Entry point of the fluent query surface: a builder pre-bound to
  /// `table` and to this database, so the terminal reads
  ///
  ///   auto n = db.From("R").Where("a", lo, hi).Count().Execute();
  ///   auto s = db.From("R").Where("a", lo, hi)
  ///                .Aggregate(AggregateOp::kSum, "b").Execute();
  ///   auto r = db.From("R").Where("a", lo, hi).Project("b", "c").Execute();
  ///
  /// Predicates are validated as they are added; names are validated
  /// against the table schema by Execute. See engine/query.h.
  QueryBuilder From(std::string table) {
    return QueryBuilder(std::move(table), this);
  }

  /// Executes a compiled query with its declared consumption mode.
  /// Validation errors — the builder's recorded error, an unknown table,
  /// an unknown selection/projection/aggregate attribute — come back as
  /// an Expected error with a clear message; nothing asserts inside an
  /// engine. Count/Aggregate queries push their scalars below the
  /// partition merge (zero reconstruction, no tuple data crossing the
  /// merge); ForEach streams rows sequentially on the calling thread.
  /// Materialize results merge outside the partition locks and equal (as
  /// a multiset) the same spec run on an unsharded engine.
  Expected<ExecuteResult> Execute(Query query);

  /// Batch variant: queries may target different tables; per table they
  /// run as one scheduled engine batch (one lock acquisition per target
  /// partition per batch, partition groups fanned out across the pool
  /// with partition affinity). Results come back in query order,
  /// row-for-row identical to calling Execute in a loop; invalid queries
  /// yield their error without executing and without disturbing the rest
  /// of the batch.
  std::vector<Expected<ExecuteResult>> ExecuteBatch(
      std::span<const Query> queries);

  /// Async variant: validates on the calling thread, then schedules the
  /// query on the pool with its home partition as the affinity key and
  /// returns immediately; the future yields what Execute would. Invalid
  /// queries (and system.* snapshots) never touch the pool — their future
  /// is ready on return, as is every future without a pool. Futures may
  /// outlive the caller's frame but not the Database; dropping one
  /// without waiting is allowed.
  std::future<Expected<ExecuteResult>> ExecuteAsync(Query query);

  /// Group commit of a mixed Insert/Delete batch: takes `writer_mu` ONCE
  /// for the whole batch and re-acquires a partition lock only when
  /// consecutive ops target different partitions. Ops apply in order, so
  /// outcomes (keys included) are identical to the equivalent
  /// Insert/Delete loop; partition-clustered batches (bulk loads, range
  /// ingest) pay one lock acquisition per cluster. An unknown table fails
  /// every op ({false, kInvalidKey}).
  std::vector<WriteOutcome> ApplyBatch(const std::string& table,
                                       std::span<const WriteOp> ops);

  /// Routes one tuple to its partition by the organizing attribute and
  /// appends it; returns the global key. Per-partition engines merge the
  /// insert lazily on their next relevant query (pending/ripple); returns
  /// kInvalidKey for an unknown table. Thin wrapper over ApplyBatch (a
  /// batch of one).
  Key Insert(const std::string& table, std::span<const Value> values);

  /// Tombstones the row with this global key. False if the table or key is
  /// unknown or the row is already dead. Thin wrapper over ApplyBatch (a
  /// batch of one).
  bool Delete(const std::string& table, Key global_key);

  /// Dies on an unknown table, as do engine() and partitions().
  TableStats Stats(const std::string& table) const;

  std::vector<std::string> table_names() const;

  /// Direct access to the table's engine and partitions, for tests and
  /// benches. The caller must follow the locking discipline when touching
  /// them concurrently with serving traffic.
  ShardedEngine& engine(const std::string& table);
  PartitionedRelation& partitions(const std::string& table);

  Catalog& catalog() { return catalog_; }
  ThreadPool* pool() { return pool_.get(); }

  /// True iff `table` names a built-in system.* virtual table
  /// (system.tables, system.partitions, system.metrics, system.query_log).
  /// Such queries are answered from a per-query snapshot (see
  /// docs/OBSERVABILITY.md) through the normal fluent surface.
  static bool IsSystemTable(const std::string& table);

  /// The ring of recently finished fluent-path queries; also queryable as
  /// the system.query_log virtual table.
  const obs::QueryLog& query_log() const { return query_log_; }

  /// Decodes a name id from a system.* snapshot (table, metric, engine,
  /// and codec names are dictionary codes there, since system tables carry
  /// only Value cells) back to its string. An error for ids never issued.
  Expected<std::string> SystemName(Value id) const;

 private:
  struct Table {
    explicit Table(PartitionedRelation r) : relation(std::move(r)) {}

    PartitionedRelation relation;
    std::unique_ptr<ShardedEngine> engine;
    /// Schema snapshot for lock-free name validation (Execute): columns
    /// are fixed at registration, before any traffic.
    std::vector<std::string> columns;
    /// Serializes writers per table and guards the global-key router
    /// (Append/Delete/Locate on `relation`).
    mutable std::shared_mutex writer_mu;
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> deletes{0};

    /// Adaptive repartitioning state (histogram/policy null when the
    /// table does not adapt — disabled or hash-sharded).
    AdaptiveConfig adaptive;
    std::unique_ptr<WorkloadHistogram> histogram;
    std::unique_ptr<RepartitionPolicy> policy;
    std::atomic<uint64_t> splits{0};
    std::atomic<uint64_t> merges{0};
    /// Layout changes: load-time compressions and write-path
    /// decompressions (the engine's crack-on-touch counter is added at
    /// Stats time).
    std::atomic<uint64_t> compressions{0};
    std::atomic<uint64_t> decompressions{0};
    /// At most one tick in flight per table, whoever calls
    /// MaybeRepartition.
    std::atomic<bool> tick_in_flight{false};
  };

  /// Non-owning view of one write: the group-commit core works on views
  /// so ApplyBatch borrows from the caller's WriteOps and Insert/Delete
  /// borrow straight from their arguments (no per-op row copy).
  struct WriteView {
    WriteOp::Kind kind = WriteOp::Kind::kInsert;
    std::span<const Value> values;  // kInsert
    Key key = kInvalidKey;          // kDelete
  };

  /// The one write path: applies `ops` in order under a single writer_mu
  /// acquisition, filling `outcomes[i]` per op (see ApplyBatch).
  void ApplyViews(Table& t, std::span<const WriteView> ops,
                  WriteOutcome* outcomes);

  /// The tick body: histogram snapshot -> policy -> Repartitioner.
  /// Returns true iff an action was executed. Caller holds the table's
  /// tick_in_flight flag.
  bool RunTick(Table& t);

  Table& FindTable(const std::string& table) const;
  /// Non-dying lookup for the fail-soft public calls.
  Table* FindTableOrNull(const std::string& table) const;

  /// What admission hands to dispatch: the target table (null for a
  /// system.* query, which ExecuteSystem answers) and the query's trace,
  /// opened at admission when the query asked for one.
  struct Admitted {
    Table* table = nullptr;
    std::shared_ptr<obs::QueryTrace> trace;
  };

  /// The admission step shared by Execute, ExecuteBatch, and ExecuteAsync,
  /// applied to `query` in place: the builder's recorded error, the table
  /// (or system.* schema) lookup, the terminal compile step
  /// (CompileTerminal, re-run so hand-built Query structs are as safe as
  /// Build() output), and the attribute-name check. Counts every
  /// rejection.
  Expected<Admitted> Admit(Query& query);

  /// "" when every attribute `q` references is in `columns` (the table's
  /// registration snapshot, or a system.* table's fixed schema); otherwise
  /// the first unknown-attribute failure.
  static std::string ValidateQuery(std::span<const std::string> columns,
                                   const Query& q);

  /// Runs admitted queries of one table as one engine batch and closes
  /// their bookkeeping: the table's query counter, each trace's admission
  /// span and root duration, and the per-query LogQuery epilogue.
  /// `consumes` and `traces` are parallel to `specs` (null traces =
  /// untraced).
  std::vector<ExecuteResult> Dispatch(
      Table& t, const std::string& table, std::span<const QuerySpec> specs,
      std::span<const ConsumeSpec> consumes,
      std::span<const std::shared_ptr<obs::QueryTrace>> traces);

  /// Dispatch of one admitted query, borrowing its spec and terminal.
  ExecuteResult DispatchOne(Table& t, const Query& query,
                            const std::shared_ptr<obs::QueryTrace>& trace);

  /// Serves an admitted query on a system.* virtual table: materializes a
  /// transient Relation snapshot of the requested view and answers it
  /// through a PlainEngine, so predicates, projections, and every terminal
  /// behave exactly as on a regular table.
  ExecuteResult ExecuteSystem(const Query& query);

  /// Snapshot builders for the system.* views; `out` is an empty relation
  /// carrying the view's schema.
  void FillSystemTables(Relation& out);
  void FillSystemPartitions(Relation& out);
  void FillSystemMetrics(Relation& out);
  void FillSystemQueryLog(Relation& out);

  /// Encodes a string into the system-name dictionary (thread-safe); the
  /// inverse of SystemName.
  Value InternName(const std::string& name);

  /// Per-query observability epilogue: counts the query into
  /// db_queries_total (exact, every query), then samples. The unsampled
  /// path is that add plus one relaxed increment; the heavy work (histogram,
  /// ring append) runs for every traced query, every `always` caller
  /// (system.* queries), and a 1-in-64 sample of the untraced rest.
  /// Micros are engine-attributed (the result's CostBreakdown), so the
  /// epilogue is clock-free. No-op when metrics are disabled
  /// (obs::SetMetricsEnabled(false)).
  void LogQuery(const std::string& table, ConsumeKind kind,
                const ExecuteResult& result, bool always = false);

  Catalog catalog_;
  obs::QueryLog query_log_;
  /// Queries that passed through LogQuery; the sampling phase.
  std::atomic<uint64_t> log_seq_{0};
  /// Codes for every string surfaced through a system.* snapshot.
  mutable std::mutex system_names_mu_;
  Dictionary system_names_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::shared_mutex tables_mu_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace crackdb

#endif  // CRACKDB_ENGINE_DATABASE_H_
