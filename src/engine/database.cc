#include "engine/database.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

#include "adaptive/repartitioner.h"
#include "common/timer.h"
#include "engine/plain_engine.h"
#include "obs/metrics.h"

namespace crackdb {

namespace {

[[noreturn]] void Die(const char* what, const std::string& detail) {
  std::fprintf(stderr, "database: %s: %s\n", what, detail.c_str());
  std::abort();
}

/// Registry handles resolved once per process (docs/OBSERVABILITY.md).
struct DbMetrics {
  obs::Counter& queries =
      obs::MetricsRegistry::Global().GetCounter("db_queries_total");
  obs::Counter& query_errors =
      obs::MetricsRegistry::Global().GetCounter("db_query_errors_total");
  obs::Counter& system_queries =
      obs::MetricsRegistry::Global().GetCounter("db_system_queries_total");
  obs::Counter& writes =
      obs::MetricsRegistry::Global().GetCounter("db_writes_total");
  obs::Counter& write_decompress =
      obs::MetricsRegistry::Global().GetCounter("db_write_decompress_total");
  obs::Histogram& query_micros =
      obs::MetricsRegistry::Global().GetHistogram("db_query_micros");
  obs::Counter& ticks =
      obs::MetricsRegistry::Global().GetCounter("adaptive_ticks_total");
  obs::Counter& splits =
      obs::MetricsRegistry::Global().GetCounter("adaptive_splits_total");
  obs::Counter& merges =
      obs::MetricsRegistry::Global().GetCounter("adaptive_merges_total");
  obs::Counter& compressions =
      obs::MetricsRegistry::Global().GetCounter("adaptive_compressions_total");
  obs::Counter& decompressions = obs::MetricsRegistry::Global().GetCounter(
      "adaptive_decompressions_total");
  obs::Gauge& footprint_before = obs::MetricsRegistry::Global().GetGauge(
      "adaptive_footprint_before_bytes");
  obs::Gauge& footprint_after = obs::MetricsRegistry::Global().GetGauge(
      "adaptive_footprint_after_bytes");
};

DbMetrics& Metrics() {
  static DbMetrics* metrics = new DbMetrics();
  return *metrics;
}

/// Query-log sampling window: 1 in this many untraced queries pays the
/// full observability epilogue (histogram observe + ring append). Power
/// of two; the first query of a Database always samples (phase 0).
/// Traced and system.* queries always log, so the sparse sample only
/// thins steady-state untraced traffic.
constexpr uint64_t kQueryLogSampleEvery = 64;

/// Column schemas of the system.* virtual tables. Registered as empty
/// marker relations in the Catalog (schema discovery through the normal
/// catalog surface) and materialized as transient per-query snapshots by
/// ExecuteSystem. All cells are Values; string-ish columns (names, engine
/// and codec kinds) hold system-name dictionary codes — see
/// Database::SystemName.
struct SystemSchema {
  const char* name;
  std::vector<std::string> columns;
};

const std::vector<SystemSchema>& SystemSchemas() {
  static const std::vector<SystemSchema>* schemas =
      new std::vector<SystemSchema>{
          {"system.tables",
           {"name", "partitions", "rows", "live_rows", "deleted", "queries",
            "inserts", "deletes", "splits", "merges", "compressions",
            "decompressions", "encoded_queries", "resident_bytes"}},
          {"system.partitions",
           {"table", "partition", "rows", "live_rows", "deleted", "cover_lo",
            "cover_hi", "accesses", "engine", "codec", "resident_bytes"}},
          {"system.metrics", {"name", "kind", "value", "count", "max"}},
          {"system.query_log",
           {"query_id", "table", "kind", "rows", "engine_micros",
            "select_micros", "reconstruct_micros", "partitions_touched",
            "partitions_pruned", "traced"}},
      };
  return *schemas;
}

const SystemSchema* FindSystemSchema(const std::string& name) {
  for (const SystemSchema& schema : SystemSchemas()) {
    if (name == schema.name) return &schema;
  }
  return nullptr;
}

}  // namespace

Database::Database(DatabaseOptions options) {
  size_t threads = options.pool_threads;
  if (threads == DatabaseOptions::kPoolAuto) {
    threads = std::thread::hardware_concurrency();
  }
  if (threads > 0) {
    pool_ = std::make_unique<ThreadPool>(threads, options.affine_scheduling);
  }
  // Register the system.* schemas as empty marker relations:
  // catalog().relation("system.metrics").column_names() is the schema
  // discovery surface; rows are materialized per query (ExecuteSystem).
  for (const SystemSchema& schema : SystemSchemas()) {
    Relation& marker = catalog_.CreateRelation(schema.name);
    for (const std::string& column : schema.columns) marker.AddColumn(column);
  }
}

Database::~Database() {
  // In-flight background repartition ticks reference their tables and may
  // block on the pool (engine builds), so join them first, then the pool
  // (members destroy in reverse declaration order, which would otherwise
  // tear the tables down while queued async tasks still reference them).
  // Collect first, then join with tables_mu_ *released*: a tick thread's
  // catalog hooks take tables_mu_ exclusively, so joining under the lock
  // would deadlock. No one registers tables during destruction.
  std::vector<Table*> tables;
  {
    std::shared_lock<std::shared_mutex> lock(tables_mu_);
    tables.reserve(tables_.size());
    for (auto& [name, t] : tables_) tables.push_back(t.get());
  }
  for (Table* t : tables) {
    std::lock_guard<std::mutex> tick_lock(t->tick_thread_mu);
    if (t->tick_thread.joinable()) t->tick_thread.join();
  }
  pool_.reset();
}

void Database::RegisterSharded(const std::string& table,
                               const Relation& source,
                               const PartitionSpec& spec,
                               const std::string& engine_kind,
                               const AdaptiveConfig& adaptive) {
  EngineFactory factory = MakeEngineFactory(engine_kind);
  if (!factory) Die("unknown engine kind", engine_kind);

  // Exclusive for the whole registration: partitioning creates relations
  // in the shared catalog, which in-flight registrations of other tables
  // would otherwise race on.
  std::unique_lock<std::shared_mutex> lock(tables_mu_);
  auto entry = std::make_unique<Table>(
      Partitioner::Partition(&catalog_, source, spec));
  entry->engine = std::make_unique<ShardedEngine>(
      entry->relation, std::move(factory), pool_.get());
  entry->columns = source.column_names();
  entry->adaptive = adaptive;
  // Only range-sharded tables adapt: hash sharding is balanced by
  // construction, and slices are the unit the repartitioner reshapes.
  if (adaptive.enabled && spec.kind == PartitionSpec::Kind::kRange) {
    entry->histogram = std::make_unique<WorkloadHistogram>(
        entry->relation.num_partitions(), adaptive.sketch_capacity);
    entry->policy = std::make_unique<RepartitionPolicy>(adaptive);
    entry->engine->SetHistogram(entry->histogram.get());
  }
  // Cold-start layout: compress every qualifying partition at load time.
  // The per-partition engines above are freshly constructed (no cracked
  // state to invalidate) and no traffic has arrived yet, so neither an
  // engine reset nor partition locking is needed here.
  if (adaptive.compression.enabled && adaptive.compression.compress_on_load) {
    for (size_t i = 0; i < entry->relation.num_partitions(); ++i) {
      if (entry->relation.partition(i).Compress(adaptive.compression) > 0) {
        entry->compressions.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (!tables_.emplace(table, std::move(entry)).second) {
    Die("duplicate table", table);
  }
}

namespace {

/// Re-applies the builder's terminal compile step to a Query, so
/// hand-built Query aggregates (the struct is public) get the same
/// projection pushdown and terminal validation as Build() output —
/// idempotent on already-compiled queries. Returns "" or the failure.
std::string NormalizeTerminal(Query& q) {
  switch (q.consume.kind) {
    case ConsumeKind::kCount:
      q.spec.projections.clear();
      break;
    case ConsumeKind::kAggregate:
      if (q.consume.attr.empty()) return "Aggregate() requires an attribute";
      if (q.consume.op == AggregateOp::kCount) {
        return "Aggregate(kCount) is grouped-only; use Count() for a scalar "
               "cardinality query or GroupBy().Aggregate(kCount, ...) for "
               "per-group counts";
      }
      q.spec.projections = {q.consume.attr};
      break;
    case ConsumeKind::kGroupBy: {
      if (q.consume.group_attr.empty()) {
        return "GroupBy() requires an attribute";
      }
      if (q.consume.group_aggs.empty()) {
        return "GroupBy() requires at least one Aggregate()";
      }
      for (const GroupAggregate& agg : q.consume.group_aggs) {
        if (agg.attr.empty()) return "Aggregate() requires an attribute";
        if (agg.attr == q.consume.group_attr) {
          return "aggregate attribute '" + agg.attr +
                 "' duplicates the group key; the key (and per-group counts "
                 "via kCount) are returned without folding it";
        }
      }
      std::vector<std::string> pushdown = {q.consume.group_attr};
      for (const GroupAggregate& agg : q.consume.group_aggs) {
        if (agg.op == AggregateOp::kCount) continue;
        if (std::find(pushdown.begin(), pushdown.end(), agg.attr) ==
            pushdown.end()) {
          pushdown.push_back(agg.attr);
        }
      }
      if (!q.spec.projections.empty() && q.spec.projections != pushdown) {
        return "Project('" + q.spec.projections.front() +
               "', ...) conflicts with GroupBy(): a grouped query returns "
               "the group key and aggregate columns only (remove Project())";
      }
      q.spec.projections = std::move(pushdown);
      break;
    }
    case ConsumeKind::kForEach:
      if (!q.consume.visitor) return "ForEach() requires a visitor";
      if (q.spec.projections.empty()) {
        return "ForEach() requires at least one projected attribute";
      }
      break;
    case ConsumeKind::kMaterialize:
      if (q.spec.projections.empty()) {
        return "Materialize() requires at least one projected attribute "
               "(use Count() for a projection-free cardinality query)";
      }
      break;
  }
  return "";
}

}  // namespace

std::string Database::ValidateQuery(std::span<const std::string> columns,
                                    const Query& q) {
  const auto known = [columns](const std::string& attr) {
    for (const std::string& column : columns) {
      if (column == attr) return true;
    }
    return false;
  };
  const auto unknown_attr = [&q](const std::string& attr) {
    return "unknown attribute '" + attr + "' in table '" + q.table + "'";
  };
  for (const QuerySpec::Selection& sel : q.spec.selections) {
    if (!known(sel.attr)) return unknown_attr(sel.attr);
  }
  for (const std::string& attr : q.spec.projections) {
    if (!known(attr)) return unknown_attr(attr);
  }
  if (q.consume.kind == ConsumeKind::kAggregate && !known(q.consume.attr)) {
    return unknown_attr(q.consume.attr);
  }
  if (q.consume.kind == ConsumeKind::kGroupBy) {
    if (!known(q.consume.group_attr)) {
      return unknown_attr(q.consume.group_attr);
    }
    for (const GroupAggregate& agg : q.consume.group_aggs) {
      if (!known(agg.attr)) return unknown_attr(agg.attr);
    }
  }
  return "";
}

bool Database::IsSystemTable(const std::string& table) {
  return table.rfind("system.", 0) == 0;
}

Value Database::InternName(const std::string& name) {
  std::lock_guard<std::mutex> lock(system_names_mu_);
  return system_names_.Encode(name);
}

std::string Database::SystemName(Value id) const {
  std::lock_guard<std::mutex> lock(system_names_mu_);
  if (id < 0 || static_cast<size_t>(id) >= system_names_.size()) {
    Die("unknown system name id", std::to_string(id));
  }
  return system_names_.Decode(id);
}

void Database::LogQuery(const std::string& table, ConsumeKind kind,
                        const ExecuteResult& result, bool always) {
  if (!obs::MetricsEnabled()) return;
  const uint64_t seq = log_seq_.fetch_add(1, std::memory_order_relaxed);
  const bool sampled = (seq & (kQueryLogSampleEvery - 1)) == 0;
  if (!sampled && !always && result.trace == nullptr) return;
  // Fold the query-counter update into the sampled path too: report the
  // delta of sequence numbers allocated since the last report, so
  // db_queries_total stays *exact* at every sample point while the
  // unsampled path pays nothing. The CAS-max keeps concurrent reporters
  // from double-counting a window (each successful advance accounts
  // exactly its own delta).
  const uint64_t total = seq + 1;
  uint64_t prev = queries_reported_.load(std::memory_order_relaxed);
  while (total > prev && !queries_reported_.compare_exchange_weak(
                             prev, total, std::memory_order_relaxed)) {
  }
  if (total > prev) {
    Metrics().queries.Add(static_cast<double>(total - prev));
  }
  const double engine_micros = result.cost.select_micros +
                               result.cost.reconstruct_micros +
                               result.cost.prepare_micros;
  Metrics().query_micros.Observe(engine_micros);
  obs::QueryLogEntry entry;
  entry.table = table;
  entry.kind = static_cast<int32_t>(kind);
  entry.rows = result.count;
  entry.engine_micros = engine_micros;
  entry.select_micros = result.cost.select_micros;
  entry.reconstruct_micros = result.cost.reconstruct_micros;
  entry.partitions_touched = static_cast<uint32_t>(result.partitions_touched);
  entry.partitions_pruned = static_cast<uint32_t>(result.partitions_pruned);
  entry.traced = result.trace != nullptr;
  entry.trace = result.trace;
  query_log_.Append(std::move(entry));
}

void Database::FillSystemTables(Relation& out) {
  std::vector<std::string> names = table_names();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const TableStats s = Stats(name);
    const Value row[] = {InternName(name),
                         static_cast<Value>(s.partitions),
                         static_cast<Value>(s.rows),
                         static_cast<Value>(s.live_rows),
                         static_cast<Value>(s.deleted),
                         static_cast<Value>(s.queries),
                         static_cast<Value>(s.inserts),
                         static_cast<Value>(s.deletes),
                         static_cast<Value>(s.splits),
                         static_cast<Value>(s.merges),
                         static_cast<Value>(s.compressions),
                         static_cast<Value>(s.decompressions),
                         static_cast<Value>(s.encoded_queries),
                         static_cast<Value>(s.resident_column_bytes)};
    out.BulkLoadRow(row);
  }
}

void Database::FillSystemPartitions(Relation& out) {
  std::vector<std::string> names = table_names();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const TableStats s = Stats(name);
    const Value table_id = InternName(name);
    for (size_t i = 0; i < s.per_partition.size(); ++i) {
      const PartitionStats& ps = s.per_partition[i];
      const Value row[] = {table_id,
                           static_cast<Value>(i),
                           static_cast<Value>(ps.rows),
                           static_cast<Value>(ps.live_rows),
                           static_cast<Value>(ps.deleted),
                           ps.cover_lo,
                           ps.cover_hi,
                           static_cast<Value>(ps.accesses),
                           InternName(ps.engine),
                           InternName(ps.codec),
                           static_cast<Value>(ps.resident_bytes)};
      out.BulkLoadRow(row);
    }
  }
}

void Database::FillSystemMetrics(Relation& out) {
  // Engines batch their registry increments under their cost mutex; drain
  // them so the snapshot reflects all finished work (FlushMetrics is the
  // documented sync point).
  {
    std::shared_lock<std::shared_mutex> lock(tables_mu_);
    for (const auto& [name, t] : tables_) t->engine->FlushMetrics();
  }
  for (const obs::MetricSample& s : obs::MetricsRegistry::Global().Snapshot()) {
    const Value row[] = {InternName(s.name),
                         static_cast<Value>(static_cast<int>(s.kind)),
                         static_cast<Value>(std::llround(s.value)),
                         static_cast<Value>(s.count),
                         static_cast<Value>(std::llround(s.max))};
    out.BulkLoadRow(row);
  }
}

void Database::FillSystemQueryLog(Relation& out) {
  for (const obs::QueryLogEntry& e : query_log_.Snapshot()) {
    const Value row[] = {static_cast<Value>(e.query_id),
                         InternName(e.table),
                         static_cast<Value>(e.kind),
                         static_cast<Value>(e.rows),
                         static_cast<Value>(std::llround(e.engine_micros)),
                         static_cast<Value>(std::llround(e.select_micros)),
                         static_cast<Value>(std::llround(e.reconstruct_micros)),
                         static_cast<Value>(e.partitions_touched),
                         static_cast<Value>(e.partitions_pruned),
                         e.traced ? 1 : 0};
    out.BulkLoadRow(row);
  }
}

Expected<Database::Admitted> Database::Admit(Query& query) {
  Admitted admitted;
  std::string invalid = std::move(query.error);  // the builder's error wins
  std::span<const std::string> columns;
  if (invalid.empty() && IsSystemTable(query.table)) {
    const SystemSchema* schema = FindSystemSchema(query.table);
    if (schema == nullptr) {
      invalid = "unknown system table '" + query.table +
                "' (available: system.tables, system.partitions, "
                "system.metrics, system.query_log)";
    } else {
      columns = schema->columns;
    }
  } else if (invalid.empty()) {
    admitted.table = FindTableOrNull(query.table);
    if (admitted.table == nullptr) {
      invalid = "unknown table '" + query.table + "'";
    } else {
      columns = admitted.table->columns;
    }
  }
  if (invalid.empty()) invalid = NormalizeTerminal(query);
  if (invalid.empty()) invalid = ValidateQuery(columns, query);
  if (!invalid.empty()) {
    Metrics().query_errors.Add();
    return QueryError{std::move(invalid)};
  }
  // System queries open their own trace after the snapshot is assembled.
  if (query.trace && admitted.table != nullptr) {
    admitted.trace = std::make_shared<obs::QueryTrace>();
  }
  return admitted;
}

ExecuteResult Database::ExecuteSystem(const Query& query) {
  const SystemSchema* schema = FindSystemSchema(query.table);
  // Materialize the snapshot, then answer from it through a PlainEngine —
  // the snapshot is immutable and query-local, so no locking discipline
  // applies past this point. The snapshot assembly (Stats calls, registry
  // walk) happens before the trace epoch: it is view construction, not
  // query execution.
  Relation snapshot(query.table);
  for (const std::string& column : schema->columns) {
    snapshot.AddColumn(column);
  }
  if (query.table == "system.tables") {
    FillSystemTables(snapshot);
  } else if (query.table == "system.partitions") {
    FillSystemPartitions(snapshot);
  } else if (query.table == "system.metrics") {
    FillSystemMetrics(snapshot);
  } else {
    FillSystemQueryLog(snapshot);
  }
  std::shared_ptr<obs::QueryTrace> trace;
  if (query.trace) trace = std::make_shared<obs::QueryTrace>();
  PlainEngine plain(snapshot);
  ExecuteResult result = plain.Execute(query.spec, query.consume);
  if (trace != nullptr) {
    trace->AddSpan(obs::QueryTrace::kRootSpan, -1, "select[plain]", 0.0,
                   trace->NowMicros());
    trace->SetDuration(obs::QueryTrace::kRootSpan, trace->NowMicros());
    result.trace = std::move(trace);
  }
  Metrics().system_queries.Add();
  // System queries are rare and are themselves the introspection surface,
  // so they bypass the log sampling.
  LogQuery(query.table, query.consume.kind, result, /*always=*/true);
  return result;
}

std::vector<ExecuteResult> Database::Dispatch(
    Table& t, const std::string& table, std::span<const QuerySpec> specs,
    std::span<const ConsumeSpec> consumes,
    std::span<const std::shared_ptr<obs::QueryTrace>> traces) {
  t.queries.fetch_add(specs.size(), std::memory_order_relaxed);
  std::vector<obs::QueryTrace*> trace_ptrs;  // empty unless one is traced
  for (size_t i = 0; i < traces.size(); ++i) {
    if (traces[i] == nullptr) continue;
    if (trace_ptrs.empty()) trace_ptrs.resize(traces.size(), nullptr);
    // Admission: validation plus, for a batched or async query, its wait
    // for the batch to assemble or the task to start.
    traces[i]->AddSpan(obs::QueryTrace::kRootSpan, -1, "admission", 0.0,
                       traces[i]->NowMicros());
    trace_ptrs[i] = traces[i].get();
  }
  // No table-level lock: the sharded engine locks partition by partition
  // and merges outside the locks.
  std::vector<ExecuteResult> results =
      t.engine->Execute(specs, consumes, trace_ptrs);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!trace_ptrs.empty() && trace_ptrs[i] != nullptr) {
      trace_ptrs[i]->SetDuration(obs::QueryTrace::kRootSpan,
                                 trace_ptrs[i]->NowMicros());
      results[i].trace = traces[i];
    }
    LogQuery(table, consumes[i].kind, results[i]);
  }
  return results;
}

ExecuteResult Database::DispatchOne(
    Table& t, const Query& query,
    const std::shared_ptr<obs::QueryTrace>& trace) {
  std::vector<ExecuteResult> results = Dispatch(
      t, query.table, {&query.spec, 1}, {&query.consume, 1}, {&trace, 1});
  return std::move(results.front());
}

Expected<ExecuteResult> Database::Execute(Query query) {
  Expected<Admitted> admitted = Admit(query);
  if (!admitted.ok()) return QueryError{admitted.error()};
  if (admitted->table == nullptr) return ExecuteSystem(query);
  ExecuteResult result = DispatchOne(*admitted->table, query, admitted->trace);
  NoteOps(*admitted->table, 1);
  return result;
}

std::vector<Expected<ExecuteResult>> Database::ExecuteBatch(
    std::span<const Query> queries) {
  // Admit everything first, then run one engine batch per table (the
  // batch scheduler groups its sub-queries by partition, so each target
  // partition is locked once per table batch). Results scatter back into
  // query order.
  std::vector<std::optional<Expected<ExecuteResult>>> out(queries.size());
  struct TableBatch {
    Table* table;
    std::string name;
    std::vector<size_t> indexes;
    std::vector<QuerySpec> specs;
    std::vector<ConsumeSpec> consumes;
    std::vector<std::shared_ptr<obs::QueryTrace>> traces;
  };
  std::vector<TableBatch> batches;
  for (size_t i = 0; i < queries.size(); ++i) {
    Query query = queries[i];
    Expected<Admitted> admitted = Admit(query);
    if (!admitted.ok()) {
      out[i].emplace(QueryError{admitted.error()});
      continue;
    }
    if (admitted->table == nullptr) {
      // System tables answer from per-query snapshots; there is nothing
      // to batch, so they run inline in batch order.
      out[i].emplace(ExecuteSystem(query));
      continue;
    }
    TableBatch* batch = nullptr;
    for (TableBatch& existing : batches) {
      if (existing.table == admitted->table) {
        batch = &existing;
        break;
      }
    }
    if (batch == nullptr) {
      batch = &batches.emplace_back();
      batch->table = admitted->table;
      batch->name = query.table;
    }
    batch->indexes.push_back(i);
    batch->specs.push_back(std::move(query.spec));
    batch->consumes.push_back(std::move(query.consume));
    batch->traces.push_back(std::move(admitted->trace));
  }

  for (TableBatch& batch : batches) {
    std::vector<ExecuteResult> results = Dispatch(
        *batch.table, batch.name, batch.specs, batch.consumes, batch.traces);
    for (size_t j = 0; j < batch.indexes.size(); ++j) {
      out[batch.indexes[j]].emplace(std::move(results[j]));
    }
    NoteOps(*batch.table, batch.specs.size());
  }

  std::vector<Expected<ExecuteResult>> flat;
  flat.reserve(queries.size());
  for (std::optional<Expected<ExecuteResult>>& result : out) {
    flat.push_back(std::move(*result));
  }
  return flat;
}

std::future<Expected<ExecuteResult>> Database::ExecuteAsync(Query query) {
  Expected<Admitted> admitted = Admit(query);
  if (!admitted.ok() || admitted->table == nullptr) {
    // Rejections and system.* snapshots never touch the pool.
    std::promise<Expected<ExecuteResult>> ready;
    if (admitted.ok()) {
      ready.set_value(ExecuteSystem(query));
    } else {
      ready.set_value(QueryError{admitted.error()});
    }
    return ready.get_future();
  }
  Table& t = *admitted->table;
  // Compute the affinity key before the task construction moves the query
  // away.
  const size_t home = t.engine->HomePartition(query.spec);
  auto task = std::make_shared<std::packaged_task<Expected<ExecuteResult>()>>(
      [this, &t, query = std::move(query),
       trace = std::move(admitted->trace)]() -> Expected<ExecuteResult> {
        return DispatchOne(t, query, trace);
      });
  std::future<Expected<ExecuteResult>> future = task->get_future();
  if (pool_ == nullptr) {
    (*task)();
  } else {
    // Schedule the whole query next to its data: the home partition's
    // index is the affinity key. Inside the worker, the engine detects it
    // must not block on the pool and executes its partition groups inline.
    pool_->Submit(home, [task] { (*task)(); });
  }
  // On the client thread: a crossed trigger boundary spawns a tick
  // thread, which must never be started from a pool worker mid-teardown.
  NoteOps(t, 1);
  return future;
}

void Database::ApplyViews(Table& t, std::span<const WriteView> ops,
                          WriteOutcome* outcomes) {
  if (ops.empty()) return;
  {
    // The partition map must be stable for the whole commit (routing,
    // mutexes, and the global-key router all live in it); writers enter
    // the gate as ordinary (non-urgent) readers — they run on client
    // threads and may wait out a pending swap.
    RwGate::SharedGuard map_guard(t.relation.map_gate());
    // One writer_mu acquisition commits the whole batch. Ops apply
    // strictly in order (so keys and delete outcomes match the one-op
    // loop); the partition lock is held across consecutive ops on the
    // same partition and re-acquired only on a switch, so clustered
    // batches amortize it.
    std::unique_lock<std::shared_mutex> writer(t.writer_mu);
    std::unique_lock<std::shared_mutex> partition;
    size_t locked = t.relation.num_partitions();  // sentinel: none held
    uint64_t inserts = 0, deletes = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      const WriteView& op = ops[i];
      size_t target;
      if (op.kind == WriteOp::Kind::kInsert) {
        target =
            t.relation.PartitionOf(op.values[t.relation.organizing_ordinal()]);
      } else {
        const std::optional<PartitionedRelation::Location> loc =
            t.relation.Locate(op.key);
        if (!loc.has_value()) continue;  // outcome stays {false, kInvalidKey}
        target = loc->partition;
      }
      if (target != locked) {
        if (partition.owns_lock()) partition.unlock();
        partition = std::unique_lock<std::shared_mutex>(
            t.relation.partition_mutex(target));
        locked = target;
      }
      // Writes land in raw partitions only: the encoded layouts are
      // immutable and tombstone-blind, so a write to a compressed
      // partition materializes it back to raw first. Its engine stayed
      // valid across the compressed phase (stamped fresh at compress
      // time); it absorbs this write lazily like any other.
      {
        const Relation& part = t.relation.partition(target);
        if (part.compressed()) {
          part.Decompress();
          t.decompressions.fetch_add(1, std::memory_order_relaxed);
          Metrics().write_decompress.Add();
        }
      }
      if (op.kind == WriteOp::Kind::kInsert) {
        outcomes[i] = {true, t.relation.AppendTo(target, op.values)};
        ++inserts;
      } else if (t.relation.Delete(op.key)) {
        outcomes[i] = {true, op.key};
        ++deletes;
      }
    }
    if (inserts > 0) t.inserts.fetch_add(inserts, std::memory_order_relaxed);
    if (deletes > 0) t.deletes.fetch_add(deletes, std::memory_order_relaxed);
    if (inserts + deletes > 0) {
      Metrics().writes.Add(static_cast<double>(inserts + deletes));
    }
  }
  // Outside every lock: a crossed trigger boundary may spawn a tick
  // thread, which re-enters the gate on its own.
  NoteOps(t, ops.size());
}

std::vector<WriteOutcome> Database::ApplyBatch(const std::string& table,
                                               std::span<const WriteOp> ops) {
  std::vector<WriteOutcome> outcomes(ops.size());
  Table* t = FindTableOrNull(table);
  if (t == nullptr) return outcomes;  // every op fails
  std::vector<WriteView> views;
  views.reserve(ops.size());
  for (const WriteOp& op : ops) {
    views.push_back({op.kind, op.values, op.key});
  }
  ApplyViews(*t, views, outcomes.data());
  return outcomes;
}

Key Database::Insert(const std::string& table, std::span<const Value> values) {
  const WriteView view{WriteOp::Kind::kInsert, values, kInvalidKey};
  WriteOutcome outcome;
  if (Table* t = FindTableOrNull(table)) ApplyViews(*t, {&view, 1}, &outcome);
  return outcome.key;
}

bool Database::Delete(const std::string& table, Key global_key) {
  const WriteView view{WriteOp::Kind::kDelete, {}, global_key};
  WriteOutcome outcome;
  if (Table* t = FindTableOrNull(table)) ApplyViews(*t, {&view, 1}, &outcome);
  return outcome.ok;
}

namespace {

/// Clears the tick-in-flight flag on every exit path: an exception
/// escaping a tick (e.g. bad_alloc building a shard engine) must not
/// permanently disable adaptivity for the table.
struct TickFlagClearer {
  std::atomic<bool>& flag;
  ~TickFlagClearer() { flag.store(false); }
};

}  // namespace

bool Database::MaybeRepartition(const std::string& table) {
  Table* t = FindTableOrNull(table);
  if (t == nullptr || !t->adaptive.enabled || t->histogram == nullptr) {
    return false;
  }
  // At most one tick in flight per table, manual or background.
  if (t->tick_in_flight.exchange(true)) return false;
  TickFlagClearer clearer{t->tick_in_flight};
  return RunTick(*t);
}

void Database::NoteOps(Table& t, size_t n) {
  if (n == 0 || !t.adaptive.enabled || t.histogram == nullptr ||
      t.adaptive.trigger_interval == 0) {
    return;
  }
  const uint64_t interval = t.adaptive.trigger_interval;
  const uint64_t before = t.ops_seen.fetch_add(n, std::memory_order_relaxed);
  if (before / interval == (before + n) / interval) return;  // no boundary
  if (t.tick_in_flight.exchange(true)) return;
  std::lock_guard<std::mutex> lock(t.tick_thread_mu);
  // The previous tick thread (if any) observedly finished: it cleared
  // tick_in_flight before exiting, so this join returns immediately.
  if (t.tick_thread.joinable()) t.tick_thread.join();
  t.tick_thread = std::thread([this, &t] {
    TickFlagClearer clearer{t.tick_in_flight};
    RunTick(t);
  });
}

bool Database::RunTick(Table& t) {
  Metrics().ticks.Add();
  // Sensor -> decision inputs. Covers and row counts are read under the
  // gate (shared) + per-partition shared locks, like Stats; the histogram
  // snapshot tolerates concurrent recorders.
  WorkloadHistogram::Snapshot snap = t.histogram->Snap();
  std::vector<RepartitionPolicy::PartitionInput> inputs;
  size_t before_bytes = 0;
  {
    RwGate::SharedGuard gate(t.relation.map_gate());
    const size_t n = t.relation.num_partitions();
    inputs.resize(n);
    for (size_t i = 0; i < n; ++i) {
      std::shared_lock<std::shared_mutex> lock(t.relation.partition_mutex(i));
      const Relation& part = t.relation.partition(i);
      before_bytes += part.resident_column_bytes();
      inputs[i].live_rows = part.num_live_rows();
      inputs[i].cover_lo = t.relation.SliceCoverLo(i);
      inputs[i].cover_hi = t.relation.SliceCoverHi(i);
      if (t.adaptive.compression.enabled) {
        inputs[i].compressed = part.compressed();
        inputs[i].compressible =
            !inputs[i].compressed && part.num_deleted() == 0;
      }
      if (i < snap.partitions.size()) {
        inputs[i].accesses = snap.partitions[i].accesses;
        inputs[i].split_candidates = std::move(snap.partitions[i].boundaries);
      }
    }
  }
  const RepartitionDecision decision = t.policy->Tick(inputs);
  t.histogram->Decay(t.adaptive.decay);
  if (decision.kind == RepartitionDecision::Kind::kNone) return false;

  Repartitioner::Hooks hooks;
  hooks.relation = &t.relation;
  hooks.engine = t.engine.get();
  hooks.histogram = t.histogram.get();
  hooks.pool = pool_.get();
  hooks.create_relation = [this](const std::string& name) -> Relation& {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    return catalog_.CreateRelation(name);
  };
  hooks.drop_relation = [this](const std::string& name) {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    catalog_.DropRelation(name);
  };
  hooks.compression = t.adaptive.compression;
  Repartitioner repartitioner(std::move(hooks));
  if (!repartitioner.Execute(decision)) return false;
  t.policy->NoteExecuted(decision);
  switch (decision.kind) {
    case RepartitionDecision::Kind::kSplit:
      t.splits.fetch_add(1, std::memory_order_relaxed);
      Metrics().splits.Add();
      break;
    case RepartitionDecision::Kind::kMerge:
      t.merges.fetch_add(1, std::memory_order_relaxed);
      Metrics().merges.Add();
      break;
    case RepartitionDecision::Kind::kCompress:
      t.compressions.fetch_add(1, std::memory_order_relaxed);
      Metrics().compressions.Add();
      break;
    case RepartitionDecision::Kind::kDecompress:
      t.decompressions.fetch_add(1, std::memory_order_relaxed);
      Metrics().decompressions.Add();
      break;
    case RepartitionDecision::Kind::kNone:
      break;
  }
  // Footprint around the executed action, read like Stats reads layouts
  // (gate shared + per-partition shared locks). Gauges, not counters: the
  // pair answers "what did the last layout action do to the table".
  if (obs::MetricsEnabled()) {
    size_t after_bytes = 0;
    RwGate::SharedGuard gate(t.relation.map_gate());
    for (size_t i = 0; i < t.relation.num_partitions(); ++i) {
      std::shared_lock<std::shared_mutex> lock(t.relation.partition_mutex(i));
      after_bytes += t.relation.partition(i).resident_column_bytes();
    }
    Metrics().footprint_before.Set(static_cast<double>(before_bytes));
    Metrics().footprint_after.Set(static_cast<double>(after_bytes));
  }
  return true;
}

TableStats Database::Stats(const std::string& table) const {
  Table& t = FindTable(table);
  TableStats stats;
  {
    RwGate::SharedGuard gate(t.relation.map_gate());
    // Under the gate the histogram's partition count is stable and
    // matches the map (a swap resets it under the gate held exclusively).
    // Counters only: Stats never reads the boundary sketches.
    WorkloadHistogram::Snapshot hist;
    if (t.histogram != nullptr) {
      hist = t.histogram->Snap(/*with_boundaries=*/false);
    }
    stats.partitions = t.relation.num_partitions();
    const bool range = t.relation.spec().kind == PartitionSpec::Kind::kRange;
    stats.per_partition.resize(stats.partitions);
    for (size_t i = 0; i < stats.partitions; ++i) {
      // Shared: consistent per-partition snapshot that excludes writers
      // and cracking readers but runs concurrently with other snapshots.
      // Also excludes ResetPartitionEngine (exclusive), so the engine
      // name reads below never race a compression-layer engine swap.
      std::shared_lock<std::shared_mutex> lock(t.relation.partition_mutex(i));
      if (i == 0) stats.engine = t.engine->name();
      const Relation& part = t.relation.partition(i);
      PartitionStats& ps = stats.per_partition[i];
      ps.rows = part.num_rows();
      ps.live_rows = part.num_live_rows();
      ps.deleted = part.num_deleted();
      ps.engine = t.engine->partition_engine(i).name();
      ps.codec = part.CodecSummary();
      ps.resident_bytes = part.resident_column_bytes();
      if (range) {
        ps.cover_lo = t.relation.SliceCoverLo(i);
        ps.cover_hi = t.relation.SliceCoverHi(i);
      }
      if (i < hist.partitions.size()) {
        ps.accesses = hist.partitions[i].accesses;
        ps.access_micros = hist.partitions[i].micros;
      }
      stats.rows += ps.rows;
      stats.live_rows += ps.live_rows;
      stats.deleted += ps.deleted;
      stats.resident_column_bytes += ps.resident_bytes;
      if (part.compressed()) ++stats.compressed_partitions;
    }
  }
  stats.queries = t.queries.load(std::memory_order_relaxed);
  stats.inserts = t.inserts.load(std::memory_order_relaxed);
  stats.deletes = t.deletes.load(std::memory_order_relaxed);
  stats.splits = t.splits.load(std::memory_order_relaxed);
  stats.merges = t.merges.load(std::memory_order_relaxed);
  stats.compressions = t.compressions.load(std::memory_order_relaxed);
  stats.decompressions = t.decompressions.load(std::memory_order_relaxed) +
                         t.engine->crack_decompressions();
  stats.encoded_queries = t.engine->encoded_queries();
  stats.bytes_per_row =
      stats.rows == 0 ? 0.0
                      : static_cast<double>(stats.resident_column_bytes) /
                            static_cast<double>(stats.rows);
  stats.cost = t.engine->CostSnapshot();
  return stats;
}

std::vector<std::string> Database::table_names() const {
  std::shared_lock<std::shared_mutex> lock(tables_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

ShardedEngine& Database::engine(const std::string& table) {
  return *FindTable(table).engine;
}

PartitionedRelation& Database::partitions(const std::string& table) {
  return FindTable(table).relation;
}

Database::Table& Database::FindTable(const std::string& table) const {
  Table* t = FindTableOrNull(table);
  if (t == nullptr) Die("unknown table", table);
  return *t;
}

Database::Table* Database::FindTableOrNull(const std::string& table) const {
  std::shared_lock<std::shared_mutex> lock(tables_mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.get();
}

}  // namespace crackdb
