#ifndef CRACKDB_ENGINE_SHARDED_ENGINE_H_
#define CRACKDB_ENGINE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "adaptive/workload_histogram.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/engine_factory.h"
#include "engine/query.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/partitioner.h"

namespace crackdb {

/// Partitioned execution over any engine kind: owns one per-partition
/// engine instance (stamped out by an EngineFactory) and evaluates a batch
/// of QuerySpecs by fanning partition-local sub-queries out across a
/// ThreadPool, then merging the per-partition results per consumption
/// mode and summing the per-partition CostBreakdowns.
///
/// Execute is the one query entry point — a single query is a batch of
/// one. The sub-queries of every spec in a batch are grouped *by
/// partition*, and each partition's group runs as one task submitted with
/// the partition index as its ThreadPool affinity key, under a single
/// acquisition of that partition's lock. A batch of k selective queries on
/// one partition therefore costs one lock round-trip and one scheduling
/// hop instead of k, and the partition's cracked structures stay on their
/// home worker across batches. Clients reach it through the Database
/// facade (Execute / ExecuteBatch / ExecuteAsync).
///
/// Concurrency contract — this is the one engine that IS safe to call from
/// many client threads at once:
///  - cracking engines reorganize their auxiliary structures *during
///    reads*, so every partition sub-query runs under that partition's
///    exclusive lock (PartitionedRelation::partition_mutex); two clients
///    touching disjoint partitions proceed in parallel, two clients
///    cracking the same partition serialize;
///  - all projected attributes are materialized (or folded) inside the
///    lock (the spec's `projections` declaration is binding, as for the
///    chunk-wise engines), so result *merging* happens outside every lock
///    and the returned results own plain value vectors;
///  - writers (the Database facade's insert/delete paths) take the same
///    per-partition locks exclusively, statistics snapshots take them
///    shared. See docs/ARCHITECTURE.md, "Locking discipline";
///  - the partition map itself may be reorganized online (adaptive
///    hot-split/cold-merge): every execution path holds the relation's
///    map_gate() shared while it resolves partition indexes, and the
///    Repartitioner swaps new shards in under the gate held exclusively.
///
/// Range sharding on the organizing attribute additionally prunes
/// partitions whose slice cannot intersect a conjunctive selection on that
/// attribute (hash sharding prunes point predicates), so a converged
/// sharded cracker answers a selective query by locking a single
/// partition.
class ShardedEngine {
 public:
  /// `pool` may be null: partition sub-queries then run sequentially on
  /// the calling thread (still under the per-partition locks, so
  /// multi-client safety is unchanged; this is the throughput-serving
  /// configuration where client threads themselves are the parallelism).
  ShardedEngine(const PartitionedRelation& relation, EngineFactory factory,
                ThreadPool* pool = nullptr);

  /// Drains any pending (batched) registry increments — see FlushMetrics.
  ~ShardedEngine();

  std::string name() const;

  /// Executes `specs` as one scheduled batch (one lock acquisition per
  /// target partition) and returns one tagged result per spec, in order,
  /// consumed per the parallel `consumes`. The pushdown sits below the
  /// partition merge: Count/Aggregate queries compute partial scalars
  /// inside each partition's lock and the merge combines scalars, GroupBy
  /// queries build partial hash-aggregation tables inside the locks and
  /// the merge combines partial tables — no tuple data crosses the merge,
  /// and the result's CostBreakdown attributes exactly zero
  /// reconstruction. Materialize concatenates the per-partition columns
  /// in partition order; ForEach walks them through the visitor instead,
  /// sequentially, on the calling thread. Each partition sees the batch's
  /// sub-queries in batch order, so a batch answers row-for-row like the
  /// same specs executed one by one.
  ///
  /// `traces` is empty or parallel to `specs` (null entries = untraced):
  /// a traced spec records a span per phase — per-partition affine task
  /// (queue wait, lock wait, kernel time) plus the shard merge — all
  /// parented on its trace's root span. Every result carries its
  /// partitions_touched/pruned.
  std::vector<ExecuteResult> Execute(std::span<const QuerySpec> specs,
                                     std::span<const ConsumeSpec> consumes,
                                     std::span<obs::QueryTrace* const> traces);

  /// The partition a spec's first sub-query targets (0 when it targets
  /// none) — the affinity key async callers use to schedule the whole
  /// query next to its data.
  size_t HomePartition(const QuerySpec& spec) const;

  size_t num_partitions() const { return engines_.size(); }
  Engine& partition_engine(size_t i) { return *engines_[i]; }

  /// Partitions a conjunctive/disjunctive spec cannot rule out; exposed
  /// for tests and the bench reporting. Callers racing with adaptive
  /// repartitioning must hold the relation's map gate (ExecuteBatch and
  /// HomePartition do); quiescent callers need nothing.
  std::vector<size_t> TargetPartitions(const QuerySpec& spec) const;

  /// Thread-safe copy of the summed cost breakdown. Also drains pending
  /// registry increments, so a snapshot point doubles as a metrics sync
  /// point.
  CostBreakdown CostSnapshot() const;

  /// Drains the engine's batched registry increments into the global
  /// MetricsRegistry. Per-batch counters accumulate as plain fields under
  /// cost_mu_ (a lock every batch already takes) and flush every
  /// kMetricsFlushBatches batches — plus here, in CostSnapshot, in
  /// SpliceEngines, and at destruction — so the registry lags traffic by
  /// at most a few dozen batches while the hot path pays ~zero atomics.
  /// Readers that compare registry values against per-query costs
  /// (system.metrics fills, the concurrency storm test) call this first.
  void FlushMetrics() const;

  /// Points the execution path at a workload histogram: each partition
  /// group then charges its accesses/latency (and the organizing
  /// predicate boundaries, the split-point candidates) to it. Null
  /// detaches. Set at registration time, before traffic.
  void SetHistogram(WorkloadHistogram* histogram) { histogram_ = histogram; }

  /// The per-partition engine constructor this engine was built with; the
  /// Repartitioner uses it to stamp out engines for fresh shards.
  const EngineFactory& factory() const { return factory_; }

  /// Online repartitioning splice, mirroring
  /// PartitionedRelation::SpliceRange: replaces the engines of partitions
  /// [first, first+removed) with `added` (built over the new shard
  /// relations). Caller holds the relation's map gate exclusively.
  void SpliceEngines(size_t first, size_t removed,
                     std::vector<std::unique_ptr<Engine>> added);

  /// Stamps a fresh engine for partition `p`, dropping every auxiliary
  /// structure (cracker copies, map sets) the old one accumulated. Used
  /// by the compression layer right before a partition's base columns are
  /// compressed — the partition must still be raw, since eager engine
  /// kinds (row) read the base columns at construction. Caller holds the
  /// map gate (shared suffices) and partition `p`'s lock exclusively.
  void ResetPartitionEngine(size_t p);

  /// Compression-path observability: sub-queries answered entirely in the
  /// encoded domain, and crack-on-touch decompressions triggered by
  /// sub-queries the encoded domain could not serve.
  uint64_t encoded_queries() const {
    return encoded_queries_.load(std::memory_order_relaxed);
  }
  uint64_t crack_decompressions() const {
    return crack_decompressions_.load(std::memory_order_relaxed);
  }

 private:
  struct ShardResult {
    std::vector<std::vector<Value>> columns;  // aligned with projections
    size_t num_rows = 0;
    /// Scalar consumption partials (kCount/kAggregate sub-queries).
    Value aggregate = 0;
    bool aggregate_valid = false;
    /// Grouped consumption partial (kGroupBy sub-queries): this
    /// partition's local hash-aggregation table, built under its lock; the
    /// merge combines partials on the caller thread.
    GroupedTable groups;
    /// This sub-query's cost attribution on its partition.
    CostBreakdown cost;
  };

  /// ExecuteBatch's return: per spec, one ShardResult per target
  /// partition in partition order, plus the partition count the batch
  /// ran against (gate-stable, so pruning stats don't race the
  /// repartitioner).
  struct BatchOutput {
    std::vector<std::vector<ShardResult>> results;
    size_t num_partitions = 0;
  };

  /// The scheduling half of Execute. Groups the sub-queries of `specs` by
  /// target partition, runs each partition's group as one affine task
  /// under a single partition-lock acquisition (materializing every
  /// declared projection — or, for scalar consumption, folding partials —
  /// inside the lock), and sums the cost deltas into cost_. `consumes` is
  /// parallel to `specs`, as is `traces` when non-empty (null entries =
  /// untraced). Falls back to inline execution without a pool, with a
  /// single target group, or when called from a pool worker (an async
  /// query's own task must not block on the pool).
  BatchOutput ExecuteBatch(std::span<const QuerySpec> specs,
                           std::span<const ConsumeSpec> consumes,
                           std::span<obs::QueryTrace* const> traces);

  /// The merging half of Execute: combines a spec's per-partition
  /// ShardResults per its consumption mode, outside every lock — scalar
  /// modes merge counts/aggregates (no tuple data moves), GroupBy merges
  /// partial tables, ForEach walks the per-partition columns through the
  /// visitor, Materialize concatenates them in partition order. Sums the
  /// per-shard cost attributions into the result's cost, charges the
  /// merge's own time once (to the result, cost_, and the registry),
  /// stamps partitions_touched/pruned from `num_partitions`, and (when
  /// `trace` is non-null) records the merge span.
  ExecuteResult MergeExecute(const QuerySpec& spec, const ConsumeSpec& consume,
                             std::vector<ShardResult> shards,
                             obs::QueryTrace* trace, size_t num_partitions);

  /// Rebuilds the per-partition registry counter family
  /// (`engine_partition_subqueries_total{table=...,partition=...}`) to
  /// match engines_.size(). Constructor, and SpliceEngines under the
  /// exclusively-held map gate (readers hold it shared).
  void RefreshPartitionCounters();

  /// Registry increments batched between flushes; guarded by cost_mu_.
  /// Mutable (with FlushMetricsLocked const) so const snapshot paths can
  /// drain it.
  struct PendingMetrics {
    bool dirty = false;  // anything below nonzero since the last flush
    uint64_t batches = 0;
    uint64_t subqueries = 0;
    uint64_t groups = 0;
    uint64_t pruned = 0;
    double select_micros = 0.0;
    double reconstruct_micros = 0.0;
    double prepare_micros = 0.0;
    double merge_micros = 0.0;
    /// Sub-queries served per partition since the last flush; sized to
    /// engines_.size() lazily (SpliceEngines flushes before indexes
    /// shift, so entries never survive a partition-map change).
    std::vector<uint64_t> per_partition;
  };

  /// FlushMetrics with cost_mu_ already held.
  void FlushMetricsLocked() const;

  const PartitionedRelation* relation_;
  EngineFactory factory_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<obs::Counter*> partition_counters_;
  ThreadPool* pool_;
  WorkloadHistogram* histogram_ = nullptr;
  mutable std::mutex cost_mu_;
  /// Summed per-query cost attribution; guarded by cost_mu_.
  CostBreakdown cost_;
  mutable PendingMetrics pending_;
  /// Batch sequence for the 1-in-64 sampling of the group-latency
  /// histogram (engine_group_micros); relaxed — ordering is irrelevant.
  std::atomic<uint64_t> group_seq_{0};
  std::atomic<uint64_t> encoded_queries_{0};
  std::atomic<uint64_t> crack_decompressions_{0};
};

}  // namespace crackdb

#endif  // CRACKDB_ENGINE_SHARDED_ENGINE_H_
