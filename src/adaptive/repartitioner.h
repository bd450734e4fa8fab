#ifndef CRACKDB_ADAPTIVE_REPARTITIONER_H_
#define CRACKDB_ADAPTIVE_REPARTITIONER_H_

#include <functional>
#include <string>
#include <vector>

#include "adaptive/repartition_policy.h"
#include "adaptive/workload_histogram.h"
#include "common/thread_pool.h"
#include "engine/sharded_engine.h"
#include "storage/partitioner.h"
#include "storage/relation.h"

namespace crackdb {

/// Executes one RepartitionDecision as an *online* operation against a
/// live table. The protocol keeps the expensive work off the serving
/// critical path:
///
///  1. **Snapshot** (map gate shared + partition lock shared): copy the
///     replaced shard's rows, tombstones, and log watermark. Queries on
///     other partitions are untouched; queries on the replaced shard wait
///     only for a column memcpy, not for the rebuild.
///  2. **Build** (no locks): route the snapshot into fresh shard
///     relations (created in the catalog through a hook), replicate
///     tombstones, and construct the new per-shard engines — on the
///     affine ThreadPool when one is available, with the target partition
///     index as the affinity key, so each new shard's structures are born
///     on their future home worker.
///  3. **Swap** (map gate exclusive): replay the shard's update-log
///     suffix (writes that landed during the build) into the new
///     relations — their engines absorb these lazily through the normal
///     pending/ripple watermarks — then splice relations, slice starts,
///     mutexes, the global-key router, and the engines, and reset the
///     workload histogram to the new partition count. Pure in-memory
///     surgery: the swap never blocks on the pool, which is what makes
///     the RwGate protocol deadlock-free.
///
/// Afterwards the retired shard relations are dropped from the catalog
/// (nothing can reference them once the swap completed). Results are
/// row-for-row identical to never having repartitioned: global keys are
/// stable, tombstones travel with their rows, and the log replay makes
/// the new shards hold exactly the rows the old one held at swap time.
///
/// One Execute runs at a time per table (the Database's in-flight flag);
/// never call it from a pool worker of the same pool (the build phase
/// blocks on engine-construction futures).
class Repartitioner {
 public:
  /// Everything the repartitioner is allowed to touch, handed down by the
  /// Database so the subsystem needs no friend access to the facade.
  struct Hooks {
    PartitionedRelation* relation = nullptr;
    ShardedEngine* engine = nullptr;
    WorkloadHistogram* histogram = nullptr;  // may be null
    ThreadPool* pool = nullptr;              // may be null
    /// Creates an empty relation in the owning catalog (the Database
    /// takes its tables lock inside). Called with no other lock held.
    std::function<Relation&(const std::string&)> create_relation;
    /// Drops a retired shard relation; called after the swap, with no
    /// lock held. May be empty (retired shards then leak until teardown).
    std::function<void(const std::string&)> drop_relation;
  };

  explicit Repartitioner(Hooks hooks);

  /// Executes one decision — a split or a merge. Returns false, leaving
  /// the table untouched, when the decision does not match the table's
  /// state — wrong kind, out-of-range index, split value outside the slice
  /// cover, a merge whose result slice would be unreachable.
  bool Execute(const RepartitionDecision& decision);

 private:
  /// One replaced shard's state captured in the snapshot phase.
  struct ShardSnapshot {
    const Relation* old_relation = nullptr;
    std::string old_name;
    size_t rows = 0;         // rows at snapshot time
    size_t log_version = 0;  // watermark the swap replays from
    std::vector<std::vector<Value>> columns;  // [ordinal][local key]
    std::vector<bool> deleted;
  };

  bool ExecuteSplit(size_t partition, Value split_value);
  bool ExecuteMerge(size_t left);

  ShardSnapshot SnapshotShard(size_t partition);
  Relation& CreateShard(const std::vector<std::string>& column_names);
  std::vector<std::unique_ptr<Engine>> BuildEngines(
      const std::vector<Relation*>& shards, size_t first_index);

  Hooks hooks_;
};

}  // namespace crackdb

#endif  // CRACKDB_ADAPTIVE_REPARTITIONER_H_
