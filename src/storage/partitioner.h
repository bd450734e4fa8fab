#ifndef CRACKDB_STORAGE_PARTITIONER_H_
#define CRACKDB_STORAGE_PARTITIONER_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/rw_gate.h"
#include "common/types.h"
#include "storage/catalog.h"
#include "storage/relation.h"

namespace crackdb {

/// How a relation is sharded across partitions. Rows are routed by one
/// *organizing attribute*: range partitioning slices its value domain into
/// `num_partitions` contiguous slices (values outside [domain_lo,
/// domain_hi] clamp into the edge partitions), hash partitioning scatters
/// by a mixed hash of the value. Range sharding keeps the organizing
/// attribute's locality, so selections on it can skip whole partitions;
/// hash sharding balances skewed domains and still prunes point lookups.
struct PartitionSpec {
  enum class Kind { kRange, kHash };

  Kind kind = Kind::kHash;
  size_t num_partitions = 1;
  /// The organizing attribute rows are routed on.
  std::string column;
  /// Range kind only: the domain that is sliced. Ignored for kHash.
  Value domain_lo = 0;
  Value domain_hi = 0;
};

/// A logical relation physically stored as `num_partitions` partition-local
/// `Relation`s (registered in the owning `Catalog` as `<name>#p<i>`), plus
/// the routing state that makes the shards look like one table:
///
///  - a *global key* space: every row ever appended gets a dense global
///    key, and `Locate` maps it to its (partition, local key) — partition
///    relations keep their own dense key spaces so every per-partition
///    structure (cracker maps, pending queues, ripple logs) works
///    unchanged;
///  - a per-partition `std::shared_mutex` that the execution layer uses to
///    serialize cracking readers and writers partition by partition (see
///    docs/ARCHITECTURE.md, "Locking discipline") — this class itself does
///    NOT synchronize: `Append`, `Delete`, and `Locate` touch the shared
///    router state and must run under the owner's writer lock.
class PartitionedRelation {
 public:
  /// Use Partitioner::Partition to construct.
  PartitionedRelation(std::string name, PartitionSpec spec,
                      std::vector<Relation*> partitions,
                      size_t organizing_ordinal);

  PartitionedRelation(const PartitionedRelation&) = delete;
  PartitionedRelation& operator=(const PartitionedRelation&) = delete;
  PartitionedRelation(PartitionedRelation&&) = default;

  const std::string& name() const { return name_; }
  const PartitionSpec& spec() const { return spec_; }
  size_t num_partitions() const { return partitions_.size(); }

  Relation& partition(size_t i) { return *partitions_[i]; }
  const Relation& partition(size_t i) const { return *partitions_[i]; }

  /// The lock guarding partition `i`'s relation *and* every auxiliary
  /// structure built over it. Exclusive: queries that crack, writers.
  /// Shared: pure introspection (statistics snapshots).
  std::shared_mutex& partition_mutex(size_t i) const {
    return mutexes_[i]->mu;
  }

  /// The gate guarding the partition *map itself* (the partitions_,
  /// mutexes_, slice_starts_, key_map_ vectors) against adaptive
  /// repartitioning. Every path that resolves a partition index into a
  /// relation/engine/mutex — queries, writers, statistics — holds it
  /// shared for the duration of that use; the Repartitioner's swap phase
  /// holds it exclusively while it splices the map. Pool workers enter it
  /// with `urgent = true` (see RwGate) so queued query tasks can never
  /// deadlock against a waiting swap. With adaptivity off the gate is
  /// never taken exclusively and shared entry is one uncontended
  /// mutex round-trip.
  RwGate& map_gate() const { return gate_->gate; }

  size_t organizing_ordinal() const { return organizing_ordinal_; }

  /// Partition a row with this organizing-attribute value routes to.
  size_t PartitionOf(Value organizing_value) const;

  /// False only when partition `i` provably holds no row whose organizing
  /// value satisfies `pred` — the partition-pruning test. Range sharding
  /// prunes by slice bounds; hash sharding prunes point predicates.
  bool MayContain(size_t i, const RangePredicate& pred) const;

  /// Routes and appends one tuple; returns its global key. Caller holds
  /// the owner's writer lock and the target partition's exclusive lock
  /// (use PartitionOf(values[organizing_ordinal()]) to find the target).
  Key Append(std::span<const Value> values);

  /// As Append, but with the target partition already routed — callers
  /// that computed PartitionOf to take the partition lock pass it here
  /// instead of routing twice. `target` must equal
  /// PartitionOf(values[organizing_ordinal()]).
  Key AppendTo(size_t target, std::span<const Value> values);

  /// Tombstones the row with this global key in its partition. Returns
  /// false if the key is unknown or the row was already dead. Caller holds
  /// the owner's writer lock and the partition's exclusive lock.
  bool Delete(Key global_key);

  struct Location {
    uint32_t partition = 0;
    Key local_key = kInvalidKey;
  };
  std::optional<Location> Locate(Key global_key) const;

  /// Number of global keys ever issued (== sum of partition num_rows()).
  size_t num_rows() const { return key_map_.size(); }
  size_t num_live_rows() const;

  /// Range kind: the first domain value slice `i` covers. (Edge slices
  /// additionally absorb clamped out-of-domain values; covers are what
  /// routing decisions are made on.)
  Value SliceCoverLo(size_t i) const;
  /// Range kind: the last domain value slice `i` covers.
  Value SliceCoverHi(size_t i) const;

  /// Hands out the next partition-relation suffix (`<name>#p<id>`), so
  /// relations created by repartitioning never collide with live or
  /// retired shards. Called only by the (single in-flight) Repartitioner.
  size_t AllocatePartitionId() { return next_partition_id_++; }

  /// Online repartitioning splice: replaces partitions [first,
  /// first+removed) with `added` relations whose slices start at `starts`
  /// (covering exactly the replaced range), rewriting the global-key
  /// router via `remap`, where remap[j][old_local] is the (index into
  /// `added`, new local key) every row of replaced partition first+j
  /// moved to. Range kind only. Caller holds map_gate() exclusively and
  /// guarantees the added relations hold row-for-row (and
  /// tombstone-for-tombstone) the same logical tuples as the replaced
  /// ones.
  void SpliceRange(size_t first, size_t removed,
                   std::vector<Relation*> added, std::vector<Value> starts,
                   const std::vector<std::vector<Location>>& remap);

 private:
  friend class Partitioner;

  // shared_mutex is neither movable nor copyable; box it so the
  // PartitionedRelation itself stays movable.
  struct MutexBox {
    mutable std::shared_mutex mu;
  };
  struct GateBox {
    mutable RwGate gate;
  };

  std::string name_;
  PartitionSpec spec_;
  std::vector<Relation*> partitions_;  // owned by the Catalog
  std::vector<std::unique_ptr<MutexBox>> mutexes_;
  std::unique_ptr<GateBox> gate_ = std::make_unique<GateBox>();
  size_t organizing_ordinal_ = 0;
  /// Range kind: slice i covers [slice_starts_[i], slice_starts_[i+1]).
  std::vector<Value> slice_starts_;
  std::vector<Location> key_map_;  // global key -> location
  /// Next `#p<id>` suffix; starts past the load-time shards and only
  /// grows, so repartitioning never reuses a relation name.
  size_t next_partition_id_ = 0;
};

/// Builds PartitionedRelations.
class Partitioner {
 public:
  /// Shards `source` row by row into `spec.num_partitions` fresh relations
  /// created in `catalog` (named `<source>#p<i>`). Global keys equal source
  /// keys, and tombstones are replicated, so a query against the shards
  /// answers exactly like one against `source`. Engines over the partitions
  /// must be created *after* this call (the replicated tombstones are
  /// logged as delete events in the partition logs).
  /// Dies when Validate rejects the arguments.
  static PartitionedRelation Partition(Catalog* catalog,
                                       const Relation& source,
                                       const PartitionSpec& spec);

  /// "" when Partition(catalog, source, spec) can run; otherwise the first
  /// reason it cannot: zero partitions, an organizing column `source`
  /// lacks, an inverted range domain, or a partition name `catalog`
  /// already holds. Has no side effects.
  static std::string Validate(const Catalog& catalog, const Relation& source,
                              const PartitionSpec& spec);
};

}  // namespace crackdb

#endif  // CRACKDB_STORAGE_PARTITIONER_H_
