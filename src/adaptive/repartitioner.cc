#include "adaptive/repartitioner.h"

#include <algorithm>
#include <future>
#include <shared_mutex>
#include <utility>

#include "common/die.h"

namespace crackdb {

Repartitioner::Repartitioner(Hooks hooks) : hooks_(std::move(hooks)) {
  if (hooks_.relation == nullptr || hooks_.engine == nullptr ||
      !hooks_.create_relation) {
    Die("repartitioner", "incomplete hooks",
        "relation/engine/create_relation are required");
  }
}

bool Repartitioner::Execute(const RepartitionDecision& decision) {
  switch (decision.kind) {
    case RepartitionDecision::Kind::kSplit:
      return ExecuteSplit(decision.partition, decision.split_value);
    case RepartitionDecision::Kind::kMerge:
      return ExecuteMerge(decision.partition);
    case RepartitionDecision::Kind::kNone:
      return false;
  }
  return false;
}

Repartitioner::ShardSnapshot Repartitioner::SnapshotShard(size_t partition) {
  PartitionedRelation& relation = *hooks_.relation;
  const Relation& shard = relation.partition(partition);
  ShardSnapshot snap;
  snap.old_relation = &shard;
  snap.old_name = shard.name();
  // A compressed shard decompresses first (under the exclusive lock): the
  // column copy below reads the raw vectors, and split/merge result
  // shards are always born raw. Only a compress-on-load partition that
  // turned hot or cold while encoded-servable queries kept it compressed
  // reaches this.
  {
    std::shared_lock<std::shared_mutex> peek(
        relation.partition_mutex(partition));
    const bool compressed = shard.compressed();
    peek.unlock();
    if (compressed) {
      std::unique_lock<std::shared_mutex> exclusive(
          relation.partition_mutex(partition));
      shard.Decompress();  // idempotent if raced
    }
  }
  // Shared: excludes writers and cracking queries on this one partition
  // for the duration of a column copy; everything else proceeds.
  std::shared_lock<std::shared_mutex> lock(
      relation.partition_mutex(partition));
  snap.rows = shard.num_rows();
  snap.log_version = shard.log_version();
  snap.deleted = shard.deleted();
  snap.columns.reserve(shard.num_columns());
  for (size_t c = 0; c < shard.num_columns(); ++c) {
    snap.columns.push_back(shard.column(c).values());
  }
  return snap;
}

Relation& Repartitioner::CreateShard(
    const std::vector<std::string>& column_names) {
  const size_t id = hooks_.relation->AllocatePartitionId();
  Relation& shard = hooks_.create_relation(hooks_.relation->name() + "#p" +
                                           std::to_string(id));
  for (const std::string& name : column_names) shard.AddColumn(name);
  return shard;
}

std::vector<std::unique_ptr<Engine>> Repartitioner::BuildEngines(
    const std::vector<Relation*>& shards, size_t first_index) {
  const EngineFactory& factory = hooks_.engine->factory();
  std::vector<std::unique_ptr<Engine>> engines(shards.size());
  auto build = [&](size_t j) {
    engines[j] = factory(*shards[j]);
    if (engines[j] == nullptr) {
      Die("repartitioner", "factory returned null", shards[j]->name());
    }
  };
  // Construct each engine on its future home worker (the affinity key the
  // sharded scheduler will use), so presort/index state is born
  // core-local. Inline without a pool; never block on the pool from
  // inside it.
  if (hooks_.pool != nullptr && !hooks_.pool->InWorkerThread()) {
    std::vector<std::future<void>> futures;
    futures.reserve(shards.size());
    for (size_t j = 0; j < shards.size(); ++j) {
      futures.push_back(hooks_.pool->Submit(first_index + j,
                                            [&build, j] { build(j); }));
    }
    for (std::future<void>& future : futures) future.get();
  } else {
    for (size_t j = 0; j < shards.size(); ++j) build(j);
  }
  return engines;
}

namespace {

/// Replays `snap`'s update-log suffix (writes that landed between the
/// snapshot and the swap) into the new shards: inserts re-route by
/// organizing value, deletes follow the remap. Extends `remap` so it
/// covers every row the old shard ever held. Caller holds the map gate
/// exclusively, so the old shard is quiescent.
void ReplayDelta(const Repartitioner::Hooks& hooks, const Relation& old_shard,
                 size_t from_version, const std::vector<Relation*>& shards,
                 const std::function<uint32_t(Value)>& route,
                 std::vector<PartitionedRelation::Location>* remap) {
  const size_t organizing = hooks.relation->organizing_ordinal();
  std::vector<Value> row(old_shard.num_columns());
  for (size_t e = from_version; e < old_shard.log_version(); ++e) {
    const UpdateEvent& event = old_shard.log_entry(e);
    if (event.kind == UpdateEvent::Kind::kInsert) {
      const Key key = event.key;
      for (size_t c = 0; c < row.size(); ++c) {
        row[c] = old_shard.column(c)[key];
      }
      const uint32_t j = route(row[organizing]);
      // AppendRow (not BulkLoadRow): the new shard's engines were built
      // before the swap, so they absorb these rows through their normal
      // pending/ripple watermarks, exactly like any live insert.
      const Key local = shards[j]->AppendRow(row);
      if (key >= remap->size()) {
        remap->resize(key + 1, {0, kInvalidKey});
      }
      (*remap)[key] = {j, local};
    } else {
      const PartitionedRelation::Location& to = (*remap)[event.key];
      shards[to.partition]->DeleteRow(to.local_key);
    }
  }
}

}  // namespace

bool Repartitioner::ExecuteSplit(size_t partition, Value split_value) {
  PartitionedRelation& relation = *hooks_.relation;

  Value slice_start = 0;
  ShardSnapshot snap;
  {
    RwGate::SharedGuard gate(relation.map_gate());
    if (relation.spec().kind != PartitionSpec::Kind::kRange) return false;
    if (partition >= relation.num_partitions()) return false;
    if (split_value <= relation.SliceCoverLo(partition) ||
        split_value > relation.SliceCoverHi(partition)) {
      return false;
    }
    slice_start = relation.SliceCoverLo(partition);
    snap = SnapshotShard(partition);
  }

  // Build phase — no locks. Only this (single in-flight) repartition
  // mutates the map, so the validated geometry cannot go stale.
  const Value domain_lo = relation.spec().domain_lo;
  const Value domain_hi = relation.spec().domain_hi;
  auto route = [domain_lo, domain_hi, split_value](Value v) -> uint32_t {
    return std::clamp(v, domain_lo, domain_hi) < split_value ? 0u : 1u;
  };
  const std::vector<std::string>& column_names =
      snap.old_relation->column_names();
  std::vector<Relation*> shards{&CreateShard(column_names),
                                &CreateShard(column_names)};
  const size_t organizing = relation.organizing_ordinal();
  // Built in SpliceRange's parameter shape up front, so nothing is copied
  // inside the stop-the-world swap window below.
  std::vector<std::vector<PartitionedRelation::Location>> remaps(1);
  std::vector<PartitionedRelation::Location>& remap = remaps[0];
  remap.resize(snap.rows);
  std::vector<Value> row(column_names.size());
  for (size_t k = 0; k < snap.rows; ++k) {
    for (size_t c = 0; c < row.size(); ++c) row[c] = snap.columns[c][k];
    const uint32_t j = route(row[organizing]);
    const Key local = shards[j]->BulkLoadRow(row);
    remap[k] = {j, local};
    if (snap.deleted[k]) shards[j]->DeleteRow(local);
  }
  std::vector<std::unique_ptr<Engine>> engines =
      BuildEngines(shards, partition);

  {
    RwGate::ExclusiveGuard gate(relation.map_gate());
    ReplayDelta(hooks_, *snap.old_relation, snap.log_version, shards, route,
                &remap);
    relation.SpliceRange(partition, 1, shards, {slice_start, split_value},
                         remaps);
    hooks_.engine->SpliceEngines(partition, 1, std::move(engines));
    if (hooks_.histogram != nullptr) {
      hooks_.histogram->Reset(relation.num_partitions());
    }
  }
  if (hooks_.drop_relation) hooks_.drop_relation(snap.old_name);
  return true;
}

bool Repartitioner::ExecuteMerge(size_t left) {
  PartitionedRelation& relation = *hooks_.relation;

  Value slice_start = 0;
  ShardSnapshot snap_left;
  ShardSnapshot snap_right;
  {
    RwGate::SharedGuard gate(relation.map_gate());
    if (relation.spec().kind != PartitionSpec::Kind::kRange) return false;
    if (left + 1 >= relation.num_partitions()) return false;
    slice_start = relation.SliceCoverLo(left);
    // Degenerate geometries (more load-time partitions than domain
    // values) have zero-width or beyond-domain slices; a merge whose
    // result would be unreachable or would collide with the next
    // surviving slice start is not executable — decline, don't die.
    if (slice_start > relation.spec().domain_hi) return false;
    if (left + 2 < relation.num_partitions() &&
        relation.SliceCoverLo(left + 2) <= slice_start) {
      return false;
    }
    // One shard lock at a time; the two snapshots carry independent log
    // watermarks and the replay reconciles each on its own.
    snap_left = SnapshotShard(left);
    snap_right = SnapshotShard(left + 1);
  }

  const std::vector<std::string>& column_names =
      snap_left.old_relation->column_names();
  std::vector<Relation*> shards{&CreateShard(column_names)};
  auto route = [](Value) -> uint32_t { return 0; };
  std::vector<Value> row(column_names.size());
  std::vector<std::vector<PartitionedRelation::Location>> remaps(2);
  const ShardSnapshot* snaps[2] = {&snap_left, &snap_right};
  for (size_t side = 0; side < 2; ++side) {
    const ShardSnapshot& snap = *snaps[side];
    remaps[side].resize(snap.rows);
    for (size_t k = 0; k < snap.rows; ++k) {
      for (size_t c = 0; c < row.size(); ++c) row[c] = snap.columns[c][k];
      const Key local = shards[0]->BulkLoadRow(row);
      remaps[side][k] = {0, local};
      if (snap.deleted[k]) shards[0]->DeleteRow(local);
    }
  }
  std::vector<std::unique_ptr<Engine>> engines = BuildEngines(shards, left);

  {
    RwGate::ExclusiveGuard gate(relation.map_gate());
    ReplayDelta(hooks_, *snap_left.old_relation, snap_left.log_version,
                shards, route, &remaps[0]);
    ReplayDelta(hooks_, *snap_right.old_relation, snap_right.log_version,
                shards, route, &remaps[1]);
    relation.SpliceRange(left, 2, shards, {slice_start}, remaps);
    hooks_.engine->SpliceEngines(left, 2, std::move(engines));
    if (hooks_.histogram != nullptr) {
      hooks_.histogram->Reset(relation.num_partitions());
    }
  }
  if (hooks_.drop_relation) {
    hooks_.drop_relation(snap_left.old_name);
    hooks_.drop_relation(snap_right.old_name);
  }
  return true;
}

}  // namespace crackdb
