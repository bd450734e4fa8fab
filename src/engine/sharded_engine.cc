#include "engine/sharded_engine.h"

#include <iterator>
#include <cstdio>
#include <cstdlib>
#include <shared_mutex>

#include "common/timer.h"
#include "engine/group_table.h"
#include "kernels/kernels.h"
#include "storage/codec.h"

namespace crackdb {

namespace {

[[noreturn]] void Die(const char* what, const std::string& detail) {
  std::fprintf(stderr, "sharded engine: %s: %s\n", what, detail.c_str());
  std::abort();
}

/// Registry handles resolved once per process. The micros totals mirror
/// the per-query CostBreakdown attribution exactly (the concurrency storm
/// test checks registry deltas against summed per-query costs), so
/// whatever lands in a result's cost also lands here — including the
/// grouped merge (select-side) and the materialize/visit merges
/// (reconstruct-side). Hot-path updates are *batched*: they accumulate as
/// plain fields (PendingMetrics) under cost_mu_, which the batch epilogue
/// takes anyway, and drain every kMetricsFlushBatches batches (or at any
/// CostSnapshot/FlushMetrics sync point) — the per-batch hot-path price
/// of the whole engine family is a handful of non-atomic adds under an
/// already-held lock. docs/OBSERVABILITY.md has the inventory.
struct EngineMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& batches = reg.GetCounter("engine_batches_total");
  obs::Counter& subqueries = reg.GetCounter("engine_subqueries_total");
  obs::Counter& groups = reg.GetCounter("engine_partition_groups_total");
  obs::Counter& pruned = reg.GetCounter("engine_partitions_pruned_total");
  obs::Counter& lock_wait =
      reg.GetCounter("engine_lock_wait_micros_total");
  obs::Counter& select_micros =
      reg.GetCounter("engine_select_micros_total");
  obs::Counter& reconstruct_micros =
      reg.GetCounter("engine_reconstruct_micros_total");
  obs::Counter& prepare_micros =
      reg.GetCounter("engine_prepare_micros_total");
  obs::Counter& merge_micros = reg.GetCounter("engine_merge_micros_total");
  obs::Counter& encoded = reg.GetCounter("engine_encoded_subqueries_total");
  obs::Counter& decompress =
      reg.GetCounter("engine_crack_decompress_total");
  obs::Histogram& group_micros = reg.GetHistogram("engine_group_micros");
};

EngineMetrics& Metrics() {
  static EngineMetrics* metrics = new EngineMetrics();
  return *metrics;
}

/// Pending registry increments drain every this-many batches. Large
/// enough that the drain's atomic adds amortize to noise, small enough
/// that `system.metrics` under steady traffic lags by well under a
/// second.
constexpr uint64_t kMetricsFlushBatches = 64;

/// Sampling mask for the group-latency histogram: the groups of one
/// batch in 64 pay the clock read and the histogram update. The
/// distribution shape and mean survive uniform sampling; the exact
/// population count lives in engine_partition_groups_total.
constexpr uint64_t kGroupSampleMask = 63;

/// True when a sub-query can be answered in a compressed partition's
/// encoded domain, without touching (or building) any cracked structure:
/// scalar consumption (Count, or an Aggregate other than COUNT — plain
/// COUNT arrives as ConsumeKind::kCount), at most one selection, and no
/// tombstones (the encoded scans are tombstone-blind; Relation::Compress
/// enforces the same invariant, so this check is defensive).
bool EncodedServable(const Relation& part, const QuerySpec& spec,
                     const ConsumeSpec& consume) {
  if (consume.kind == ConsumeKind::kAggregate) {
    if (consume.op == AggregateOp::kCount) return false;
  } else if (consume.kind != ConsumeKind::kCount) {
    return false;
  }
  return spec.selections.size() <= 1 && part.num_deleted() == 0;
}

/// Answers one encoded-servable sub-query straight off the partition's
/// current layout. Individual columns may still be raw (ChooseCodec keeps
/// incompressible ones raw): raw columns go through the regular dispatched
/// kernels over their value vectors, encoded ones through the codec's
/// encoded-domain kernels. Either way the partition's layout is unchanged
/// and the fold order matches the raw path position-for-position, so sums
/// (mod 2^64) and min/max land bit-identical to the decompressed answer.
void ServeEncoded(const Relation& part, const QuerySpec& spec,
                  const ConsumeSpec& consume, size_t* num_rows,
                  Value* aggregate, bool* aggregate_valid) {
  const QuerySpec::Selection* sel =
      spec.selections.empty() ? nullptr : &spec.selections[0];
  const Column* sel_col = sel == nullptr ? nullptr : &part.column(sel->attr);
  if (consume.kind == ConsumeKind::kCount) {
    if (sel == nullptr) {
      *num_rows = part.num_rows();
    } else if (sel_col->compressed()) {
      *num_rows = EncodedCount(*sel_col->encoded(), sel->pred);
    } else {
      *num_rows = kernels::CountRange(sel_col->values().data(),
                                      sel_col->size(), sel->pred);
    }
    return;
  }
  const Column& agg = part.column(consume.attr);
  const kernels::FoldOp op = ToFoldOp(consume.op);
  if (sel == nullptr) {
    *num_rows = part.num_rows();
    if (agg.compressed()) {
      EncodedFold(*agg.encoded(), op, aggregate, aggregate_valid);
    } else {
      kernels::FoldSpan(op, agg.values().data(), agg.size(), aggregate,
                        aggregate_valid);
    }
    return;
  }
  if (sel->attr == consume.attr && agg.compressed()) {
    // Filter and fold in one encoded pass over the same column.
    *num_rows = EncodedFoldFiltered(*agg.encoded(), sel->pred, op, aggregate,
                                    aggregate_valid);
    return;
  }
  // Two-column (or raw-selection) shape: matching positions off the
  // selection column, then fold the aggregate column at those positions.
  std::vector<Key> keys;
  if (sel_col->compressed()) {
    EncodedSelect(*sel_col->encoded(), sel->pred, 0, &keys);
  } else {
    kernels::SelectRange(sel_col->values().data(), sel_col->size(), sel->pred,
                         0, &keys);
  }
  *num_rows = keys.size();
  if (keys.empty()) return;
  if (agg.compressed()) {
    EncodedGatherFold(*agg.encoded(), keys, op, aggregate, aggregate_valid);
  } else {
    kernels::FoldGather(op, agg.values().data(), keys.data(), keys.size(),
                        aggregate, aggregate_valid);
  }
}

}  // namespace

ShardedEngine::ShardedEngine(const PartitionedRelation& relation,
                             EngineFactory factory, ThreadPool* pool)
    : relation_(&relation), factory_(std::move(factory)), pool_(pool) {
  if (!factory_) Die("null engine factory", relation.name());
  engines_.reserve(relation.num_partitions());
  for (size_t i = 0; i < relation.num_partitions(); ++i) {
    engines_.push_back(factory_(relation.partition(i)));
    if (engines_.back() == nullptr) {
      Die("factory returned null", relation.name());
    }
  }
  RefreshPartitionCounters();
}

ShardedEngine::~ShardedEngine() { FlushMetrics(); }

void ShardedEngine::FlushMetrics() const {
  std::lock_guard<std::mutex> lock(cost_mu_);
  FlushMetricsLocked();
}

void ShardedEngine::FlushMetricsLocked() const {
  if (!pending_.dirty) return;
  // AddAlways: these increments were gathered while metrics were enabled;
  // a toggle since then must not drop them.
  EngineMetrics& m = Metrics();
  m.batches.AddAlways(static_cast<double>(pending_.batches));
  m.subqueries.AddAlways(static_cast<double>(pending_.subqueries));
  m.groups.AddAlways(static_cast<double>(pending_.groups));
  m.pruned.AddAlways(static_cast<double>(pending_.pruned));
  m.select_micros.AddAlways(pending_.select_micros);
  m.reconstruct_micros.AddAlways(pending_.reconstruct_micros);
  m.prepare_micros.AddAlways(pending_.prepare_micros);
  m.merge_micros.AddAlways(pending_.merge_micros);
  for (size_t p = 0;
       p < pending_.per_partition.size() && p < partition_counters_.size();
       ++p) {
    if (pending_.per_partition[p] > 0) {
      partition_counters_[p]->AddAlways(
          static_cast<double>(pending_.per_partition[p]));
    }
  }
  pending_ = PendingMetrics{};
}

void ShardedEngine::RefreshPartitionCounters() {
  partition_counters_.clear();
  partition_counters_.reserve(engines_.size());
  const std::string family =
      obs::WithLabel("engine_partition_subqueries_total", "table",
                     relation_->name());
  for (size_t i = 0; i < engines_.size(); ++i) {
    partition_counters_.push_back(&obs::MetricsRegistry::Global().GetCounter(
        obs::WithLabel(family, "partition", static_cast<int64_t>(i))));
  }
}

std::string ShardedEngine::name() const {
  return "sharded<" + engines_[0]->name() + ">";
}

std::vector<size_t> ShardedEngine::TargetPartitions(
    const QuerySpec& spec) const {
  const size_t n = engines_.size();
  const std::string& organizing = relation_->spec().column;
  std::vector<size_t> targets;
  targets.reserve(n);

  // Disjunctions can only prune when *every* disjunct is on the organizing
  // attribute (any other attribute may qualify rows anywhere).
  bool disjunctive_prunable = spec.disjunctive && !spec.selections.empty();
  if (disjunctive_prunable) {
    for (const QuerySpec::Selection& sel : spec.selections) {
      if (sel.attr != organizing) {
        disjunctive_prunable = false;
        break;
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    bool keep = true;
    if (!spec.disjunctive) {
      for (const QuerySpec::Selection& sel : spec.selections) {
        if (sel.attr == organizing && !relation_->MayContain(i, sel.pred)) {
          keep = false;
          break;
        }
      }
    } else if (disjunctive_prunable) {
      keep = false;
      for (const QuerySpec::Selection& sel : spec.selections) {
        if (relation_->MayContain(i, sel.pred)) {
          keep = true;
          break;
        }
      }
    }
    if (keep) targets.push_back(i);
  }
  return targets;
}

size_t ShardedEngine::HomePartition(const QuerySpec& spec) const {
  // Separate gate acquisition from the later ExecuteBatch one: affinity is
  // a hint, staleness across a repartition in between is harmless.
  RwGate::SharedGuard map_guard(relation_->map_gate(),
                                pool_ != nullptr && pool_->InWorkerThread());
  const std::vector<size_t> targets = TargetPartitions(spec);
  return targets.empty() ? 0 : targets.front();
}

void ShardedEngine::SpliceEngines(size_t first, size_t removed,
                                  std::vector<std::unique_ptr<Engine>> added) {
  if (removed == 0 || first + removed > engines_.size() || added.empty()) {
    Die("engine splice out of bounds", relation_->name());
  }
  // Partition indexes are about to shift: drain the per-partition pending
  // tallies against the *old* keying before the counter family is rebuilt.
  FlushMetrics();
  const auto begin = static_cast<std::ptrdiff_t>(first);
  const auto end = static_cast<std::ptrdiff_t>(first + removed);
  // The replaced engines are destroyed here: the caller holds the map gate
  // exclusively, so no query can still reference them.
  engines_.erase(engines_.begin() + begin, engines_.begin() + end);
  engines_.insert(engines_.begin() + begin,
                  std::make_move_iterator(added.begin()),
                  std::make_move_iterator(added.end()));
  // Partition indexes shifted: re-key the per-partition counter family.
  // Safe here — the exclusively-held map gate excludes every run_group.
  RefreshPartitionCounters();
}

void ShardedEngine::ResetPartitionEngine(size_t p) {
  if (p >= engines_.size()) {
    Die("engine reset out of bounds", relation_->name());
  }
  // Element replacement only — the vector itself is stable, so groups
  // running on other partitions (map gate held shared by everyone) are
  // unaffected. The caller's exclusive hold of partition p's lock excludes
  // every reader of this slot.
  engines_[p] = factory_(relation_->partition(p));
  if (engines_[p] == nullptr) Die("factory returned null", relation_->name());
}

ShardedEngine::BatchOutput ShardedEngine::ExecuteBatch(
    std::span<const QuerySpec> specs, std::span<const ConsumeSpec> consumes,
    std::span<obs::QueryTrace* const> traces) {
  // The partition map is stable for the whole batch: shared hold of the
  // gate spans grouping, fan-out, and the cost roll-up. Pool workers
  // (async queries' own tasks) enter urgently so they can never deadlock
  // behind a waiting repartition swap — see RwGate.
  RwGate::SharedGuard map_guard(relation_->map_gate(),
                                pool_ != nullptr && pool_->InWorkerThread());
  // A sub-query is one (spec, target partition) pair; `slot` is the
  // partition's position within that spec's (partition-ordered) target
  // list, i.e. where the materialization lands in results[spec].
  struct SubQuery {
    size_t spec_index;
    size_t slot;
  };
  std::vector<std::vector<ShardResult>> results(specs.size());
  std::vector<std::vector<SubQuery>> groups(engines_.size());
  size_t total_subqueries = 0;
  for (size_t s = 0; s < specs.size(); ++s) {
    const std::vector<size_t> targets = TargetPartitions(specs[s]);
    results[s].resize(targets.size());
    total_subqueries += targets.size();
    for (size_t t = 0; t < targets.size(); ++t) {
      groups[targets[t]].push_back({s, t});
    }
  }
  std::vector<size_t> active;  // partitions with at least one sub-query
  active.reserve(groups.size());
  for (size_t p = 0; p < groups.size(); ++p) {
    if (!groups[p].empty()) active.push_back(p);
  }
  // Group-latency sampling is decided once per batch (one relaxed
  // increment), not per group: 1 in 64 batches observes all of its
  // groups into engine_group_micros.
  const bool sample_groups =
      obs::MetricsEnabled() &&
      (group_seq_.fetch_add(1, std::memory_order_relaxed) &
       kGroupSampleMask) == 0;

  // Fan-out timestamps for traced specs: each partition task's queue_wait
  // span starts here (for inline execution the wait is ~0 by design).
  auto trace_for = [&traces](size_t s) -> obs::QueryTrace* {
    return traces.empty() ? nullptr : traces[s];
  };
  std::vector<double> dispatched(traces.empty() ? 0 : specs.size(), 0.0);
  for (size_t s = 0; s < dispatched.size(); ++s) {
    if (obs::QueryTrace* tr = trace_for(s)) dispatched[s] = tr->NowMicros();
  }

  auto run_group = [&](size_t a) {
    const size_t p = active[a];
    Timer group_timer;
    // Open one partition span per traced spec in this group before the
    // lock: it parents the queue_wait / lock_wait / kernel child spans
    // and is closed (duration re-stamped) when the group finishes.
    struct SubTrace {
      obs::QueryTrace* trace = nullptr;
      uint32_t span = 0;
      double span_start = 0.0;  // fan-out time: the span covers the wait
      double task_start = 0.0;  // when the affine task actually began
    };
    std::vector<SubTrace> sub_traces;
    if (!traces.empty()) {
      sub_traces.resize(groups[p].size());
      for (size_t i = 0; i < groups[p].size(); ++i) {
        obs::QueryTrace* tr = trace_for(groups[p][i].spec_index);
        if (tr == nullptr) continue;
        const double now = tr->NowMicros();
        // The partition span opens at fan-out, not at task start, so the
        // queue_wait child nests strictly inside it — span trees keep the
        // parent-covers-children invariant tests lean on.
        const double dispatch = dispatched[groups[p][i].spec_index];
        const uint32_t span =
            tr->AddSpan(obs::QueryTrace::kRootSpan, static_cast<int32_t>(p),
                        "partition", dispatch, 0.0);
        tr->AddSpan(span, static_cast<int32_t>(p), "queue_wait", dispatch,
                    now - dispatch);
        sub_traces[i] = SubTrace{tr, span, dispatch, now};
      }
    }
    // One exclusive acquisition serves the whole group: the sub-queries
    // crack the partition's auxiliary structures back to back (batch
    // order, so state evolution matches the one-by-one loop), and every
    // declared projection is materialized — or, for scalar consumption,
    // folded into a partial — before the lock is released.
    // Uncontended acquisitions (the overwhelming case) pay zero clock
    // reads: only an actual wait is timed and charged.
    std::unique_lock<std::shared_mutex> lock(relation_->partition_mutex(p),
                                             std::try_to_lock);
    double lock_elapsed = 0.0;
    if (!lock.owns_lock()) {
      Timer lock_timer;
      lock.lock();
      lock_elapsed = lock_timer.ElapsedMicros();
      if (obs::MetricsEnabled()) Metrics().lock_wait.Add(lock_elapsed);
    }
    for (const SubTrace& st : sub_traces) {
      if (st.trace != nullptr) {
        st.trace->AddSpan(st.span, static_cast<int32_t>(p), "lock_wait",
                          st.task_start, lock_elapsed);
      }
    }
    // The engine reference is resolved under the lock: the compression
    // layer stamps fresh partition engines (ResetPartitionEngine) under
    // this same lock held exclusively.
    Engine& child = *engines_[p];
    const Relation& part = relation_->partition(p);
    for (size_t i = 0; i < groups[p].size(); ++i) {
      const SubQuery& sub = groups[p][i];
      const QuerySpec& spec = specs[sub.spec_index];
      const ConsumeSpec& consume = consumes[sub.spec_index];
      ShardResult& shard = results[sub.spec_index][sub.slot];
      obs::QueryTrace* tr =
          sub_traces.empty() ? nullptr : sub_traces[i].trace;
      const uint32_t part_span = tr == nullptr ? 0 : sub_traces[i].span;

      if (part.compressed()) {
        if (EncodedServable(part, spec, consume)) {
          // Scalar sub-query over a compressed partition: answer it in
          // the encoded domain. No decompression, and no cracked
          // structure is built or advanced — cold partitions stay cold.
          const double t0 = tr == nullptr ? 0.0 : tr->NowMicros();
          Timer encoded_timer;
          ServeEncoded(part, spec, consume, &shard.num_rows,
                       &shard.aggregate, &shard.aggregate_valid);
          shard.cost.select_micros = encoded_timer.ElapsedMicros();
          encoded_queries_.fetch_add(1, std::memory_order_relaxed);
          Metrics().encoded.Add();
          if (tr != nullptr) {
            tr->AddSpan(part_span, static_cast<int32_t>(p), "encoded_fold",
                        t0, shard.cost.select_micros);
          }
          continue;
        }
        // Crack-on-touch: the first sub-query the encoded domain cannot
        // serve materializes this partition (only) back to raw, then
        // proceeds through its engine as usual. The engine stayed valid
        // across the compressed phase — it was stamped fresh at compress
        // time and no write has landed since (writes decompress first).
        const double t0 = tr == nullptr ? 0.0 : tr->NowMicros();
        Timer decompress_timer;
        part.Decompress();
        crack_decompressions_.fetch_add(1, std::memory_order_relaxed);
        Metrics().decompress.Add();
        if (tr != nullptr) {
          tr->AddSpan(part_span, static_cast<int32_t>(p), "decompress", t0,
                      decompress_timer.ElapsedMicros());
        }
      }

      const CostBreakdown before = child.cost();
      const double select_t0 = tr == nullptr ? 0.0 : tr->NowMicros();
      Timer select_timer;
      std::unique_ptr<SelectionHandle> handle = child.Select(spec);
      const double select_elapsed = select_timer.ElapsedMicros();
      if (tr != nullptr) {
        // "select[<engine>]": the cracking/scan kernel time, named by the
        // per-partition engine (table entry) that served it.
        tr->AddSpan(part_span, static_cast<int32_t>(p),
                    "select[" + child.name() + "]", select_t0,
                    select_elapsed);
      }

      // Charge the child's own attribution where it keeps one (prepare);
      // select/reconstruct use our wall timers so engines whose Select
      // does lazy work in Fetch are still accounted consistently.
      const double prepare =
          child.cost().prepare_micros - before.prepare_micros;
      shard.cost.prepare_micros = prepare;
      shard.cost.select_micros = select_elapsed - prepare;

      switch (consume.kind) {
        case ConsumeKind::kCount:
          // The pushdown at its purest: the partition contributes one
          // integer. No attribute is fetched, no reconstruction happens.
          shard.num_rows = handle->NumRows();
          break;
        case ConsumeKind::kAggregate:
        case ConsumeKind::kGroupBy: {
          // Partition-local fold under the partition's own lock; the
          // merge will combine scalars (kAggregate) or partial hash
          // tables (kGroupBy). Either fold is selection-side work
          // (reconstruct stays 0 — no tuple reaches the caller).
          const double t0 = tr == nullptr ? 0.0 : tr->NowMicros();
          Timer fold_timer;
          ConsumeOutcome out = handle->Consume(consume, spec.projections);
          shard.num_rows = out.count;
          shard.aggregate = out.aggregate;
          shard.aggregate_valid = out.aggregate_valid;
          shard.groups = std::move(out.groups);
          const double fold_elapsed = fold_timer.ElapsedMicros();
          shard.cost.select_micros += fold_elapsed;
          if (tr != nullptr) {
            tr->AddSpan(part_span, static_cast<int32_t>(p), "fold", t0,
                        fold_elapsed);
          }
          break;
        }
        case ConsumeKind::kMaterialize:
        case ConsumeKind::kForEach: {
          // Both materialize per partition inside the lock (the sharded
          // lifetime contract); they differ at merge time — ForEach
          // visits the per-partition columns instead of concatenating.
          const double t0 = tr == nullptr ? 0.0 : tr->NowMicros();
          Timer fetch_timer;
          shard.columns.reserve(spec.projections.size());
          for (const std::string& attr : spec.projections) {
            shard.columns.push_back(handle->Fetch(attr));
          }
          shard.num_rows = handle->NumRows();
          shard.cost.reconstruct_micros = fetch_timer.ElapsedMicros();
          if (tr != nullptr) {
            tr->AddSpan(part_span, static_cast<int32_t>(p), "fetch", t0,
                        shard.cost.reconstruct_micros);
          }
          break;
        }
      }
    }
    // Feed the adaptive subsystem's sensor *outside* the partition's
    // exclusive lock — recording needs only the map gate (still held
    // shared by our caller), and the hot partition's critical section is
    // exactly what this subsystem exists to shorten.
    lock.unlock();
    for (const SubTrace& st : sub_traces) {
      if (st.trace != nullptr) {
        st.trace->SetDuration(st.span,
                              st.trace->NowMicros() - st.span_start);
      }
    }
    // One shared clock read serves both consumers of the group latency —
    // the sampled registry histogram and the adaptive sensor.
    if (sample_groups || histogram_ != nullptr) {
      const double group_elapsed = group_timer.ElapsedMicros();
      if (sample_groups) Metrics().group_micros.Observe(group_elapsed);
      if (histogram_ != nullptr) {
        histogram_->RecordAccess(p, groups[p].size(), group_elapsed);
      }
    }
    if (histogram_ != nullptr) {
      const std::string& organizing = relation_->spec().column;
      for (const SubQuery& sub : groups[p]) {
        for (const QuerySpec::Selection& sel :
             specs[sub.spec_index].selections) {
          if (sel.attr != organizing) continue;
          // Normalize to closed form; each boundary is the first value of
          // a would-be right slice. kMin/kMax edges carry no information.
          const RangePredicate& pred = sel.pred;
          if (pred.low != kMinValue &&
              !(pred.low == kMaxValue && !pred.low_inclusive)) {
            histogram_->RecordBoundary(
                p, pred.low_inclusive ? pred.low : pred.low + 1);
          }
          if (pred.high != kMaxValue) {
            histogram_->RecordBoundary(
                p, pred.high_inclusive ? pred.high + 1 : pred.high);
          }
        }
      }
    }
  };

  // Fan the partition groups out with the partition index as the affinity
  // key, so a partition's group lands on the worker whose cache already
  // holds its cracked structures. Inline when there is nothing to overlap
  // — or when *we* are running inside a pool worker (an async query's
  // task): blocking on the pool from a worker could deadlock it.
  if (pool_ != nullptr && active.size() > 1 && !pool_->InWorkerThread()) {
    std::vector<std::future<void>> futures;
    futures.reserve(active.size() - 1);
    for (size_t a = 1; a < active.size(); ++a) {
      futures.push_back(
          pool_->Submit(active[a], [&run_group, a] { run_group(a); }));
    }
    // The caller contributes a core (running the first group) instead of
    // idling on the join, as ParallelFor does. Every future is drained
    // before any exception propagates: queued groups reference this
    // frame. Keep only the first exception.
    std::exception_ptr first_error;
    try {
      run_group(0);
    } catch (...) {
      first_error = std::current_exception();
    }
    for (std::future<void>& future : futures) {
      try {
        future.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  } else {
    for (size_t a = 0; a < active.size(); ++a) run_group(a);
  }

  CostBreakdown sum;
  for (const std::vector<ShardResult>& spec_shards : results) {
    for (const ShardResult& shard : spec_shards) {
      sum.select_micros += shard.cost.select_micros;
      sum.reconstruct_micros += shard.cost.reconstruct_micros;
      sum.prepare_micros += shard.cost.prepare_micros;
    }
  }
  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    cost_.select_micros += sum.select_micros;
    cost_.reconstruct_micros += sum.reconstruct_micros;
    cost_.prepare_micros += sum.prepare_micros;
    if (obs::MetricsEnabled()) {
      // Registry increments piggyback on this (already-held) lock as
      // plain adds; FlushMetricsLocked drains them in bulk.
      pending_.dirty = true;
      pending_.batches += 1;
      pending_.subqueries += total_subqueries;
      pending_.groups += active.size();
      pending_.pruned += specs.size() * engines_.size() - total_subqueries;
      pending_.select_micros += sum.select_micros;
      pending_.reconstruct_micros += sum.reconstruct_micros;
      pending_.prepare_micros += sum.prepare_micros;
      if (pending_.per_partition.size() != engines_.size()) {
        pending_.per_partition.assign(engines_.size(), 0);
      }
      for (size_t p : active) pending_.per_partition[p] += groups[p].size();
      if (pending_.batches >= kMetricsFlushBatches) FlushMetricsLocked();
    }
  }
  return BatchOutput{std::move(results), engines_.size()};
}

ExecuteResult ShardedEngine::MergeExecute(const QuerySpec& spec,
                                          const ConsumeSpec& consume,
                                          std::vector<ShardResult> shards,
                                          obs::QueryTrace* trace,
                                          size_t num_partitions) {
  const double merge_t0 = trace == nullptr ? 0.0 : trace->NowMicros();
  ExecuteResult result;
  result.kind = consume.kind;
  result.partitions_touched = shards.size();
  result.partitions_pruned =
      num_partitions >= shards.size() ? num_partitions - shards.size() : 0;
  for (const ShardResult& shard : shards) {
    result.cost.select_micros += shard.cost.select_micros;
    result.cost.reconstruct_micros += shard.cost.reconstruct_micros;
    result.cost.prepare_micros += shard.cost.prepare_micros;
  }
  if (consume.kind == ConsumeKind::kCount ||
      consume.kind == ConsumeKind::kAggregate) {
    // Scalar merge: counts add, partial sums add, partial mins/maxes fold
    // — exactly one FoldValue per partition, zero tuple data moved, and
    // nothing worth timing.
    for (const ShardResult& shard : shards) {
      result.count += shard.num_rows;
      if (consume.kind == ConsumeKind::kAggregate && shard.aggregate_valid) {
        FoldValue(consume.op, shard.aggregate, &result.aggregate,
                  &result.aggregate_valid);
      }
    }
  } else {
    // The merges that move data across partitions: the grouped merge is
    // select-side work (no tuple is reconstructed), the visit and
    // materialize merges reconstruct-side. One timer, charged once — to
    // the result, cost_, and the registry alike.
    Timer merge_timer;
    if (consume.kind == ConsumeKind::kGroupBy) {
      // The two-level merge: combine the per-partition partial tables on
      // the calling thread, outside every lock, then finalize (sort by
      // group key, fill kCount columns).
      GroupAccumulator acc(consume);
      for (const ShardResult& shard : shards) {
        result.count += shard.num_rows;
        acc.Merge(shard.groups);
      }
      result.groups = FinalizeGrouped(consume, acc.Take());
    } else if (consume.kind == ConsumeKind::kForEach) {
      // Stream the per-partition materializations through the visitor in
      // partition order, sequentially, on the calling thread, outside
      // every lock — the cross-partition concatenation never happens.
      std::vector<Value> row(spec.projections.size());
      for (const ShardResult& shard : shards) {
        for (size_t r = 0; r < shard.num_rows; ++r) {
          for (size_t c = 0; c < shard.columns.size(); ++c) {
            row[c] = shard.columns[c][r];
          }
          consume.visitor(row);
        }
        result.count += shard.num_rows;
      }
    } else {
      // Materialize: concatenate the per-shard materializations per
      // projection, in partition order.
      for (const ShardResult& shard : shards) result.count += shard.num_rows;
      result.rows.num_rows = result.count;
      result.rows.columns.resize(spec.projections.size());
      for (size_t c = 0; c < spec.projections.size(); ++c) {
        result.rows.columns[c].reserve(result.count);
        for (const ShardResult& shard : shards) {
          result.rows.columns[c].insert(result.rows.columns[c].end(),
                                        shard.columns[c].begin(),
                                        shard.columns[c].end());
        }
      }
    }
    const double merge_elapsed = merge_timer.ElapsedMicros();
    const bool select_side = consume.kind == ConsumeKind::kGroupBy;
    (select_side ? result.cost.select_micros
                 : result.cost.reconstruct_micros) += merge_elapsed;
    std::lock_guard<std::mutex> lock(cost_mu_);
    (select_side ? cost_.select_micros : cost_.reconstruct_micros) +=
        merge_elapsed;
    if (obs::MetricsEnabled()) {
      pending_.dirty = true;
      (select_side ? pending_.select_micros : pending_.reconstruct_micros) +=
          merge_elapsed;
      pending_.merge_micros += merge_elapsed;
    }
  }
  if (trace != nullptr) {
    trace->AddSpan(obs::QueryTrace::kRootSpan, /*partition=*/-1, "merge",
                   merge_t0, trace->NowMicros() - merge_t0);
  }
  return result;
}

std::vector<ExecuteResult> ShardedEngine::Execute(
    std::span<const QuerySpec> specs, std::span<const ConsumeSpec> consumes,
    std::span<obs::QueryTrace* const> traces) {
  BatchOutput batch = ExecuteBatch(specs, consumes, traces);
  std::vector<ExecuteResult> results;
  results.reserve(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    results.push_back(MergeExecute(
        specs[s], consumes[s], std::move(batch.results[s]),
        traces.empty() ? nullptr : traces[s], batch.num_partitions));
  }
  return results;
}

CostBreakdown ShardedEngine::CostSnapshot() const {
  std::lock_guard<std::mutex> lock(cost_mu_);
  FlushMetricsLocked();
  return cost_;
}

}  // namespace crackdb
