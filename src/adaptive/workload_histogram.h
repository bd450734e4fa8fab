#ifndef CRACKDB_ADAPTIVE_WORKLOAD_HISTOGRAM_H_
#define CRACKDB_ADAPTIVE_WORKLOAD_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace crackdb {

/// Per-partition view of the workload the serving layer has actually seen:
/// an access counter plus a bounded ring of predicate boundaries
/// on the organizing attribute — the split-point candidates the
/// RepartitionPolicy chooses from. This is the "self-organizing" sensor of
/// the adaptive subsystem: it is fed from ShardedEngine::ExecuteBatch (one
/// RecordAccess per partition group, one RecordBoundary per organizing
/// selection), so the cost per query is one relaxed atomic add per
/// partition group plus the boundary ring writes.
///
/// Concurrency contract: RecordAccess/RecordBoundary are called by query
/// threads holding the partition map gate *shared*; Reset (which resizes
/// the per-partition cells) is called only under the gate held
/// *exclusively*, i.e. with no recorder in flight. Snapshot and Decay are
/// called by the one tick in flight (a MaybeRepartition caller) and
/// tolerate concurrent recorders (counters are atomics, the sketch ring has its own mutex).
class WorkloadHistogram {
 public:
  /// Predicate boundaries (split-point candidates) kept per partition.
  static constexpr size_t kSketchCapacity = 64;

  explicit WorkloadHistogram(size_t num_partitions);

  size_t num_partitions() const { return cells_.size(); }

  /// Charges `sub_queries` accesses to partition `p`.
  void RecordAccess(size_t p, size_t sub_queries);

  /// Records `boundary` (the first value of a would-be right slice) as a
  /// split-point candidate for partition `p`. Bounded: the newest
  /// kSketchCapacity samples survive.
  void RecordBoundary(size_t p, Value boundary);

  struct PartitionSnapshot {
    uint64_t accesses = 0;
    std::vector<Value> boundaries;  // unordered recent sample
  };
  struct Snapshot {
    uint64_t total_accesses = 0;
    std::vector<PartitionSnapshot> partitions;
  };
  /// `with_boundaries = false` skips the sketch-ring copies (and their
  /// per-cell mutexes) — for counter-only consumers like Stats.
  Snapshot Snap(bool with_boundaries = true) const;

  /// Ages the access counters by `factor` in [0, 1] (recency
  /// weighting between ticks). Boundary samples are kept — they are
  /// already bounded and newest-wins.
  void Decay(double factor);

  /// Rebuilds the histogram for a new partition count (after a split or
  /// merge). Caller holds the partition map gate exclusively.
  void Reset(size_t num_partitions);

 private:
  /// One partition's counters. Boxed: atomics are neither movable nor
  /// copyable, and Reset rebuilds the vector.
  struct Cell {
    std::atomic<uint64_t> accesses{0};
    std::mutex sketch_mu;
    std::vector<Value> ring;
    size_t ring_next = 0;
  };

  std::vector<std::unique_ptr<Cell>> cells_;
};

}  // namespace crackdb

#endif  // CRACKDB_ADAPTIVE_WORKLOAD_HISTOGRAM_H_
