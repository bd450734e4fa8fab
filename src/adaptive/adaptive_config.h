#ifndef CRACKDB_ADAPTIVE_ADAPTIVE_CONFIG_H_
#define CRACKDB_ADAPTIVE_ADAPTIVE_CONFIG_H_

#include <cstddef>

#include "storage/codec.h"

namespace crackdb {

/// Knobs of the adaptive-repartitioning subsystem (src/adaptive): what
/// counts as a hot or cold partition, and the hysteresis that keeps the
/// partition map from thrashing. Off by default; enable per table in
/// Database::RegisterSharded. Only range-partitioned tables adapt — hash
/// sharding is balanced by construction, so ticks on hash tables are
/// no-ops. Ticks happen only when a caller runs Database::MaybeRepartition;
/// there is no background trigger.
///
/// The no-thrash invariant the defaults encode: `hot_share` must be well
/// above `cold_share`, so the two halves of a fresh split (each carrying
/// roughly half the hot traffic) can neither re-split immediately nor be
/// merged straight back. `cooldown_ticks` plus the histogram reset after
/// every executed action add time-based hysteresis on top; see
/// RepartitionPolicy.
struct AdaptiveConfig {
  /// Histogram decay applied after every tick, so the counters track the
  /// recent workload instead of its full history.
  static constexpr double kDecay = 0.5;
  /// The policy never merges below this many partitions.
  static constexpr size_t kMinPartitions = 2;

  /// Master switch. When false the table keeps its load-time partition map
  /// and MaybeRepartition is a no-op (the control arm of
  /// bench_adaptive_repartition).
  bool enabled = false;

  /// Minimum observed accesses (histogram total) before any decision.
  size_t min_accesses = 64;

  /// Split a partition when its share of all observed accesses exceeds
  /// this.
  double hot_share = 0.40;

  /// Merge an adjacent partition pair when their *combined* access share
  /// is below this.
  double cold_share = 0.05;

  /// Never split a partition holding fewer live rows than this.
  size_t min_partition_rows = 2048;

  /// Upper bound on the partition count the policy may reach.
  size_t max_partitions = 64;

  /// Ticks to sit out after an executed split/merge (hysteresis).
  size_t cooldown_ticks = 2;

  /// Load-time layout (storage/codec.h). The layout is chosen at
  /// registration (`compress_on_load`) and changes afterwards only through
  /// queries (crack-on-touch) and writes, never through ticks; it applies
  /// to hash-sharded tables as well.
  CompressionConfig compression;
};

}  // namespace crackdb

#endif  // CRACKDB_ADAPTIVE_ADAPTIVE_CONFIG_H_
