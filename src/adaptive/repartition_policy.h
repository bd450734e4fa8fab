#ifndef CRACKDB_ADAPTIVE_REPARTITION_POLICY_H_
#define CRACKDB_ADAPTIVE_REPARTITION_POLICY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "adaptive/adaptive_config.h"
#include "common/types.h"

namespace crackdb {

/// One action the policy asks the Repartitioner to execute. kSplit cuts
/// partition `partition` in two: the left half keeps the old slice start,
/// the right half starts at `split_value`. kMerge fuses adjacent
/// partitions `partition` and `partition + 1` into one slice.
struct RepartitionDecision {
  enum class Kind { kNone, kSplit, kMerge };

  Kind kind = Kind::kNone;
  size_t partition = 0;
  Value split_value = 0;  // kSplit only: first value of the right slice
};

/// Pure decision logic of the adaptive subsystem — no locks, no storage
/// references, unit-testable in isolation. Each Tick inspects a
/// per-partition view of the workload histogram and proposes at most one
/// action: a hot-split or a cold-merge.
///
/// Hysteresis, so the map never thrashes:
///  - nothing fires below `min_accesses` observed accesses;
///  - an executed action starts a `cooldown_ticks` sit-out (call
///    NoteExecuted), and the caller resets the histogram after every
///    executed action, so the next decision is based purely on
///    post-reorganization traffic;
///  - `hot_share >> cold_share` keeps a fresh split's halves (each
///    carrying about half the hot traffic) from re-splitting or
///    re-merging — the no-thrash property pinned down in
///    adaptive_repartition_test.
class RepartitionPolicy {
 public:
  explicit RepartitionPolicy(const AdaptiveConfig& config);

  /// One partition's input: recent accesses, current size, the value
  /// cover of its slice (clamped to the domain), and the histogram's
  /// split-point candidates (each the first value of a would-be right
  /// slice).
  struct PartitionInput {
    uint64_t accesses = 0;
    size_t live_rows = 0;
    Value cover_lo = 0;
    Value cover_hi = 0;
    std::vector<Value> split_candidates;
  };

  /// Evaluates one tick. Never mutates hysteresis state except for the
  /// cooldown countdown; call NoteExecuted when the returned decision was
  /// actually applied.
  RepartitionDecision Tick(std::span<const PartitionInput> partitions);

  /// Informs the policy its last decision was executed: starts the
  /// cooldown.
  void NoteExecuted(const RepartitionDecision& decision);

  const AdaptiveConfig& config() const { return config_; }

 private:
  AdaptiveConfig config_;
  size_t cooldown_ = 0;
};

}  // namespace crackdb

#endif  // CRACKDB_ADAPTIVE_REPARTITION_POLICY_H_
