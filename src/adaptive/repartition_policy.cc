#include "adaptive/repartition_policy.h"

#include <algorithm>

namespace crackdb {

RepartitionPolicy::RepartitionPolicy(const AdaptiveConfig& config)
    : config_(config) {}

RepartitionDecision RepartitionPolicy::Tick(
    std::span<const PartitionInput> partitions) {
  RepartitionDecision none;
  if (cooldown_ > 0) {
    --cooldown_;
    return none;
  }
  const size_t n = partitions.size();
  if (n == 0) return none;

  uint64_t total = 0;
  for (const PartitionInput& p : partitions) total += p.accesses;
  if (total < config_.min_accesses) return none;
  const double total_d = static_cast<double>(total);

  // Hot split first: the hottest partition whose share exceeds the
  // threshold, if it is still splittable (big enough, cover wider than one
  // value, headroom under max_partitions).
  if (n < config_.max_partitions) {
    size_t hottest = n;
    uint64_t hottest_accesses = 0;
    for (size_t i = 0; i < n; ++i) {
      const PartitionInput& p = partitions[i];
      if (p.accesses <= hottest_accesses) continue;
      if (p.live_rows < config_.min_partition_rows) continue;
      if (p.cover_lo >= p.cover_hi) continue;  // one value: nothing to cut
      hottest = i;
      hottest_accesses = p.accesses;
    }
    if (hottest < n &&
        static_cast<double>(hottest_accesses) / total_d > config_.hot_share) {
      const PartitionInput& hot = partitions[hottest];
      // Split at the median of the observed predicate boundaries inside
      // the slice — the workload's own notion of where the action is —
      // falling back to the midpoint when no boundary landed inside.
      std::vector<Value> inside;
      inside.reserve(hot.split_candidates.size());
      for (Value v : hot.split_candidates) {
        if (v > hot.cover_lo && v <= hot.cover_hi) inside.push_back(v);
      }
      Value split;
      if (!inside.empty()) {
        const size_t mid = inside.size() / 2;
        std::nth_element(inside.begin(), inside.begin() + mid, inside.end());
        split = inside[mid];
      } else {
        // Unsigned midpoint arithmetic sidesteps signed overflow on wide
        // covers; cover_lo < cover_hi guarantees split > cover_lo.
        split = static_cast<Value>(
            static_cast<uint64_t>(hot.cover_lo) +
            (static_cast<uint64_t>(hot.cover_hi) -
             static_cast<uint64_t>(hot.cover_lo) + 1) /
                2);
      }
      RepartitionDecision d;
      d.kind = RepartitionDecision::Kind::kSplit;
      d.partition = hottest;
      d.split_value = split;
      return d;
    }
  }

  // Cold merge: the coldest adjacent pair, if its combined share is below
  // the threshold.
  if (n > AdaptiveConfig::kMinPartitions) {
    size_t best = n;
    uint64_t best_accesses = 0;
    for (size_t i = 0; i + 1 < n; ++i) {
      const uint64_t pair =
          partitions[i].accesses + partitions[i + 1].accesses;
      if (best == n || pair < best_accesses) {
        best = i;
        best_accesses = pair;
      }
    }
    if (best < n &&
        static_cast<double>(best_accesses) / total_d < config_.cold_share) {
      RepartitionDecision d;
      d.kind = RepartitionDecision::Kind::kMerge;
      d.partition = best;
      return d;
    }
  }

  return none;
}

void RepartitionPolicy::NoteExecuted(const RepartitionDecision& decision) {
  if (decision.kind != RepartitionDecision::Kind::kNone) {
    cooldown_ = config_.cooldown_ticks;
  }
}

}  // namespace crackdb
