#ifndef CRACKDB_ENGINE_GROUP_TABLE_H_
#define CRACKDB_ENGINE_GROUP_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "engine/query.h"

namespace crackdb {

/// Grouped aggregation for the kGroupBy consumption mode — the "local
/// aggregate" half of the two-level local-aggregate-then-merge shape. One
/// accumulator lives per partition (built under that partition's lock);
/// the sharded merge combines the partial GroupedTables on the caller
/// thread via Merge(), and FinalizeGrouped() sorts the result by group key
/// so answers compare across engines and partitionings.
///
/// The table is a linear-probe, power-of-two-capacity index from group-key
/// Value to a dense group id; the dense side (keys/counts/accumulator
/// columns) lives in a GroupedTable. The bulk path (AddChunk) first finds
/// the min and max of the chunk's group keys, then assigns ids in one
/// scalar pass:
///  - dense domain (hi - lo below kDenseSpanCutoff and no larger than the
///    chunk): `key - lo` indexes a flat id array, so the hash table is
///    probed once per distinct key, not once per row;
///  - wider domains: one hash probe per row.
/// It then runs one dispatched `fold_group` kernel per value aggregate —
/// the key-gather + accumulate hot loop.
class GroupAccumulator {
 public:
  /// AddChunk maps key spans (hi - lo, computed unsigned) below this
  /// through a flat id array instead of the hash table. Chosen by
  /// measurement (docs/BENCHMARKS.md, "Dense-domain grouping: measured"):
  /// the flat array pays up to here, and 2^16 uint32_t ids still sit in L2.
  static constexpr uint64_t kDenseSpanCutoff = uint64_t{1} << 16;

  /// `consume` must outlive the accumulator (it is borrowed, not copied);
  /// kind must be kGroupBy.
  explicit GroupAccumulator(const ConsumeSpec& consume);

  /// Folds `n` rows whose group keys are `group_vals[keys ? keys[i] : i]`.
  /// `agg_columns` parallels consume.group_aggs: the base pointer each
  /// aggregate folds, addressed by the same `keys` indirection (nullptr
  /// for kCount entries, which fetch no values). Pass keys == nullptr for
  /// already-gathered contiguous views.
  void AddChunk(const Value* group_vals, const Key* keys, size_t n,
                const std::vector<const Value*>& agg_columns);

  /// Row-at-a-time path (row stores): find-or-insert the group, bump its
  /// count, return its dense id for FoldInto().
  uint32_t AddRowKey(Value key);

  /// Folds one value into aggregate column `agg` of group `id`.
  void FoldInto(size_t agg, uint32_t id, Value v);

  /// Merges a partial table produced by another accumulator built from the
  /// same ConsumeSpec (counts add; sums wrap-add; min/max combine).
  void Merge(const GroupedTable& partial);

  /// Extracts the unordered partial table; the accumulator is empty after.
  GroupedTable Take();

  size_t num_groups() const { return table_.keys.size(); }

 private:
  /// Find-or-insert: returns the dense id, creating the group with a zero
  /// count and op-specific initial accumulators on first sight. The probe
  /// loop inlines into the row loops; Insert, the rare miss, stays out of
  /// line.
  uint32_t IdFor(Value key);
  uint32_t Insert(Value key, size_t slot);
  void Grow();

  const ConsumeSpec* consume_;
  GroupedTable table_;
  /// Slot array of dense ids (UINT32_MAX = empty); capacity is a power of
  /// two, grown at ~0.7 load.
  std::vector<uint32_t> slots_;
  /// Scratch reused across AddChunk calls: each row's group id, and the
  /// dense path's offset -> id array.
  std::vector<uint32_t> group_of_;
  std::vector<uint32_t> dense_ids_;
};

/// Sorts a partial table by group key ascending and fills kCount aggregate
/// columns from the counts — the finalize step shared by the single-engine
/// executor and the sharded merge.
GroupedTable FinalizeGrouped(const ConsumeSpec& consume, GroupedTable table);

}  // namespace crackdb

#endif  // CRACKDB_ENGINE_GROUP_TABLE_H_
