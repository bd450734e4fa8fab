#ifndef CRACKDB_ENGINE_OPERATORS_H_
#define CRACKDB_ENGINE_OPERATORS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace crackdb {

/// Generic relational operators over materialized value vectors. These are
/// shared by every engine: the paper's systems differ only in selection and
/// tuple reconstruction; joins, group-bys, and aggregations run on the
/// original column-store operators unchanged (Section 3.4).

/// Matching row-ordinal pairs of an equi-join.
struct JoinPairs {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;

  size_t size() const { return left.size(); }
};

/// Hash equi-join over two key vectors (build on the smaller side). The
/// output order follows the probe side, i.e., tuple order of the inner
/// input is lost — which is what forces the post-join reconstructions the
/// paper measures.
JoinPairs HashJoin(std::span<const Value> left_keys,
                   std::span<const Value> right_keys);

/// Left-semi join: ordinals of left rows having at least one match.
std::vector<uint32_t> SemiJoin(std::span<const Value> left_keys,
                               std::span<const Value> right_keys);

/// Left-anti join: ordinals of left rows having no match.
std::vector<uint32_t> AntiJoin(std::span<const Value> left_keys,
                               std::span<const Value> right_keys);

/// Group-by over one or more key columns (all spans row-aligned and of
/// equal length).
struct Groups {
  /// Group ordinal for each input row.
  std::vector<uint32_t> group_of_row;
  /// Distinct key tuples, one per group, in first-seen order.
  std::vector<std::vector<Value>> keys;

  size_t num_groups() const { return keys.size(); }
};
Groups GroupBy(std::span<const std::vector<Value>> key_columns);

/// View-based overload (zero-copy inputs from SelectionHandle::FetchView).
Groups GroupBySpans(std::span<const std::span<const Value>> key_columns);

/// Per-group sum of `values` under a precomputed grouping.
std::vector<Value> GroupedSum(const Groups& groups,
                              std::span<const Value> values);
std::vector<Value> GroupedCount(const Groups& groups);

/// Whole-column maximum; kMinValue on empty input.
Value MaxOf(std::span<const Value> values);

/// Row ordinals sorted by the given columns (lexicographic; `ascending`
/// per column, defaulting to ascending when shorter than `columns`).
std::vector<uint32_t> SortRows(std::span<const std::vector<Value>> columns,
                               const std::vector<bool>& ascending);

/// First `k` row ordinals under the same ordering (partial sort).
std::vector<uint32_t> TopKRows(std::span<const std::vector<Value>> columns,
                               const std::vector<bool>& ascending, size_t k);

}  // namespace crackdb

#endif  // CRACKDB_ENGINE_OPERATORS_H_
