#include "engine/operators.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

namespace crackdb {

JoinPairs HashJoin(std::span<const Value> left_keys,
                   std::span<const Value> right_keys) {
  JoinPairs out;
  const bool build_left = left_keys.size() <= right_keys.size();
  std::span<const Value> build = build_left ? left_keys : right_keys;
  std::span<const Value> probe = build_left ? right_keys : left_keys;
  std::unordered_multimap<Value, uint32_t> table;
  table.reserve(build.size());
  for (uint32_t i = 0; i < build.size(); ++i) table.emplace(build[i], i);
  for (uint32_t j = 0; j < probe.size(); ++j) {
    auto [lo, hi] = table.equal_range(probe[j]);
    for (auto it = lo; it != hi; ++it) {
      if (build_left) {
        out.left.push_back(it->second);
        out.right.push_back(j);
      } else {
        out.left.push_back(j);
        out.right.push_back(it->second);
      }
    }
  }
  return out;
}

std::vector<uint32_t> SemiJoin(std::span<const Value> left_keys,
                               std::span<const Value> right_keys) {
  std::unordered_set<Value> present(right_keys.begin(), right_keys.end());
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < left_keys.size(); ++i) {
    if (present.count(left_keys[i]) != 0) out.push_back(i);
  }
  return out;
}

std::vector<uint32_t> AntiJoin(std::span<const Value> left_keys,
                               std::span<const Value> right_keys) {
  std::unordered_set<Value> present(right_keys.begin(), right_keys.end());
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < left_keys.size(); ++i) {
    if (present.count(left_keys[i]) == 0) out.push_back(i);
  }
  return out;
}

namespace {
struct TupleHash {
  size_t operator()(const std::vector<Value>& v) const {
    size_t h = 0xcbf29ce484222325ull;
    for (Value x : v) {
      h ^= static_cast<size_t>(x);
      h *= 0x100000001b3ull;
    }
    return h;
  }
};
}  // namespace

Groups GroupBySpans(std::span<const std::span<const Value>> key_columns) {
  Groups g;
  if (key_columns.empty()) return g;
  const size_t n = key_columns[0].size();
  g.group_of_row.resize(n);
  std::unordered_map<std::vector<Value>, uint32_t, TupleHash> ids;
  std::vector<Value> key(key_columns.size());
  for (size_t row = 0; row < n; ++row) {
    for (size_t c = 0; c < key_columns.size(); ++c) {
      key[c] = key_columns[c][row];
    }
    auto [it, inserted] =
        ids.emplace(key, static_cast<uint32_t>(g.keys.size()));
    if (inserted) g.keys.push_back(key);
    g.group_of_row[row] = it->second;
  }
  return g;
}

Groups GroupBy(std::span<const std::vector<Value>> key_columns) {
  std::vector<std::span<const Value>> spans;
  spans.reserve(key_columns.size());
  for (const std::vector<Value>& col : key_columns) {
    spans.emplace_back(col.data(), col.size());
  }
  return GroupBySpans(spans);
}

std::vector<Value> GroupedSum(const Groups& groups,
                              std::span<const Value> values) {
  std::vector<Value> out(groups.num_groups(), 0);
  for (size_t row = 0; row < values.size(); ++row) {
    out[groups.group_of_row[row]] += values[row];
  }
  return out;
}

std::vector<Value> GroupedCount(const Groups& groups) {
  std::vector<Value> out(groups.num_groups(), 0);
  for (uint32_t gid : groups.group_of_row) ++out[gid];
  return out;
}

Value MaxOf(std::span<const Value> values) {
  Value m = kMinValue;
  for (Value v : values) m = std::max(m, v);
  return m;
}

namespace {
std::vector<uint32_t> SortedOrdinals(
    std::span<const std::vector<Value>> columns,
    const std::vector<bool>& ascending) {
  const size_t n = columns.empty() ? 0 : columns[0].size();
  std::vector<uint32_t> ordinals(n);
  std::iota(ordinals.begin(), ordinals.end(), 0u);
  auto less = [&](uint32_t a, uint32_t b) {
    for (size_t c = 0; c < columns.size(); ++c) {
      const bool asc = c < ascending.size() ? ascending[c] : true;
      const Value va = columns[c][a];
      const Value vb = columns[c][b];
      if (va != vb) return asc ? va < vb : va > vb;
    }
    return a < b;  // stable tiebreak
  };
  std::sort(ordinals.begin(), ordinals.end(), less);
  return ordinals;
}
}  // namespace

std::vector<uint32_t> SortRows(std::span<const std::vector<Value>> columns,
                               const std::vector<bool>& ascending) {
  return SortedOrdinals(columns, ascending);
}

std::vector<uint32_t> TopKRows(std::span<const std::vector<Value>> columns,
                               const std::vector<bool>& ascending, size_t k) {
  std::vector<uint32_t> all = SortedOrdinals(columns, ascending);
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace crackdb
