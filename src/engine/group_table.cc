#include "engine/group_table.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "kernels/kernels.h"

namespace crackdb {

namespace {

constexpr uint32_t kEmptySlot = UINT32_MAX;
constexpr size_t kInitialCapacity = 16;

/// splitmix64 finalizer: cheap, well-mixed bits for power-of-two masking.
uint64_t HashKey(Value key) {
  uint64_t x = static_cast<uint64_t>(key);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Fold-neutral starting accumulator: every group that exists has at least
/// one contributing row, so no per-group validity flag is needed — folding
/// into the neutral element yields the row's value, on every kernel arm.
Value InitialAccumulator(AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum:
      return 0;
    case AggregateOp::kMin:
      return kMaxValue;
    case AggregateOp::kMax:
      return kMinValue;
    case AggregateOp::kCount:
      return 0;  // never folded; filled from counts at finalize.
  }
  return 0;
}

}  // namespace

GroupAccumulator::GroupAccumulator(const ConsumeSpec& consume)
    : consume_(&consume), slots_(kInitialCapacity, kEmptySlot) {
  table_.aggregates.resize(consume.group_aggs.size());
}

inline uint32_t GroupAccumulator::IdFor(Value key) {
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(HashKey(key)) & mask;
  while (true) {
    const uint32_t id = slots_[slot];
    if (id == kEmptySlot) return Insert(key, slot);
    if (table_.keys[id] == key) return id;
    slot = (slot + 1) & mask;
  }
}

uint32_t GroupAccumulator::Insert(Value key, size_t slot) {
  const uint32_t id = static_cast<uint32_t>(table_.keys.size());
  slots_[slot] = id;
  table_.keys.push_back(key);
  table_.counts.push_back(0);
  for (size_t a = 0; a < consume_->group_aggs.size(); ++a) {
    table_.aggregates[a].push_back(
        InitialAccumulator(consume_->group_aggs[a].op));
  }
  if (table_.keys.size() * 10 >= slots_.size() * 7) Grow();
  return id;
}

void GroupAccumulator::Grow() {
  std::vector<uint32_t> fresh(slots_.size() * 2, kEmptySlot);
  const size_t mask = fresh.size() - 1;
  for (uint32_t id = 0; id < table_.keys.size(); ++id) {
    size_t slot = static_cast<size_t>(HashKey(table_.keys[id])) & mask;
    while (fresh[slot] != kEmptySlot) slot = (slot + 1) & mask;
    fresh[slot] = id;
  }
  slots_ = std::move(fresh);
}

void GroupAccumulator::AddChunk(const Value* group_vals, const Key* keys,
                                size_t n,
                                const std::vector<const Value*>& agg_columns) {
  if (n == 0) return;
  const auto key_at = [&](size_t i) {
    return group_vals[keys != nullptr ? keys[i] : i];
  };
  // A first pass finds the chunk's key domain. It re-reads the keys
  // rather than keeping a gathered copy: a per-chunk n * 8 B buffer is
  // allocator churn that measurably lengthened the tail of unrelated
  // writes on the same threads.
  Value lo = key_at(0);
  Value hi = lo;
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, key_at(i));
    hi = std::max(hi, key_at(i));
  }
  // Per-thread scratch, used only within this call: each row's group id,
  // and the dense path's offset -> id array. Kept across calls so a query
  // thread does not allocate and free them once per partition.
  thread_local std::vector<uint32_t> group_of;
  thread_local std::vector<uint32_t> dense_ids;
  group_of.resize(n);
  // Unsigned difference: a [kMinValue, kMaxValue] chunk spans 2^64 - 1
  // without signed overflow and simply takes the hash path.
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (span < kDenseSpanCutoff && span <= n) {
    // Dense domain: a flat offset -> id array replaces the per-row probe,
    // so IdFor runs once per distinct key. The span <= n guard keeps the
    // array's initialization no dearer than the chunk itself.
    dense_ids.assign(span + 1, kEmptySlot);
    for (size_t i = 0; i < n; ++i) {
      const Value key = key_at(i);
      uint32_t& id = dense_ids[static_cast<uint64_t>(key) -
                               static_cast<uint64_t>(lo)];
      if (id == kEmptySlot) id = IdFor(key);
      ++table_.counts[id];
      group_of[i] = id;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t id = IdFor(key_at(i));
      ++table_.counts[id];
      group_of[i] = id;
    }
  }
  for (size_t a = 0; a < agg_columns.size(); ++a) {
    const Value* column = agg_columns[a];
    if (column == nullptr) continue;  // kCount: no values to fold.
    kernels::FoldGroup(ToFoldOp(consume_->group_aggs[a].op), column, keys,
                       group_of.data(), n, table_.aggregates[a].data());
  }
}

uint32_t GroupAccumulator::AddRowKey(Value key) {
  const uint32_t id = IdFor(key);
  ++table_.counts[id];
  return id;
}

void GroupAccumulator::FoldInto(size_t agg, uint32_t id, Value v) {
  Value& acc = table_.aggregates[agg][id];
  switch (consume_->group_aggs[agg].op) {
    case AggregateOp::kSum:
      // Unsigned add: sums wrap modulo 2^64, same contract as the arms.
      acc = static_cast<Value>(static_cast<uint64_t>(acc) +
                               static_cast<uint64_t>(v));
      break;
    case AggregateOp::kMin:
      acc = std::min(acc, v);
      break;
    case AggregateOp::kMax:
      acc = std::max(acc, v);
      break;
    case AggregateOp::kCount:
      break;  // counts are bumped by AddRowKey/Merge, never folded.
  }
}

void GroupAccumulator::Merge(const GroupedTable& partial) {
  for (size_t g = 0; g < partial.keys.size(); ++g) {
    const uint32_t id = IdFor(partial.keys[g]);
    table_.counts[id] += partial.counts[g];
    for (size_t a = 0; a < partial.aggregates.size(); ++a) {
      FoldInto(a, id, partial.aggregates[a][g]);
    }
  }
}

GroupedTable GroupAccumulator::Take() {
  GroupedTable out = std::move(table_);
  table_ = GroupedTable{};
  table_.aggregates.resize(consume_->group_aggs.size());
  slots_.assign(kInitialCapacity, kEmptySlot);
  return out;
}

GroupedTable FinalizeGrouped(const ConsumeSpec& consume, GroupedTable table) {
  const size_t n = table.keys.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&table](uint32_t a, uint32_t b) {
    return table.keys[a] < table.keys[b];
  });
  GroupedTable out;
  out.keys.reserve(n);
  out.counts.reserve(n);
  out.aggregates.resize(table.aggregates.size());
  for (uint32_t id : order) {
    out.keys.push_back(table.keys[id]);
    out.counts.push_back(table.counts[id]);
  }
  for (size_t a = 0; a < table.aggregates.size(); ++a) {
    out.aggregates[a].reserve(n);
    if (consume.group_aggs[a].op == AggregateOp::kCount) {
      for (uint32_t id : order) {
        out.aggregates[a].push_back(static_cast<Value>(table.counts[id]));
      }
    } else {
      for (uint32_t id : order) {
        out.aggregates[a].push_back(table.aggregates[a][id]);
      }
    }
  }
  return out;
}

}  // namespace crackdb
