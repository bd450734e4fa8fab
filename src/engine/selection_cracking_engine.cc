#include "engine/selection_cracking_engine.h"

#include <algorithm>

#include "engine/group_table.h"
#include "engine/query.h"
#include "kernels/kernels.h"

namespace crackdb {

namespace {

class CrackedKeysHandle : public SelectionHandle {
 public:
  CrackedKeysHandle(const Relation& relation, std::vector<Key> keys)
      : relation_(&relation), keys_(std::move(keys)) {}

  size_t NumRows() override { return keys_.size(); }

  std::vector<Value> Fetch(const std::string& attr) override {
    // Keys arrive in cracked order: randomly-ordered positional lookups
    // into the base column — no spatial or temporal locality (the paper's
    // Exp1 explanation).
    const Column& column = relation_->column(attr);
    std::vector<Value> out(keys_.size());
    kernels::Gather(column.values().data(), keys_.data(), keys_.size(),
                    out.data());
    return out;
  }

  std::vector<Value> FetchAt(const std::string& attr,
                             std::span<const uint32_t> ordinals) override {
    const Column& column = relation_->column(attr);
    std::vector<Value> out;
    out.reserve(ordinals.size());
    for (uint32_t ord : ordinals) out.push_back(column[keys_[ord]]);
    return out;
  }

  ConsumeOutcome Consume(const ConsumeSpec& consume,
                         std::span<const std::string> projections) override {
    // Fast path: the keys arrive in cracked (random) order, so Fetch is a
    // scattered gather either way — folding in place at least skips the
    // temp vector the default would materialize.
    if (consume.kind == ConsumeKind::kAggregate) {
      const Column& column = relation_->column(consume.attr);
      ConsumeOutcome out;
      out.count = keys_.size();
      kernels::FoldGather(ToFoldOp(consume.op), column.values().data(),
                          keys_.data(), keys_.size(), &out.aggregate,
                          &out.aggregate_valid);
      return out;
    }
    if (consume.kind == ConsumeKind::kGroupBy) {
      // Grouped fast path: gather the group keys and fold the aggregate
      // columns through the cracked-order key list in place.
      GroupAccumulator acc(consume);
      std::vector<const Value*> columns;
      columns.reserve(consume.group_aggs.size());
      for (const GroupAggregate& agg : consume.group_aggs) {
        columns.push_back(agg.op == AggregateOp::kCount
                              ? nullptr
                              : relation_->column(agg.attr).values().data());
      }
      acc.AddChunk(relation_->column(consume.group_attr).values().data(),
                   keys_.data(), keys_.size(), columns);
      ConsumeOutcome out;
      out.count = keys_.size();
      out.groups = acc.Take();
      return out;
    }
    return SelectionHandle::Consume(consume, projections);
  }

 private:
  const Relation* relation_;
  std::vector<Key> keys_;
};

}  // namespace

CrackerColumn& SelectionCrackingEngine::GetOrCreate(const std::string& attr) {
  auto it = columns_.find(attr);
  if (it == columns_.end()) {
    it = columns_
             .emplace(attr,
                      std::make_unique<CrackerColumn>(*relation_, attr))
             .first;
  }
  return *it->second;
}

std::unique_ptr<SelectionHandle> SelectionCrackingEngine::Select(
    const QuerySpec& spec) {
  std::vector<Key> keys;
  if (spec.selections.empty()) {
    keys.reserve(relation_->num_live_rows());
    for (size_t i = 0; i < relation_->num_rows(); ++i) {
      if (!relation_->IsDeleted(static_cast<Key>(i))) {
        keys.push_back(static_cast<Key>(i));
      }
    }
  } else if (!spec.disjunctive) {
    // crackers.select on the first (most selective) predicate...
    CrackerColumn& cracker = GetOrCreate(spec.selections[0].attr);
    const std::span<const Value> raw =
        cracker.SelectKeys(spec.selections[0].pred);
    keys.reserve(raw.size());
    for (Value v : raw) keys.push_back(static_cast<Key>(v));
    // ...then crackers.rel_select for the rest: select + reconstruct in one
    // go over the unordered key list (paper Section 2.2).
    for (size_t s = 1; s < spec.selections.size(); ++s) {
      const Column& column = relation_->column(spec.selections[s].attr);
      const RangePredicate& pred = spec.selections[s].pred;
      std::vector<Key> refined;
      kernels::FilterKeys(column.values().data(), keys.data(), keys.size(),
                          pred, &refined);
      keys = std::move(refined);
    }
  } else {
    // Disjunction: every predicate cracks its own column; key lists are
    // unordered, so the union needs a sort + unique.
    for (const QuerySpec::Selection& sel : spec.selections) {
      CrackerColumn& cracker = GetOrCreate(sel.attr);
      for (Value v : cracker.SelectKeys(sel.pred)) {
        keys.push_back(static_cast<Key>(v));
      }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  return std::make_unique<CrackedKeysHandle>(*relation_, std::move(keys));
}

}  // namespace crackdb
