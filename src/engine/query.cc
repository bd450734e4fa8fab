#include "engine/query.h"

#include "common/die.h"
#include "engine/database.h"

namespace crackdb {

[[noreturn]] void DieOnErrorAccess(const std::string& error) {
  Die("query", "value() called on an error result", error);
}

std::string ExecuteResult::Explain() const {
  if (trace == nullptr) {
    return "(not traced; build the query with .Trace() to record spans)\n";
  }
  return trace->Format();
}

void QueryBuilder::Fail(std::string message) {
  if (q_.error.empty()) q_.error = std::move(message);
}

void QueryBuilder::AddSelection(std::string attr, RangePredicate pred,
                                bool disjunct) {
  if (attr.empty()) {
    Fail("empty attribute name in selection");
    return;
  }
  if (pred.low > pred.high) {
    Fail("inverted range on '" + attr + "': low " + std::to_string(pred.low) +
         " > high " + std::to_string(pred.high));
    return;
  }
  if (disjunct) {
    any_disjunctive_ = true;
  } else if (!q_.spec.selections.empty()) {
    mixed_where_ = true;
  }
  if (mixed_where_ && any_disjunctive_) {
    Fail("cannot mix a multi-predicate Where() conjunction with OrWhere(); "
         "a query is either fully conjunctive or fully disjunctive");
    return;
  }
  q_.spec.disjunctive = any_disjunctive_;
  q_.spec.selections.push_back({std::move(attr), pred});
}

void QueryBuilder::AddProjection(std::string attr) {
  if (attr.empty()) {
    Fail("empty attribute name in projection");
    return;
  }
  q_.spec.projections.push_back(std::move(attr));
}

std::string CompileTerminal(Query& q) {
  switch (q.consume.kind) {
    case ConsumeKind::kCount:
      // The pushdown: a count touches no attribute at all, so the
      // compiled spec declares none — chunk-wise engines then skip their
      // per-chunk materialization entirely.
      q.spec.projections.clear();
      break;
    case ConsumeKind::kAggregate:
      if (q.consume.attr.empty()) return "Aggregate() requires an attribute";
      if (q.consume.op == AggregateOp::kCount) {
        return "Aggregate(kCount) is grouped-only; use Count() for a scalar "
               "cardinality query or GroupBy().Aggregate(kCount, ...) for "
               "per-group counts";
      }
      // Declare exactly the folded attribute: engines whose handles serve
      // only declared projections (partial, sharded) can then fold it,
      // and nothing else is ever materialized. Terminals are last-call-
      // wins, so an earlier Project() list is simply superseded.
      q.spec.projections = {q.consume.attr};
      break;
    case ConsumeKind::kGroupBy: {
      if (q.consume.group_attr.empty()) {
        return "GroupBy() requires an attribute";
      }
      if (q.consume.group_aggs.empty()) {
        return "GroupBy() requires at least one Aggregate()";
      }
      for (const GroupAggregate& agg : q.consume.group_aggs) {
        if (agg.attr.empty()) return "Aggregate() requires an attribute";
        if (agg.attr == q.consume.group_attr) {
          return "aggregate attribute '" + agg.attr +
                 "' duplicates the group key; the key (and per-group counts "
                 "via kCount) are returned without folding it";
        }
      }
      // The pushdown: declare the group key plus every *folded* attribute
      // (kCount fetches no values), deduplicated — engines whose handles
      // serve only declared projections then fold exactly these columns.
      std::vector<std::string> pushdown = {q.consume.group_attr};
      for (const GroupAggregate& agg : q.consume.group_aggs) {
        if (agg.op == AggregateOp::kCount) continue;
        if (std::find(pushdown.begin(), pushdown.end(), agg.attr) ==
            pushdown.end()) {
          pushdown.push_back(agg.attr);
        }
      }
      // An explicit Project() list would be silently replaced by the
      // pushdown — reject it (unless it *is* the pushdown, which keeps
      // re-compiling an already-built query idempotent).
      if (!q.spec.projections.empty() && q.spec.projections != pushdown) {
        return "Project('" + q.spec.projections.front() +
               "', ...) conflicts with GroupBy(): a grouped query returns "
               "the group key and aggregate columns only (remove Project())";
      }
      q.spec.projections = std::move(pushdown);
      break;
    }
    case ConsumeKind::kForEach:
      if (!q.consume.visitor) return "ForEach() requires a visitor";
      if (q.spec.projections.empty()) {
        return "ForEach() requires at least one projected attribute";
      }
      break;
    case ConsumeKind::kMaterialize:
      if (q.spec.projections.empty()) {
        return "Materialize() requires at least one projected attribute "
               "(use Count() for a projection-free cardinality query)";
      }
      break;
  }
  return "";
}

Query QueryBuilder::Build() {
  Fail(CompileTerminal(q_));
  return std::move(q_);
}

QuerySpec QueryBuilder::Spec() {
  Query q = Build();
  if (!q.error.empty()) Die("query builder", "invalid query", q.error);
  return std::move(q.spec);
}

Expected<ExecuteResult> QueryBuilder::Execute() {
  if (db_ == nullptr) {
    return QueryError{
        "Execute() on an unbound builder (create it via Database::From)"};
  }
  return db_->Execute(Build());
}

}  // namespace crackdb
