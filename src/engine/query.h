#ifndef CRACKDB_ENGINE_QUERY_H_
#define CRACKDB_ENGINE_QUERY_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "engine/engine.h"
#include "kernels/kernels.h"
#include "obs/trace.h"

namespace crackdb {

class Database;

/// The fluent query surface: a `QueryBuilder` compiles to the engine
/// layer's `QuerySpec` plus a `ConsumeSpec` describing *how* the result is
/// consumed. The consumption mode is what the paper's cost model calls the
/// tuple-reconstruction side of a query — declaring it up front lets the
/// engine skip reconstruction where it is skippable: a `Count()` never
/// fetches a single attribute value, an `Aggregate()` folds values where
/// they live instead of materializing them, and under the sharded layer
/// both merge *scalars* across partitions instead of row vectors.

/// How a query's qualifying tuples are consumed.
enum class ConsumeKind {
  /// Today's behavior: every projected attribute is materialized into a
  /// QueryResult (full tuple reconstruction + cross-partition row merge).
  kMaterialize,
  /// Only the number of qualifying tuples; no attribute is ever fetched
  /// and no tuple data crosses a partition merge.
  kCount,
  /// One scalar fold (sum/min/max) over a single attribute, pushed below
  /// the partition merge: partitions fold locally, the merge combines
  /// scalars.
  kAggregate,
  /// Stream every qualifying row through a visitor without building the
  /// merged result: per-partition columns are visited in partition order
  /// (sequentially, on the calling thread) and never concatenated.
  kForEach,
  /// Grouped aggregation: per-group folds keyed by one group attribute,
  /// pushed below the partition merge exactly like kAggregate — partitions
  /// build local hash tables under their own locks, the merge combines
  /// partial tables on the caller thread, and no tuple is reconstructed.
  kGroupBy,
};

/// kCount is grouped-only (per-group cardinality via
/// GroupBy().Aggregate(kCount, ...)); a scalar cardinality query is
/// Count(), and the builder rejects kCount in scalar position.
enum class AggregateOp { kSum, kMin, kMax, kCount };

/// One per-group aggregate of a grouped query: the fold op plus the
/// attribute it folds. kCount never fetches a value; its attribute is a
/// placeholder that must still name an existing column (and, like every
/// aggregate attribute, must not duplicate the group key).
struct GroupAggregate {
  AggregateOp op = AggregateOp::kSum;
  std::string attr;
};

/// Columnar result of a grouped aggregation: one entry per group. Inside
/// the engines this is an *unordered partial* (hash-table emission order);
/// the finalized ExecuteResult table is sorted by group key ascending so
/// answers compare across engines and partitionings regardless of row
/// order. `aggregates[a]` parallels ConsumeSpec::group_aggs[a]; kCount
/// columns are filled from `counts` at finalize time.
struct GroupedTable {
  std::vector<Value> keys;
  std::vector<uint64_t> counts;
  std::vector<std::vector<Value>> aggregates;

  size_t num_groups() const { return keys.size(); }
};

/// Receives one qualifying row; values align with the query's projections.
/// The span is only valid for the duration of the call.
using RowVisitor = std::function<void(std::span<const Value> row)>;

/// The terminal of a query: which ConsumeKind, plus its parameters.
struct ConsumeSpec {
  ConsumeKind kind = ConsumeKind::kMaterialize;
  AggregateOp op = AggregateOp::kSum;      // kAggregate
  std::string attr;                        // kAggregate: the folded attribute
  RowVisitor visitor;                      // kForEach
  std::string group_attr;                  // kGroupBy: the group key
  std::vector<GroupAggregate> group_aggs;  // kGroupBy: the per-group folds

  static ConsumeSpec Materialize() { return {}; }
  static ConsumeSpec Count() {
    ConsumeSpec c;
    c.kind = ConsumeKind::kCount;
    return c;
  }
  static ConsumeSpec Aggregate(AggregateOp op, std::string attr) {
    ConsumeSpec c;
    c.kind = ConsumeKind::kAggregate;
    c.op = op;
    c.attr = std::move(attr);
    return c;
  }
  static ConsumeSpec ForEach(RowVisitor visitor) {
    ConsumeSpec c;
    c.kind = ConsumeKind::kForEach;
    c.visitor = std::move(visitor);
    return c;
  }
  static ConsumeSpec GroupBy(std::string attr,
                             std::vector<GroupAggregate> aggs) {
    ConsumeSpec c;
    c.kind = ConsumeKind::kGroupBy;
    c.group_attr = std::move(attr);
    c.group_aggs = std::move(aggs);
    return c;
  }
};

/// Scalar outcome of a pushed-down consumption (SelectionHandle::Consume).
struct ConsumeOutcome {
  size_t count = 0;
  Value aggregate = 0;
  /// False iff no qualifying row contributed (min/max are undefined then;
  /// a sum over zero rows reports aggregate == 0 with valid == false).
  bool aggregate_valid = false;
  /// kGroupBy: the unordered partial table (hash emission order); the
  /// executor sorts it (or merges it across shards) into the final table.
  GroupedTable groups;
};

/// Kernel-layer fold op for an AggregateOp. The enums mirror each other;
/// the kernel layer redeclares its own so it stays a leaf below engine/.
inline kernels::FoldOp ToFoldOp(AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum:
      return kernels::FoldOp::kSum;
    case AggregateOp::kMin:
      return kernels::FoldOp::kMin;
    case AggregateOp::kMax:
      return kernels::FoldOp::kMax;
    case AggregateOp::kCount:
      // Grouped-only: counts are tracked by the group accumulator's id
      // pass and never reach a fold kernel.
      break;
  }
  return kernels::FoldOp::kSum;
}

/// Folds one value into a running aggregate. Used for scalar-to-scalar
/// combination (the sharded merge); bulk folds go through the dispatched
/// kernels (contiguous spans and gathers) or FoldIndexed (strided access),
/// which hoist the op dispatch out of the loop so the fold vectorizes.
inline void FoldValue(AggregateOp op, Value v, Value* acc, bool* valid) {
  if (!*valid) {
    *acc = v;
    *valid = true;
    return;
  }
  switch (op) {
    case AggregateOp::kSum:
      // Unsigned add: sums wrap modulo 2^64 (same contract as the kernel
      // arms) instead of overflowing signed.
      *acc = static_cast<Value>(static_cast<uint64_t>(*acc) +
                                static_cast<uint64_t>(v));
      break;
    case AggregateOp::kMin:
      *acc = std::min(*acc, v);
      break;
    case AggregateOp::kMax:
      *acc = std::max(*acc, v);
      break;
    case AggregateOp::kCount:
      break;  // grouped-only; unreachable in scalar folds.
  }
}

/// Op-specialized bulk fold over `n` values addressed by `get(i)`: one
/// tight loop per op (a per-element FoldValue would pay a branch and a
/// switch per value and never vectorize — measurably slower than the
/// materialize-then-fold loop it is meant to beat). Combines into the
/// running (acc, valid) state.
template <typename GetFn>
void FoldIndexed(AggregateOp op, size_t n, GetFn get, Value* acc,
                 bool* valid) {
  if (n == 0) return;
  Value result = get(0);
  switch (op) {
    case AggregateOp::kSum: {
      uint64_t sum = static_cast<uint64_t>(result);
      for (size_t i = 1; i < n; ++i) sum += static_cast<uint64_t>(get(i));
      result = static_cast<Value>(sum);
      break;
    }
    case AggregateOp::kMin:
      for (size_t i = 1; i < n; ++i) result = std::min(result, get(i));
      break;
    case AggregateOp::kMax:
      for (size_t i = 1; i < n; ++i) result = std::max(result, get(i));
      break;
    case AggregateOp::kCount:
      return;  // grouped-only; unreachable in scalar folds.
  }
  FoldValue(op, result, acc, valid);
}

/// Contiguous-view fold through the dispatched kernel arm.
inline void FoldSpan(AggregateOp op, std::span<const Value> values,
                     Value* acc, bool* valid) {
  kernels::FoldSpan(ToFoldOp(op), values.data(), values.size(), acc, valid);
}

/// The tagged result of executing a query with a consumption mode.
struct ExecuteResult {
  ConsumeKind kind = ConsumeKind::kMaterialize;
  /// kMaterialize only; empty otherwise.
  QueryResult rows;
  /// Number of qualifying tuples, filled in every mode.
  size_t count = 0;
  /// kAggregate: the fold result. aggregate_valid is false when no row
  /// qualified (aggregate is 0 then).
  Value aggregate = 0;
  bool aggregate_valid = false;
  /// kGroupBy: the finalized grouped table, sorted by group key ascending.
  GroupedTable groups;
  /// This query's own cost delta. Count/Aggregate/GroupBy queries report
  /// reconstruct_micros == 0: they never reconstruct a tuple.
  CostBreakdown cost;
  /// Partition fan-out under the sharded layer: how many partitions the
  /// query actually ran on, and how many the organizing-attribute pruning
  /// ruled out. Both 0 for unsharded engines.
  size_t partitions_touched = 0;
  size_t partitions_pruned = 0;
  /// The span timeline, present iff the query was built with Trace().
  /// Shared so the query-log ring can retain it after the result dies.
  std::shared_ptr<const obs::QueryTrace> trace;

  /// The rendered span tree (obs::QueryTrace::Format), or a hint to call
  /// Trace() when the query was not traced.
  std::string Explain() const;
};

/// Error half of the Expected<> surface: one human-readable message.
struct QueryError {
  std::string message;
};

/// Aborts with a clear message: Expected::value() was called on an error.
[[noreturn]] void DieOnErrorAccess(const std::string& error);

/// Minimal std::expected stand-in (C++23 is not required by this repo):
/// either a value or a QueryError. `value()`/`operator*` die loudly when
/// called on an error — check `ok()` first.
template <typename T>
class Expected {
 public:
  Expected(T value) : value_(std::move(value)), ok_(true) {}  // NOLINT
  Expected(QueryError error)                                  // NOLINT
      : error_(std::move(error.message)) {}

  bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }

  const std::string& error() const { return error_; }

  T& value() {
    CheckOk();
    return value_;
  }
  const T& value() const {
    CheckOk();
    return value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void CheckOk() const {
    if (!ok_) DieOnErrorAccess(error_);
  }

  T value_{};
  std::string error_;
  bool ok_ = false;
};

/// A compiled query: the table it targets (for Database::Execute), the
/// engine-layer spec, the consumption terminal, and the first validation
/// error the builder recorded (empty = valid so far; attribute/table
/// existence is checked by Database::Execute, which knows the schema).
/// A raw spec runs as `Query{table, spec}` (Materialize consumption) or
/// `Query{table, spec, ConsumeSpec::Count()}`.
struct Query {
  std::string table;
  QuerySpec spec{};
  ConsumeSpec consume{};
  std::string error{};
  /// Record a span timeline for this query (QueryBuilder::Trace()).
  bool trace = false;
};

/// The terminal compile step, shared by QueryBuilder::Build and
/// Database::Execute (which re-runs it on hand-built Queries): applies the
/// terminal's projection pushdown (Count() declares no projections —
/// chunk-wise engines then materialize nothing; Aggregate() declares
/// exactly its folded attribute; GroupBy() the key plus every folded
/// attribute) and runs the terminal validations. Idempotent on an already
/// compiled query. Returns "" or the first failure; `q.error` is untouched.
std::string CompileTerminal(Query& q);

/// Fluent builder over QuerySpec + ConsumeSpec:
///
///   db.From("t").Where("a", lo, hi).Project("b", "c").Execute();
///   db.From("t").Where("a", lo, hi).Count().Execute();
///   db.From("t").Where("a", lo, hi)
///       .Aggregate(AggregateOp::kSum, "b").Execute();
///   db.From("t").Where("a", lo, hi).GroupBy("g")
///       .Aggregate(AggregateOp::kSum, "b")
///       .Aggregate(AggregateOp::kCount, "b").Execute();
///
/// Predicates are validated as they are added (inverted ranges, empty
/// attribute names, mixed Where/OrWhere connectives) and the terminal is
/// validated at Build time (empty projection with Materialize()/ForEach(),
/// aggregate without an attribute); the first error is carried in the
/// compiled Query and surfaced by Database::Execute as an Expected error —
/// nothing asserts deep inside an engine.
///
/// Unbound builders (no Database) compile to a bare QuerySpec via Spec()
/// for code that drives engines directly (the benches); Spec() dies with
/// the recorded message on an invalid build, since such call sites are
/// static code, not user input.
class QueryBuilder {
 public:
  QueryBuilder() = default;
  explicit QueryBuilder(std::string table, Database* db = nullptr)
      : db_(db) {
    q_.table = std::move(table);
  }

  /// Conjunctive range selection [lo, hi] (closed). Most-selective-first
  /// ordering is the caller's discipline, as for raw QuerySpecs.
  QueryBuilder& Where(std::string attr, Value lo, Value hi) {
    return Where(std::move(attr), RangePredicate::Closed(lo, hi));
  }
  QueryBuilder& Where(std::string attr, RangePredicate pred) {
    AddSelection(std::move(attr), pred, /*disjunct=*/false);
    return *this;
  }
  QueryBuilder& WherePoint(std::string attr, Value v) {
    return Where(std::move(attr), RangePredicate::Point(v));
  }

  /// Disjunctive selection: `sel1 OR sel2 OR ...`. The engine layer
  /// evaluates a spec either fully conjunctively or fully disjunctively,
  /// so mixing two-plus Where() with OrWhere() is a validation error.
  QueryBuilder& OrWhere(std::string attr, Value lo, Value hi) {
    return OrWhere(std::move(attr), RangePredicate::Closed(lo, hi));
  }
  QueryBuilder& OrWhere(std::string attr, RangePredicate pred) {
    AddSelection(std::move(attr), pred, /*disjunct=*/true);
    return *this;
  }

  /// Attributes the query returns (tuple reconstructions). Ignored by
  /// Count()/Aggregate(), whose compiled specs declare only what they
  /// touch — that is the pushdown.
  template <typename... Attrs>
  QueryBuilder& Project(Attrs... attrs) {
    (AddProjection(std::string(std::move(attrs))), ...);
    return *this;
  }
  QueryBuilder& Project(std::vector<std::string> attrs) {
    for (std::string& attr : attrs) AddProjection(std::move(attr));
    return *this;
  }

  /// Terminals (last call wins; Materialize() is the default).
  QueryBuilder& Count() {
    q_.consume = ConsumeSpec::Count();
    return *this;
  }
  /// After GroupBy(): appends one per-group fold (kCount|kSum|kMin|kMax)
  /// to the grouped terminal. Otherwise: the scalar fold terminal
  /// (kCount is rejected at Build time in scalar position — use Count()).
  QueryBuilder& Aggregate(AggregateOp op, std::string attr) {
    if (q_.consume.kind == ConsumeKind::kGroupBy) {
      q_.consume.group_aggs.push_back({op, std::move(attr)});
    } else {
      q_.consume = ConsumeSpec::Aggregate(op, std::move(attr));
    }
    return *this;
  }
  /// Grouped terminal: per-group hash aggregation keyed by `attr`. Follow
  /// with one Aggregate() per requested fold. Like every terminal, the
  /// last call wins — a later GroupBy() resets the aggregate list.
  QueryBuilder& GroupBy(std::string attr) {
    q_.consume = ConsumeSpec::GroupBy(std::move(attr), {});
    return *this;
  }
  QueryBuilder& ForEach(RowVisitor visitor) {
    q_.consume = ConsumeSpec::ForEach(std::move(visitor));
    return *this;
  }
  QueryBuilder& Materialize() {
    q_.consume = ConsumeSpec::Materialize();
    return *this;
  }

  /// Opts this query into span recording: the result (and the query-log
  /// entry) carries a QueryTrace whose tree Explain() renders. Orthogonal
  /// to the terminal; costs a handful of mutexed span appends per
  /// partition touched, nothing per row.
  QueryBuilder& Trace() {
    q_.trace = true;
    return *this;
  }

  /// First validation error recorded so far ("" = none).
  const std::string& error() const { return q_.error; }

  /// Compiles the builder into a Query through CompileTerminal; its
  /// failure is recorded like any other (the first error wins).
  /// Consumes the builder (like Spec and Execute): the fluent chain ends
  /// here, the builder must not be reused afterwards.
  Query Build();

  /// Compiles to a bare QuerySpec for driving an Engine directly.
  /// Dies (with the recorded message) on an invalid build. Consuming.
  QuerySpec Spec();

  /// Executes on the Database this builder was created from
  /// (Database::From); error when the builder is unbound. Consuming.
  Expected<ExecuteResult> Execute();

 private:
  void AddSelection(std::string attr, RangePredicate pred, bool disjunct);
  void AddProjection(std::string attr);
  /// Records the first validation error; later ones are dropped (the
  /// first is almost always the root cause). "" records nothing.
  void Fail(std::string message);

  Query q_;
  Database* db_ = nullptr;
  bool mixed_where_ = false;      // a 2nd+ conjunctive Where was used
  bool any_disjunctive_ = false;  // any OrWhere was used
};

}  // namespace crackdb

#endif  // CRACKDB_ENGINE_QUERY_H_
