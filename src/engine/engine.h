#ifndef CRACKDB_ENGINE_ENGINE_H_
#define CRACKDB_ENGINE_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace crackdb {

/// A single-relation selection/projection query — the shape of the paper's
/// experiment queries (q1/q3, the Qi batches, and the per-relation legs of
/// join plans). Engines evaluate `selections` conjunctively unless
/// `disjunctive` is set. Callers order selections most-selective-first
/// (the paper applies the same discipline to every system; self-organizing
/// engines may additionally reorder using their histograms).
struct QuerySpec {
  struct Selection {
    std::string attr;
    RangePredicate pred;
  };

  std::vector<Selection> selections;
  bool disjunctive = false;
  /// Attributes whose values the query returns (tuple reconstructions).
  std::vector<std::string> projections;
};

/// Row-aligned result columns: columns[i] belongs to projections[i].
struct QueryResult {
  std::vector<std::vector<Value>> columns;
  size_t num_rows = 0;
};

/// Per-query cost decomposition matching the paper's breakdown tables:
/// selection work vs tuple-reconstruction work. `prepare_micros` charges
/// one-off physical-design work (presorting a copy) that the paper reports
/// separately from query time.
struct CostBreakdown {
  double select_micros = 0;
  double reconstruct_micros = 0;
  double prepare_micros = 0;

  double total_micros() const { return select_micros + reconstruct_micros; }
  void Reset() { *this = CostBreakdown{}; }
};

// The consumption-mode surface (engine/query.h): how a query's qualifying
// tuples are consumed (materialize / count / aggregate / streaming
// visitor), the scalar outcome of a pushed-down consumption, and the
// tagged result of Engine::Execute.
struct ConsumeSpec;
struct ConsumeOutcome;
struct ExecuteResult;

/// A prepared selection over one relation: the set of qualifying tuples,
/// with engine-specific access paths for reconstructing further attributes.
///
/// `Fetch` reads an attribute for every qualifying tuple in the handle's
/// row order (the pre-join reconstruction of the paper's Exp4).
/// `FetchAt` reads at arbitrary row ordinals — the post-join access pattern
/// where tuple order is lost; engines differ exactly here (scattered base
/// column lookups vs clustered map/copy areas, Figure 5(c)).
class SelectionHandle {
 public:
  virtual ~SelectionHandle() = default;

  virtual size_t NumRows() = 0;
  virtual std::vector<Value> Fetch(const std::string& attr) = 0;
  virtual std::vector<Value> FetchAt(const std::string& attr,
                                     std::span<const uint32_t> ordinals) = 0;

  /// Push-based consumption of the qualifying tuples: count them, fold
  /// one attribute (sum/min/max), or stream rows of `projections` through
  /// the spec's visitor — without building a QueryResult. The default
  /// works for every engine via Fetch/FetchView (zero-copy wherever
  /// FetchView serves a real view); handles whose qualifying tuples are
  /// scattered positional lookups (plain scans, selection cracking, row
  /// stores) override it to fold in place and skip the materialization.
  /// Not called with ConsumeSpec::Materialize (that is Execute's path).
  /// For handles whose projection declaration is binding (chunk-wise,
  /// sharded), an aggregate's attribute must have been declared — the
  /// builder's compile step guarantees this.
  virtual ConsumeOutcome Consume(const ConsumeSpec& consume,
                                 std::span<const std::string> projections);

  /// Zero-copy variant of Fetch where the engine can expose the qualifying
  /// values as a contiguous view — the paper's "non-materialized view of
  /// the tail of w" (Section 3.1 step 8). Sideways cracking and presorted
  /// copies return spans into their own storage; engines whose qualifying
  /// tuples are scattered (plain scans, selection cracking) materialize
  /// into `*storage` — that asymmetry is precisely the reconstruction cost
  /// the paper measures. The view is valid while the handle lives and no
  /// further query runs on the engine.
  virtual std::span<const Value> FetchView(const std::string& attr,
                                           std::vector<Value>* storage) {
    *storage = Fetch(attr);
    return {storage->data(), storage->size()};
  }
};

/// A query engine bound to one relation. Implementations: Plain (MonetDB-
/// like scans), Presorted (per-attribute sorted copies), SelectionCracking
/// ([7]), Sideways (full maps, Section 3), PartialSideways (Section 4),
/// and Row (NSM stand-in for the paper's MySQL baseline).
class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string name() const = 0;

  /// Evaluates the selections of `spec` and returns a handle over the
  /// qualifying tuples. `spec.projections` is a *declaration* of the
  /// attributes the caller may fetch (chunk-wise engines materialize per
  /// chunk and need the full working set up front).
  virtual std::unique_ptr<SelectionHandle> Select(const QuerySpec& spec) = 0;

  /// Convenience: Select + Fetch of every projection, with generic cost
  /// attribution (Select = selection cost, Fetch = reconstruction cost).
  /// Equivalent to Execute(spec, ConsumeSpec::Materialize()).rows.
  QueryResult Run(const QuerySpec& spec);

  /// Evaluates `spec` and consumes the qualifying tuples per `consume`
  /// (engine/query.h): materialize, count, aggregate, or stream through a
  /// visitor. Cost attribution rule: reconstruct_micros charges only work
  /// that reconstructs tuples into the caller's hands (materialization,
  /// merges, visitor delivery) — Count/Aggregate queries therefore report
  /// reconstruct_micros == 0 and charge their selection + fold to
  /// select_micros. The returned result carries this query's own cost
  /// delta in addition to the accumulation in cost().
  ExecuteResult Execute(const QuerySpec& spec, const ConsumeSpec& consume);

  CostBreakdown& cost() { return cost_; }
  const CostBreakdown& cost() const { return cost_; }

 protected:
  CostBreakdown cost_;
};

}  // namespace crackdb

#endif  // CRACKDB_ENGINE_ENGINE_H_
