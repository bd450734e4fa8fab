#ifndef CRACKDB_BENCH_UTIL_WORKLOAD_H_
#define CRACKDB_BENCH_UTIL_WORKLOAD_H_

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "engine/engine.h"
#include "storage/catalog.h"
#include "storage/relation.h"

namespace crackdb::bench {

/// Builders and generators for the paper's synthetic workloads
/// (Sections 3.6 and 4.2): relations of k integer attributes with values
/// uniform in [1, domain], random range queries of fixed selectivity,
/// skewed hot-set variants, and random update streams.

/// Creates relation `name` with attributes A1..A`num_attrs`, `num_rows`
/// rows, values uniform in [1, domain].
Relation& CreateUniformRelation(Catalog* catalog, const std::string& name,
                                size_t num_attrs, size_t num_rows,
                                Value domain, Rng* rng);

/// Attribute name "A<i>" (1-based), as produced by CreateUniformRelation.
std::string AttrName(size_t i);

/// A random range within [lo, hi] selecting ~`selectivity` of a uniform
/// domain; `selectivity` 0 yields a point query.
RangePredicate RandomRange(Rng* rng, Value lo, Value hi, double selectivity);

/// The paper's skewed generator (Exp5 / Figure 10(b)): with probability
/// `hot_probability` the range falls inside the hot fraction of the
/// domain, otherwise in the rest. Selectivity is relative to the full
/// domain size.
struct SkewedRangeGen {
  Value domain_lo = 1;
  Value domain_hi = 10'000'000;
  double hot_fraction = 0.5;
  double hot_probability = 0.9;
  double selectivity = 0.2;

  RangePredicate Next(Rng* rng) const;
};

/// A *shifting* hotspot (the adaptive-repartitioning stress shape): a hot
/// window of `hot_fraction` of the domain receives `hot_probability` of
/// the queries, and the window slides by `drift_step` of the domain every
/// `queries_per_phase` calls (wrapping around), so any partition map tuned
/// to the current hotspot goes stale a few thousand queries later. Used by
/// bench_adaptive_repartition.
class DriftingHotspotGen {
 public:
  Value domain_lo = 1;
  Value domain_hi = 10'000'000;
  double hot_fraction = 0.10;
  double hot_probability = 0.95;
  /// Query width relative to the full domain.
  double selectivity = 0.01;
  size_t queries_per_phase = 2'000;
  /// Window advance per phase, as a fraction of the domain.
  double drift_step = 0.15;

  /// The next query's range; advances the phase clock.
  RangePredicate Next(Rng* rng);

  /// Completed phases (window moves) so far.
  size_t phase() const { return issued_ / queries_per_phase; }
  /// Current hot window, for reporting.
  RangePredicate HotWindow() const;

 private:
  size_t issued_ = 0;
};

/// A zoom-in session (the paper's drifting-analyst shape, sharpened): the
/// queried window starts as the whole domain and shrinks by `shrink`
/// around a fixed focus point every `queries_per_level` queries, down to
/// `max_levels`. Early queries are broad scans; late queries hammer an
/// ever-narrower value region — the workload that rewards recursively
/// splitting the focus partition.
class ZoomInGen {
 public:
  Value domain_lo = 1;
  Value domain_hi = 10'000'000;
  /// Focus position as a fraction of the domain.
  double focus_fraction = 0.7;
  double shrink = 0.5;
  /// Query width relative to the *current* window.
  double selectivity = 0.2;
  size_t queries_per_level = 1'000;
  size_t max_levels = 8;

  RangePredicate Next(Rng* rng);

  size_t level() const {
    return std::min(issued_ / queries_per_level, max_levels);
  }
  /// Current zoom window, for reporting.
  RangePredicate Window() const;

 private:
  size_t issued_ = 0;
};

/// Applies `count` random updates: alternating inserts of fresh uniform
/// rows and deletes of random live rows (an update = delete + insert per
/// the paper's model). Returns the number of events logged.
size_t ApplyRandomUpdates(Relation* relation, Value domain, size_t count,
                          Rng* rng);

/// A result's rows as an order-insensitive multiset — the standard
/// cross-engine comparison form used throughout the tests and benches
/// (engines legitimately return rows in different physical orders).
std::multiset<std::vector<Value>> ZipRows(const QueryResult& r);

}  // namespace crackdb::bench

#endif  // CRACKDB_BENCH_UTIL_WORKLOAD_H_
