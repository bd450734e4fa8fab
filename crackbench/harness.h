// Shared plumbing of the crackbench binary: options, the metric report and
// its one-line JSON rendering, sample statistics, registry snapshots looked
// up by name, and the per-layer span attribution of traced queries.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace crackbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupts one oracle answer on purpose: the run must then report the
  /// mismatch and exit non-zero (the oracle's own self-test).
  bool inject_mismatch = false;
};

/// Metrics in insertion order; a value of nullopt renders as JSON null
/// (a registry name the library no longer exports).
class Report {
 public:
  void Set(const std::string& name, std::optional<double> value,
           const std::string& unit);
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    std::optional<double> value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Medians over equal slices: the samples (`at[i]`, `micros[i]`) are cut
/// into `slices` equal slices of [0, span) by `at`, and each slice gives a
/// rate (samples per unit of `at`), a p50 and a p99. Taking the median
/// across slices keeps one burst of machine noise out of the figure.
struct SliceMedians {
  double rate = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};
/// Samples per unit of `at` in each of `slices` equal slices of [0, span).
std::vector<double> SliceRates(const std::vector<double>& at, double span,
                               size_t slices);
SliceMedians SliceSummary(const std::vector<double>& at,
                          const std::vector<double>& micros, double span,
                          size_t slices);
/// The rate of the last tenth of the samples by count, over the time they
/// took (`at` ascending); 0 for fewer than 20 samples.
double TailRate(const std::vector<double>& at);

/// Registry values by name (histograms contribute their sum).
using RegistrySnap = std::map<std::string, double>;
RegistrySnap SnapRegistry();
/// after - before for `name`; nullopt when the registry has no such name.
std::optional<double> RegistryDelta(const RegistrySnap& before,
                                    const RegistrySnap& after,
                                    const std::string& name);

/// Per-layer attribution of traced queries. Span durations of one name are
/// summed within a query (one span per partition touched), then averaged
/// over the queries in which that span occurs.
class TraceAgg {
 public:
  void Add(const crackdb::obs::QueryTrace& trace, double wall_micros);
  /// Ends a series of traced queries (the window, or one epoch): its first
  /// and last tenth enter SelectTenth. `keep` false drops the series (an
  /// epoch the deadline cut short).
  void EndSeries(bool keep);
  void Merge(const TraceAgg& other);

  /// Mean per-query micros of spans named `bucket` ("admission", "merge",
  /// "queue_wait", "lock_wait", "select", "select[<engine>]", "fetch",
  /// "fold", "decompress", "encoded_fold", ...); 0 when never seen.
  double MeanMicros(const std::string& bucket) const;
  /// Mean of the per-query "select" sums over the first / last tenth of
  /// each ended series, in the order the queries were added.
  double SelectTenth(bool last) const;
  /// Union of the root's child spans over the wall time measured around
  /// the public call, summed over all traced queries.
  double Coverage() const;
  size_t queries() const { return queries_; }

 private:
  struct Bucket {
    double micros = 0.0;
    size_t queries = 0;
  };
  std::map<std::string, Bucket> buckets_;
  std::vector<double> select_series_;  // the open series
  double tenth_micros_[2] = {0.0, 0.0};  // first, last tenth of ended series
  size_t tenth_queries_[2] = {0, 0};
  double child_micros_ = 0.0;
  double wall_micros_ = 0.0;
  size_t queries_ = 0;
};

}  // namespace crackbench
