// Process-wide metrics registry: named counters, gauges, and log-bucketed
// histograms on relaxed atomics. The hot-path contract is one relaxed
// atomic add per event (plus one relaxed bool load for the global enable
// flag); name lookup happens once per call site, which caches the returned
// pointer in a function-local static. Metric objects are never destroyed
// or moved once created, so cached pointers stay valid for the process
// lifetime.
//
// Families (per-partition, per-worker, ...) are just label-suffixed names:
// `WithLabel("pool_worker_tasks_total", "worker", 3)` yields
// `pool_worker_tasks_total{worker="3"}`. Callers that need a dense family
// cache a vector of pointers at construction time (see ThreadPool).
//
// docs/OBSERVABILITY.md carries the full metric inventory and the
// overhead contract; bench_observability enforces the latter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace crackdb::obs {

// Relaxed add for atomic<double> without relying on C++20 floating-point
// fetch_add support across toolchains.
inline void AtomicAdd(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

// Relaxed max for atomic<double>.
inline void AtomicMax(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Global kill switch. Off means every Add/Set/Observe is a single relaxed
// load and return — the "pre-observability" execution path used as the
// baseline arm in bench_observability. Defaults to on.
void SetMetricsEnabled(bool enabled);
bool MetricsEnabled();

// Monotone counter. Add() tolerates fractional increments (micros).
class Counter {
 public:
  void Add(double v = 1.0) {
    if (!MetricsEnabled()) return;
    AtomicAdd(value_, v);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Last-write-wins gauge.
class Gauge {
 public:
  void Set(double v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(double v) {
    if (!MetricsEnabled()) return;
    AtomicAdd(value_, v);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Histogram of observations (micros by convention) kept as exact
// count/sum/max: system.metrics shows those three, and the sum keeps mean
// and totals precise.
class Histogram {
 public:
  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

// One row of a registry snapshot (the system.metrics view).
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;    // counter/gauge value; histogram sum
  uint64_t count = 0;    // histogram observation count, 0 otherwise
  double max = 0.0;      // histogram max, 0 otherwise
};

// Named metric store. Creation takes a mutex; the returned references are
// stable forever (node-based storage). Names are unique across kinds —
// asking for an existing name with a different kind aborts (it is a
// programming error, caught in tests long before production).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Stable-ordered (sorted by name) snapshot of every metric.
  std::vector<MetricSample> Snapshot() const;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  struct Impl;
  Impl& impl() const;
};

// `base{key="value"}` — Prometheus-style label suffix for metric families.
std::string WithLabel(const std::string& base, const std::string& key,
                      const std::string& value);
std::string WithLabel(const std::string& base, const std::string& key,
                      int64_t value);

}  // namespace crackdb::obs
