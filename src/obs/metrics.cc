#include "obs/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>

namespace crackdb::obs {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

void SetMetricsEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool MetricsEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void Histogram::Observe(double v) {
  if (!MetricsEnabled()) return;
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, v);
  AtomicMax(max_, v);
}

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // Node-based containers: references handed out stay valid forever.
  std::map<std::string, MetricKind> kinds;
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::map<std::string, Counter*> counter_by_name;
  std::map<std::string, Gauge*> gauge_by_name;
  std::map<std::string, Histogram*> histogram_by_name;

  void CheckKind(const std::string& name, MetricKind want) {
    auto it = kinds.find(name);
    if (it != kinds.end() && it->second != want) {
      std::fprintf(stderr,
                   "MetricsRegistry: metric '%s' re-requested with a "
                   "different kind\n",
                   name.c_str());
      std::abort();
    }
  }
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();  // leaked: outlives all static callers
  return *impl;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.CheckKind(name, MetricKind::kCounter);
  auto it = im.counter_by_name.find(name);
  if (it != im.counter_by_name.end()) return *it->second;
  im.counters.emplace_back();
  Counter* c = &im.counters.back();
  im.counter_by_name.emplace(name, c);
  im.kinds.emplace(name, MetricKind::kCounter);
  return *c;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.CheckKind(name, MetricKind::kGauge);
  auto it = im.gauge_by_name.find(name);
  if (it != im.gauge_by_name.end()) return *it->second;
  im.gauges.emplace_back();
  Gauge* g = &im.gauges.back();
  im.gauge_by_name.emplace(name, g);
  im.kinds.emplace(name, MetricKind::kGauge);
  return *g;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.CheckKind(name, MetricKind::kHistogram);
  auto it = im.histogram_by_name.find(name);
  if (it != im.histogram_by_name.end()) return *it->second;
  im.histograms.emplace_back();
  Histogram* h = &im.histograms.back();
  im.histogram_by_name.emplace(name, h);
  im.kinds.emplace(name, MetricKind::kHistogram);
  return *h;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<MetricSample> out;
  out.reserve(im.kinds.size());
  for (const auto& [name, kind] : im.kinds) {
    MetricSample s;
    s.name = name;
    s.kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        s.value = im.counter_by_name.at(name)->value();
        break;
      case MetricKind::kGauge:
        s.value = im.gauge_by_name.at(name)->value();
        break;
      case MetricKind::kHistogram: {
        const Histogram* h = im.histogram_by_name.at(name);
        s.value = h->sum();
        s.count = h->count();
        s.max = h->max();
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;  // std::map iteration is already name-sorted
}

std::string WithLabel(const std::string& base, const std::string& key,
                      const std::string& value) {
  // Compose onto an already-labelled base: a{x="1"} + (y,2) -> a{x="1",y="2"}
  std::string out;
  const size_t brace = base.find('{');
  if (brace == std::string::npos) {
    out = base + "{" + key + "=\"" + value + "\"}";
  } else {
    out = base.substr(0, base.size() - 1) + "," + key + "=\"" + value + "\"}";
  }
  return out;
}

std::string WithLabel(const std::string& base, const std::string& key,
                      int64_t value) {
  return WithLabel(base, key, std::to_string(value));
}

}  // namespace crackdb::obs
