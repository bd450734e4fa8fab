#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "obs/metrics.h"

namespace crackbench {

void Report::Set(const std::string& name, std::optional<double> value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit});
}

namespace {

std::string Number(std::optional<double> v) {
  if (!v.has_value() || !std::isfinite(*v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", *v);
  return buf;
}

}  // namespace

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + Number(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  return out;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t idx = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<double> SliceRates(const std::vector<double>& at, double span,
                               size_t slices) {
  std::vector<double> rates(slices, 0.0);
  const double per = static_cast<double>(slices) / span;
  for (double t : at) {
    rates[std::min(static_cast<size_t>(t * per), slices - 1)] += per;
  }
  return rates;
}

SliceMedians SliceSummary(const std::vector<double>& at,
                          const std::vector<double>& micros, double span,
                          size_t slices) {
  std::vector<std::vector<double>> cut(slices);
  for (size_t i = 0; i < at.size(); ++i) {
    const size_t s = static_cast<size_t>(at[i] / span * static_cast<double>(slices));
    cut[std::min(s, slices - 1)].push_back(micros[i]);
  }
  std::vector<double> rates, p50s, p99s;
  for (const std::vector<double>& slice : cut) {
    rates.push_back(static_cast<double>(slice.size()) * static_cast<double>(slices) / span);
    p50s.push_back(Percentile(slice, 0.50));
    p99s.push_back(Percentile(slice, 0.99));
  }
  return {Median(rates), Median(p50s), Median(p99s)};
}

double TailRate(const std::vector<double>& at) {
  const size_t n = at.size();
  if (n < 20) return 0.0;
  const size_t first = n - n / 10;
  return static_cast<double>(n - first) / (at.back() - at[first - 1]);
}

RegistrySnap SnapRegistry() {
  RegistrySnap snap;
  for (const auto& sample : crackdb::obs::MetricsRegistry::Global().Snapshot()) {
    snap[sample.name] = sample.value;
  }
  return snap;
}

std::optional<double> RegistryDelta(const RegistrySnap& before,
                                    const RegistrySnap& after,
                                    const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return std::nullopt;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0.0 : b->second);
}

void TraceAgg::Add(const crackdb::obs::QueryTrace& trace, double wall_micros) {
  std::map<std::string, double> per_query;
  for (const crackdb::obs::TraceSpan& span : trace.Spans()) {
    if (span.id == crackdb::obs::QueryTrace::kRootSpan) continue;
    if (span.name == "partition") continue;
    per_query[span.name] += span.duration_micros;
    // "select[<engine>]" also counts toward the engine-agnostic bucket.
    if (span.name.rfind("select[", 0) == 0) {
      per_query["select"] += span.duration_micros;
    }
  }
  for (const auto& [name, micros] : per_query) {
    Bucket& b = buckets_[name];
    b.micros += micros;
    ++b.queries;
  }
  const auto sel = per_query.find("select");
  select_series_.push_back(sel == per_query.end() ? 0.0 : sel->second);
  child_micros_ += trace.ChildMicros();
  wall_micros_ += wall_micros;
  ++queries_;
}

void TraceAgg::EndSeries(bool keep) {
  const size_t n = select_series_.size();
  const size_t tenth = std::max<size_t>(1, n / 10);
  if (keep && n > 0) {
    const auto first = select_series_.begin();
    const auto last = select_series_.end() - static_cast<long>(tenth);
    tenth_micros_[0] += std::accumulate(first, first + static_cast<long>(tenth), 0.0);
    tenth_micros_[1] += std::accumulate(last, select_series_.end(), 0.0);
    tenth_queries_[0] += tenth;
    tenth_queries_[1] += tenth;
  }
  select_series_.clear();
}

void TraceAgg::Merge(const TraceAgg& other) {
  for (const auto& [name, b] : other.buckets_) {
    buckets_[name].micros += b.micros;
    buckets_[name].queries += b.queries;
  }
  for (int i = 0; i < 2; ++i) {
    tenth_micros_[i] += other.tenth_micros_[i];
    tenth_queries_[i] += other.tenth_queries_[i];
  }
  child_micros_ += other.child_micros_;
  wall_micros_ += other.wall_micros_;
  queries_ += other.queries_;
}

double TraceAgg::MeanMicros(const std::string& bucket) const {
  const auto it = buckets_.find(bucket);
  if (it == buckets_.end() || it->second.queries == 0) return 0.0;
  return it->second.micros / static_cast<double>(it->second.queries);
}

double TraceAgg::SelectTenth(bool last) const {
  const int i = last ? 1 : 0;
  return tenth_queries_[i] == 0
             ? 0.0
             : tenth_micros_[i] / static_cast<double>(tenth_queries_[i]);
}

double TraceAgg::Coverage() const {
  return wall_micros_ <= 0.0 ? 0.0 : child_micros_ / wall_micros_;
}

}  // namespace crackbench
