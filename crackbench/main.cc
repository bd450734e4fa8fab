// crackbench: the end-to-end and per-layer benchmark of crackdb.
//
//   crackbench --workload <qi-sideways|agg-pushdown|serve-rw> --seed <n>
//              --seconds <s> --trace <0|1> [--inject-mismatch 1]
//
// One run: build the workload's source relations from the seed; set up a
// fresh database and run the warmup several times (set-up and warmup are
// reported as medians); then drive the closed-loop clients for --seconds,
// check sampled answers against a plain-scan oracle, and print one JSON
// line. An epoch workload (qi-sideways) instead sets up a fresh database
// and warms it up at the start of every epoch of its window. --trace 0
// reports the end-to-end metrics; --trace 1 traces every other measured
// query and reports the per-layer metrics (see README.md).
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "kernels/cpu_dispatch.h"
#include "probe.h"
#include "workload.h"

namespace crackbench {
namespace {

constexpr int kSetupReps = 5;
constexpr size_t kSampleStride = 97;
constexpr size_t kMaxSamples = 150;  // per client
constexpr double kCoverageBar = 0.95;
constexpr size_t kSlices = 20;  // window slices for qps and percentiles

/// Slices for a sample of `n`: as many as leave every slice 1,000 samples
/// (enough for a p99 with ten beyond it), between 1 and kSlices.
size_t SlicesFor(size_t n) { return std::clamp<size_t>(n / 1000, 1, kSlices); }

/// Field-wise means of per-epoch figures.
SliceMedians MeanOf(const std::vector<SliceMedians>& v) {
  std::vector<double> rates, p50s, p99s;
  for (const SliceMedians& s : v) {
    rates.push_back(s.rate);
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
  }
  return {Mean(rates), Mean(p50s), Mean(p99s)};
}

/// Everything one client records during the measured window.
struct ClientLog {
  // Measured queries and writes: of the window, or of the open epoch.
  std::vector<double> query_micros;
  std::vector<double> query_end_s;  // completion time since window start
  std::vector<double> write_micros;
  std::vector<double> write_end_s;
  size_t queries = 0, writes = 0;  // every one in the window
  TraceAgg traces;
  double traced_micros = 0.0, untraced_micros = 0.0;
  size_t traced = 0, untraced = 0;
  double select_micros = 0.0, reconstruct_micros = 0.0;
  size_t touched = 0;  // all queries
  size_t untraced_touched = 0, untraced_pruned = 0;
  uint64_t attempted = 0, failed = 0;
  // Epoch workloads: one entry per completed epoch, and the layer state
  // at the end of the last one.
  std::vector<double> setup_s, warmup_s, tail_qps;
  std::vector<SliceMedians> reads, writes_summary;
  Facts facts;
};

/// Logs the measured queries of one op that completed at `end_s`.
void LogQueries(const OpOutcome& o, double end_s, ClientLog& log) {
  for (const QueryStat& q : o.queries) {
    log.query_micros.push_back(o.micros);
    log.query_end_s.push_back(end_s);
    log.select_micros += q.cost.select_micros;
    log.reconstruct_micros += q.cost.reconstruct_micros;
    log.touched += q.partitions_touched;
    if (q.trace != nullptr) {
      log.traces.Add(*q.trace, o.micros);
      log.traced_micros += o.micros;
      ++log.traced;
    } else {
      log.untraced_micros += o.micros;
      ++log.untraced;
      log.untraced_touched += q.partitions_touched;
      log.untraced_pruned += q.partitions_pruned;
    }
  }
}

/// Closes a completed epoch whose measured part took `span_s`: its figures
/// join the log and its samples are cleared.
void CloseEpoch(ClientLog& log, double span_s, Facts facts) {
  log.reads.push_back(
      SliceSummary(log.query_end_s, log.query_micros, span_s, 1));
  log.writes_summary.push_back(
      SliceSummary(log.write_end_s, log.write_micros, span_s, 1));
  log.tail_qps.push_back(TailRate(log.query_end_s));
  log.facts = std::move(facts);
  log.traces.EndSeries(true);
  log.query_micros.clear();
  log.query_end_s.clear();
  log.write_micros.clear();
  log.write_end_s.clear();
}

/// Runs `body(client)` on every client, one thread each (the caller's
/// thread serves a single client), and waits for all of them.
template <typename Body>
void OnClients(size_t clients, Body body) {
  if (clients == 1) {
    body(size_t{0});
    return;
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();
}

/// Warmup on a fresh table: every client's first warmup_ops() ops;
/// returns the wall seconds until the last client finishes.
double RunWarmup(Workload& w) {
  std::barrier start(static_cast<std::ptrdiff_t>(w.clients()));
  Clock::time_point t0;
  OnClients(w.clients(), [&](size_t c) {
    start.arrive_and_wait();
    if (c == 0) t0 = Clock::now();
    for (size_t i = 0; i < w.warmup_ops(); ++i) w.RunOp(c, false, false);
  });
  return SecondsBetween(t0, Clock::now());
}

/// The measured window: closed-loop clients until the deadline. An epoch
/// workload (one client) starts each epoch with Setup() and its warmup ops,
/// which are timed but not measured; the deadline drops an unfinished
/// epoch.
std::vector<ClientLog> RunWindow(Workload& w, const Options& opt,
                                 double* wall_s) {
  std::vector<ClientLog> logs(w.clients());
  std::barrier start(static_cast<std::ptrdiff_t>(w.clients()));
  const size_t epoch_ops = w.epoch_ops();
  OnClients(w.clients(), [&](size_t c) {
    start.arrive_and_wait();
    Clock::time_point begin = Clock::now();
    const Clock::time_point deadline =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.seconds));
    ClientLog& log = logs[c];
    // Tracing alternates and sampling strides over query ops only, so a
    // write share that falls on every other op cannot alias them away.
    bool trace_next = true;
    bool sample_next = true;
    size_t samples = 0;
    size_t warmup_left = 0;
    Clock::time_point epoch_begin;
    for (size_t op = 0; Clock::now() < deadline; ++op) {
      if (epoch_ops > 0 && op % epoch_ops == 0) {
        log.setup_s.push_back(w.Setup());
        w.ResetStreams();
        warmup_left = w.warmup_ops();
        epoch_begin = begin = Clock::now();
      }
      if (op % kSampleStride == 0 && samples < kMaxSamples) sample_next = true;
      const bool warmup = warmup_left > 0;
      const OpOutcome o =
          w.RunOp(c, opt.trace && trace_next && !warmup, sample_next);
      const Clock::time_point now = Clock::now();
      const double end_s = SecondsBetween(begin, now);
      log.attempted += o.attempted;
      log.failed += o.failed;
      if (o.kind == OpOutcome::Kind::kQuery) {
        if (!warmup) trace_next = !trace_next;
        samples += sample_next ? 1 : 0;
        sample_next = false;
        log.queries += o.queries.size();
      } else {
        ++log.writes;
      }
      if (warmup) {
        if (--warmup_left == 0) {
          log.warmup_s.push_back(SecondsBetween(epoch_begin, now));
          begin = now;
        }
      } else if (o.kind == OpOutcome::Kind::kWrite) {
        log.write_micros.push_back(o.micros);
        log.write_end_s.push_back(end_s);
      } else {
        LogQueries(o, end_s, log);
      }
      if (epoch_ops > 0 && (op + 1) % epoch_ops == 0) {
        CloseEpoch(log, end_s, w.Collect());
      }
    }
    if (epoch_ops > 0) {
      // The deadline cut the last epoch short: drop what it measured.
      log.query_micros.clear();
      log.query_end_s.clear();
      log.write_micros.clear();
      log.write_end_s.clear();
    }
    log.traces.EndSeries(epoch_ops == 0);
  });
  *wall_s = 0.0;
  for (const ClientLog& log : logs) {
    if (!log.query_end_s.empty()) {
      *wall_s = std::max(*wall_s, log.query_end_s.back());
    }
  }
  return logs;
}

double Ratio(double num, double den) { return den <= 0.0 ? 0.0 : num / den; }

int Usage() {
  std::fprintf(stderr,
               "usage: crackbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--inject-mismatch 1]\nworkloads:");
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--inject-mismatch") {
      opt.inject_mismatch = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0) return Usage();
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload);
  if (w == nullptr) return Usage();

  std::printf("# crackbench workload=%s seed=%llu seconds=%g trace=%d "
              "kernel=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              crackdb::kernels::IsaName(crackdb::kernels::ActiveIsa()));
  w->BuildSource(opt.seed);

  // Set-up and warmup, repeated on fresh databases; the window continues
  // on the last one. An epoch workload sets up in every epoch instead.
  const bool epochs = w->epoch_ops() > 0;
  std::vector<double> setup_s, warmup_s;
  for (int rep = 0; rep < (epochs ? 0 : kSetupReps); ++rep) {
    setup_s.push_back(w->Setup());
    w->ResetStreams();
    warmup_s.push_back(RunWarmup(*w));
  }

  const RegistrySnap before = SnapRegistry();
  double wall_s = 0.0;
  std::vector<ClientLog> logs = RunWindow(*w, opt, &wall_s);
  const RegistrySnap after = SnapRegistry();
  const Facts facts = epochs ? logs[0].facts : w->Collect();

  ClientLog all;
  for (ClientLog& log : logs) {
    const auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(setup_s, log.setup_s);
    append(warmup_s, log.warmup_s);
    append(all.tail_qps, log.tail_qps);
    append(all.reads, log.reads);
    append(all.writes_summary, log.writes_summary);
    all.queries += log.queries;
    all.writes += log.writes;
    all.query_micros.insert(all.query_micros.end(), log.query_micros.begin(),
                            log.query_micros.end());
    all.write_micros.insert(all.write_micros.end(), log.write_micros.begin(),
                            log.write_micros.end());
    all.query_end_s.insert(all.query_end_s.end(), log.query_end_s.begin(),
                           log.query_end_s.end());
    all.write_end_s.insert(all.write_end_s.end(), log.write_end_s.begin(),
                           log.write_end_s.end());
    all.traces.Merge(log.traces);
    all.traced_micros += log.traced_micros;
    all.untraced_micros += log.untraced_micros;
    all.traced += log.traced;
    all.untraced += log.untraced;
    all.select_micros += log.select_micros;
    all.reconstruct_micros += log.reconstruct_micros;
    all.touched += log.touched;
    all.untraced_touched += log.untraced_touched;
    all.untraced_pruned += log.untraced_pruned;
    all.attempted += log.attempted;
    all.failed += log.failed;
  }

  const CheckTally verify = w->Verify(opt.inject_mismatch);
  const uint64_t attempted = all.attempted + verify.checked;
  const uint64_t failed = all.failed + verify.mismatches;
  std::printf("# ops=%llu queries=%zu writes=%zu checks=%llu mismatches=%llu "
              "failed_ops=%llu\n",
              static_cast<unsigned long long>(all.attempted), all.queries,
              all.writes,
              static_cast<unsigned long long>(verify.checked),
              static_cast<unsigned long long>(verify.mismatches),
              static_cast<unsigned long long>(all.failed));

  Report report;
  const double queries = static_cast<double>(all.queries);
  if (!opt.trace) {
    SliceMedians reads, writes;
    double tail_qps = 0.0;
    double warmup = Median(warmup_s);
    if (epochs) {
      // Every completed epoch did the same work: means over the epochs.
      // Slow phases of the host last many epochs, and a mean moves with
      // their share of the window where a median would flip between them.
      reads = MeanOf(all.reads);
      writes = MeanOf(all.writes_summary);
      tail_qps = Mean(all.tail_qps);
      warmup = Mean(warmup_s);
      std::printf("# qps by epoch:");
      for (const SliceMedians& e : all.reads) std::printf(" %.0f", e.rate);
      std::printf("\n");
    } else {
      // tail_qps: the last tenth of the window, as the median rate of its
      // five sub-slices.
      std::vector<double> tail_at, tail_micros;
      for (size_t i = 0; i < all.query_end_s.size(); ++i) {
        if (all.query_end_s[i] >= 0.9 * wall_s) {
          tail_at.push_back(all.query_end_s[i] - 0.9 * wall_s);
          tail_micros.push_back(all.query_micros[i]);
        }
      }
      reads = SliceSummary(all.query_end_s, all.query_micros, wall_s,
                           SlicesFor(all.query_micros.size()));
      writes = SliceSummary(all.write_end_s, all.write_micros, wall_s,
                            SlicesFor(all.write_micros.size()));
      tail_qps = SliceSummary(tail_at, tail_micros, 0.1 * wall_s, 5).rate;
      std::printf("# qps by slice:");
      for (double r : SliceRates(all.query_end_s, wall_s, kSlices)) {
        std::printf(" %.0f", r);
      }
      std::printf("\n");
    }
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("warmup_s", warmup, "s");
    report.Set("qps", reads.rate, "1/s");
    report.Set("tail_qps", tail_qps, "1/s");
    report.Set("query_p50_us", reads.p50, "us");
    report.Set("query_p99_us", reads.p99, "us");
    report.Set("write_p50_us", writes.p50, "us");
    report.Set("write_p99_us", writes.p99, "us");
    report.Set("resident_bytes_per_row",
               Ratio(facts.column_bytes + facts.aux_bytes, facts.live_rows),
               "B");
  } else {
    const TraceAgg& tr = all.traces;
    const auto per_query = [&](std::optional<double> v) {
      return v.has_value() ? std::optional<double>(Ratio(*v, queries)) : v;
    };
    report.Set("engine.admission_us", tr.MeanMicros("admission"), "us");
    report.Set("engine.merge_us", tr.MeanMicros("merge"), "us");
    report.Set("engine.lock_wait_us", tr.MeanMicros("lock_wait"), "us");
    report.Set("engine.lock_wait_registry_us",
               per_query(RegistryDelta(before, after,
                                       "engine_lock_wait_micros_total")),
               "us");
    report.Set("engine.partitions_touched",
               Ratio(static_cast<double>(all.untraced_touched),
                     static_cast<double>(all.untraced)),
               "count");
    report.Set("engine.pruned_share",
               Ratio(static_cast<double>(all.untraced_pruned),
                     static_cast<double>(all.untraced_touched +
                                         all.untraced_pruned)),
               "ratio");
    report.Set("common.queue_wait_us", tr.MeanMicros("queue_wait"), "us");
    report.Set("common.pool_steals",
               w->pooled() ? per_query(RegistryDelta(before, after,
                                                     "pool_steals_total"))
                           : 0.0,
               "1/query");
    report.Set("core.select_us", tr.MeanMicros("select"), "us");
    report.Set("core.select_us_first", tr.SelectTenth(false), "us");
    report.Set("core.select_us_last", tr.SelectTenth(true), "us");
    report.Set("core.fetch_us", tr.MeanMicros("fetch"), "us");
    report.Set("core.reconstruct_share",
               Ratio(all.reconstruct_micros,
                     all.select_micros + all.reconstruct_micros),
               "ratio");
    report.Set("core.aux_bytes_per_row", Ratio(facts.aux_bytes, facts.live_rows),
               "B");
    report.Set("cracking.select_us",
               tr.MeanMicros("select[selection-cracking]"), "us");
    report.Set("kernels.fold_us", tr.MeanMicros("fold"), "us");
    report.Set("storage.encoded_fold_us", tr.MeanMicros("encoded_fold"), "us");
    report.Set("storage.decompress_us", tr.MeanMicros("decompress"), "us");
    const std::optional<double> encoded =
        RegistryDelta(before, after, "engine_encoded_subqueries_total");
    report.Set("storage.encoded_share",
               encoded.has_value()
                   ? std::optional<double>(
                         Ratio(*encoded, static_cast<double>(all.touched)))
                   : encoded,
               "ratio");
    report.Set("storage.compression_ratio",
               Ratio(facts.raw_column_bytes, facts.column_bytes), "x");
    report.Set("updates.log_entries", facts.log_entries, "count");
    report.Set("adaptive.tick_us", Mean(facts.tick_micros), "us");
    report.Set("adaptive.actions", facts.adaptive_actions, "count");
    report.Set("adaptive.partitions_final", facts.partitions_final, "count");
    const double overhead =
        Ratio(Ratio(all.untraced_micros, static_cast<double>(all.untraced)),
              Ratio(all.traced_micros, static_cast<double>(all.traced)));
    const double coverage = tr.Coverage();
    report.Set("obs.trace_overhead", overhead, "ratio");
    report.Set("obs.span_coverage", coverage, "ratio");
    report.Set("obs.coverage_below_bar", coverage < kCoverageBar ? 1.0 : 0.0,
               "flag");
    if (coverage < kCoverageBar) {
      std::printf("# FLAG span coverage %.3f < %.2f on %s: spans leave part "
                  "of the query wall time unattributed\n",
                  coverage, kCoverageBar, opt.workload.c_str());
    }
    RunKernelProbe(w->partition_rows(), opt.seed, &report);
    RunCodecProbe(w->partition_rows(), opt.seed, &report);
  }

  const bool correct = failed == 0;
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace crackbench

int main(int argc, char** argv) { return crackbench::Main(argc, argv); }
