// The cost of being observable: a count/sum pushdown workload (a Count and
// a Sum over 5%-selective ranges on the organizing attribute of a
// range-sharded table) runs three ways — metrics registry disabled (the
// pre-observability baseline arm), metrics enabled (the shipping
// default), and metrics + per-query span tracing — plus a fourth arm
// that queries the `system.*` introspection tables themselves. The bench
// *asserts* the overhead contract from docs/OBSERVABILITY.md: with
// tracing off, the always-on registry must cost within 3% of the
// disabled baseline, judged on the median of paired per-rep ratios
// (the gate relaxes under --smoke, where the timed windows are
// microseconds and noise-dominated).
//
//   ./bench_observability                    # full gate: on/off >= 0.97
//   ./bench_observability --smoke            # CI fast path, relaxed gate
//
// Emits one machine-readable `BENCH_observability {...}` JSON line with
// the per-arm throughputs and ratios.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "bench_util/workload.h"
#include "common/timer.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/catalog.h"

namespace crackdb::bench {
namespace {

constexpr Value kDomain = 10'000'000;
constexpr size_t kPartitions = 8;
constexpr size_t kSelPct = 5;

PartitionSpec MakeSpec() {
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = kPartitions;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = kDomain;
  return spec;
}

enum class Arm { kMetricsOff, kMetricsOn, kTraced };

const char* ArmName(Arm arm) {
  switch (arm) {
    case Arm::kMetricsOff:
      return "metrics-off";
    case Arm::kMetricsOn:
      return "metrics-on";
    case Arm::kTraced:
      return "traced";
  }
  return "?";
}

struct ArmResult {
  double qps = 0;
  uint64_t total_count = 0;
  long long total_sum = 0;
};

/// One timed pass of the count/sum workload against `db` with the arm's
/// switches applied: the process-wide metrics flag toggled around the
/// pass, Trace() per query in the traced arm. Returns the pass qps and
/// folds the answers into `result` for the cross-arm checksum.
double RunPass(Database* db, Arm arm,
               const std::vector<RangePredicate>& preds, ArmResult* result) {
  // Each timed pass walks the predicate list several times: a pass must
  // be long relative to a scheduler tick, or a single preemption landing
  // inside one arm's window decides the whole comparison.
  constexpr size_t kPassLoops = 3;
  obs::SetMetricsEnabled(arm != Arm::kMetricsOff);
  const bool traced = arm == Arm::kTraced;
  result->total_count = 0;
  result->total_sum = 0;
  Timer timer;
  for (size_t loop = 0; loop < kPassLoops; ++loop) {
    for (const RangePredicate& pred : preds) {
      auto count = db->From("R").Where(AttrName(1), pred).Count();
      if (traced) count.Trace();
      auto c = count.Execute();
      auto sum = db->From("R")
                     .Where(AttrName(1), pred)
                     .Aggregate(AggregateOp::kSum, AttrName(2));
      if (traced) sum.Trace();
      auto s = sum.Execute();
      if (!c.ok() || !s.ok()) {
        std::fprintf(stderr, "FAILED: %s\n",
                     (!c.ok() ? c : s).error().c_str());
        std::exit(1);
      }
      if (loop == 0) {
        result->total_count += c->count;
        if (s->aggregate_valid) result->total_sum += s->aggregate;
      }
      if (traced && (c->trace == nullptr || c->trace->Spans().size() < 3)) {
        std::fprintf(stderr, "FAILED: traced query returned no span tree\n");
        std::exit(1);
      }
    }
  }
  const double elapsed = timer.ElapsedSeconds();
  obs::SetMetricsEnabled(true);
  return static_cast<double>(2 * kPassLoops * preds.size()) / elapsed;
}

/// All three arms measured over one warmed database apiece, with the
/// timed passes *interleaved* round-robin (off, on, traced, off, on, ...).
/// Sequential per-arm measurement is the naive design — on a busy CI box,
/// background-load drift between arm A's window and arm B's window
/// dwarfs the nanoseconds being measured. Each rep yields one *paired*
/// on/off (and traced/off) ratio from adjacent passes that shared the
/// same noise environment; the gate uses the median of those ratios, so
/// a scheduler stall landing on any single pass is discarded rather
/// than deciding the verdict. Per-arm best-of qps is kept for the table.
void RunArms(const Relation& source, const std::vector<RangePredicate>& preds,
             size_t reps, ArmResult arms[3], double* on_ratio,
             double* traced_ratio) {
  constexpr Arm kArms[3] = {Arm::kMetricsOff, Arm::kMetricsOn, Arm::kTraced};
  std::vector<std::unique_ptr<Database>> dbs;
  for (int a = 0; a < 3; ++a) {
    DatabaseOptions db_opt;
    db_opt.pool_threads = 0;
    dbs.push_back(std::make_unique<Database>(db_opt));
    dbs.back()->RegisterSharded("R", source, MakeSpec(), "sideways");
  }
  // The untimed warm round lets the crackers converge on the arm's own
  // predicates; RunInterleaved rotates the arm order across reps.
  const std::vector<std::vector<double>> qps =
      RunInterleaved(3, 1, reps, [&](size_t a) {
        return RunPass(dbs[a].get(), kArms[a], preds, &arms[a]);
      });
  for (const std::vector<double>& rep : qps) {
    for (int a = 0; a < 3; ++a) arms[a].qps = std::max(arms[a].qps, rep[a]);
  }
  *on_ratio = MedianRatio(qps, 1, 0);
  *traced_ratio = MedianRatio(qps, 2, 0);
}

/// Cost of introspection itself: point and filtered counts against
/// `system.metrics` and `system.query_log` through the normal fluent
/// path. Each query snapshots the registry/ring into a transient
/// relation, so this measures the full serve-a-system-table path.
double RunSystemArm(Database* db, size_t queries) {
  // Populate the query log with a little traffic first.
  for (int q = 0; q < 8; ++q) {
    (void)db->From("R").Where(AttrName(1), 1, kDomain / 10).Count().Execute();
  }
  double best_qps = 0;
  for (int pass = 0; pass < 2; ++pass) {
    Timer timer;
    for (size_t q = 0; q < queries; ++q) {
      auto metrics = db->From("system.metrics")
                         .Where("value", 1, kDomain * 1'000'000)
                         .Count()
                         .Execute();
      auto log = db->From("system.query_log").Count().Execute();
      if (!metrics.ok() || !log.ok()) {
        std::fprintf(stderr, "FAILED: %s\n",
                     (!metrics.ok() ? metrics : log).error().c_str());
        std::exit(1);
      }
      if (log->count == 0) {
        std::fprintf(stderr, "FAILED: system.query_log answered empty\n");
        std::exit(1);
      }
    }
    const double qps =
        static_cast<double>(2 * queries) / timer.ElapsedSeconds();
    if (best_qps < qps) best_qps = qps;
  }
  return best_qps;
}

void Run(const BenchArgs& args) {
  const size_t rows = args.rows != 0 ? args.rows
                      : args.paper_scale ? 10'000'000
                                         : 200'000;
  const size_t queries = args.queries != 0 ? args.queries
                         : args.paper_scale ? 1'000
                                            : 300;
  // Enough rotated rounds (at least 5) that the median paired ratio is
  // stable, each pass long enough to sit well above timer noise even at
  // smoke sizes.
  const size_t reps = args.smoke ? 16 : 11;
  const double gate = args.smoke ? 0.70 : 0.97;

  Catalog catalog;
  Rng data_rng(args.seed);
  Relation& source =
      CreateUniformRelation(&catalog, "R", 7, rows, kDomain, &data_rng);
  std::printf(
      "# observability: rows=%zu queries=%zu partitions=%zu sel%%=%zu "
      "reps=%zu gate=%.2f\n",
      rows, queries, kPartitions, kSelPct, reps, gate);

  Rng pred_rng(args.seed + kSelPct);
  std::vector<RangePredicate> preds;
  preds.reserve(queries);
  for (size_t i = 0; i < queries; ++i) {
    preds.push_back(RandomRange(&pred_rng, 1, kDomain,
                                static_cast<double>(kSelPct) / 100.0));
  }

  ArmResult arms[3];
  double on_ratio = 0.0;
  double traced_ratio = 0.0;
  // One measurement, decided on the median of the paired per-round
  // ratios. The arm order rotates across the `reps` rounds, and a slow
  // host phase or a stall inside one round shifts only that round's
  // ratio, which the median discards.
  RunArms(source, preds, reps, arms, &on_ratio, &traced_ratio);
  // Identical predicates on identical data: divergence voids timing.
  if (arms[1].total_count != arms[0].total_count ||
      arms[1].total_sum != arms[0].total_sum ||
      arms[2].total_count != arms[0].total_count ||
      arms[2].total_sum != arms[0].total_sum) {
    std::fprintf(stderr, "FAILED: arm checksums diverged\n");
    std::exit(1);
  }
  const ArmResult& off = arms[0];
  const ArmResult& on = arms[1];
  const ArmResult& traced = arms[2];

  DatabaseOptions db_opt;
  db_opt.pool_threads = 0;
  Database system_db(db_opt);
  system_db.RegisterSharded("R", source, MakeSpec(), "sideways");
  const double system_qps =
      RunSystemArm(&system_db, std::max<size_t>(queries / 4, 8));

  TablePrinter table({"arm", "qps", "vs-off"});
  table.AddRow({ArmName(Arm::kMetricsOff), Fmt(off.qps, 0), "1.00"});
  table.AddRow({ArmName(Arm::kMetricsOn), Fmt(on.qps, 0), Fmt(on_ratio, 3)});
  table.AddRow({ArmName(Arm::kTraced), Fmt(traced.qps, 0),
                Fmt(traced_ratio, 3)});
  table.AddRow({"system.*", Fmt(system_qps, 0), "-"});
  table.Print();

  std::printf(
      "BENCH_observability {\"rows\":%zu,\"queries\":%zu,\"sel_pct\":%zu,"
      "\"metrics_off_qps\":%.1f,\"metrics_on_qps\":%.1f,"
      "\"metrics_on_ratio\":%.4f,\"traced_qps\":%.1f,"
      "\"traced_ratio\":%.4f,\"system_qps\":%.1f,\"gate\":%.2f,"
      "\"verified\":true}\n",
      rows, queries, kSelPct, off.qps, on.qps, on_ratio, traced.qps,
      traced_ratio, system_qps, gate);

  // The overhead contract: the always-on registry must be within the
  // gate of the disabled baseline. Tracing is opt-in and exempt.
  if (on_ratio < gate) {
    std::fprintf(stderr,
                 "FAILED: metrics-on throughput %.1f is %.1f%% of the "
                 "metrics-off baseline %.1f (gate %.0f%%)\n",
                 on.qps, 100.0 * on_ratio, off.qps, 100.0 * gate);
    std::exit(1);
  }
  std::printf("# overhead gate: ok (%.3f >= %.2f)\n", on_ratio, gate);
}

}  // namespace
}  // namespace crackdb::bench

int main(int argc, char** argv) {
  const crackdb::bench::BenchArgs args =
      crackdb::bench::BenchArgs::Parse(argc, argv);
  crackdb::bench::Run(args);
  return 0;
}
