// Adaptive repartitioning vs the static load-time partition map, on the
// two workloads a static map handles worst:
//
//  - drift: a hot window covering 10% of the domain receives 95% of the
//    queries and slides across the domain phase by phase, so whatever the
//    loader partitioned for is wrong a few thousand queries later;
//  - zoom: an analyst session that keeps narrowing the queried window
//    around one focus point, so ever more traffic lands in one slice.
//
// Both arms serve the *same* query sequence (same seed) over the same
// data; the adaptive arm additionally ticks Database::MaybeRepartition
// every --tick queries, letting the workload histogram hot-split the
// partitions under the window and cold-merge the ones it left behind.
// Reported: steady-state queries/sec per arm (first --warmup-pct% of
// queries excluded, so the static arm's crackers are converged too), the
// speedup, and the executed split/merge counts. Before any timing, a
// verification pass compares adaptive answers — across live splits and
// merges — against a plain full scan.
//
//   ./bench_adaptive_repartition                    # drift + zoom, plain
//   ./bench_adaptive_repartition --workload=drift --engine=sideways
//   ./bench_adaptive_repartition --smoke            # CI fast path
//
// Machine-readable summary: one `BENCH_adaptive {...}` JSON line per
// workload, for the perf trajectory.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "bench_util/workload.h"
#include "common/timer.h"
#include "engine/database.h"
#include "engine/plain_engine.h"
#include "storage/catalog.h"

namespace crackdb::bench {
namespace {

constexpr Value kDomain = 10'000'000;

struct AdaptiveBenchOptions {
  std::vector<std::string> workloads;  // empty = drift + zoom
  std::string engine = "plain";
  size_t partitions = 8;
  size_t pool = 0;
  size_t tick = 256;        // queries between MaybeRepartition ticks
  size_t warmup_pct = 25;   // % of queries excluded from steady-state
};

PartitionSpec MakeSpec(const AdaptiveBenchOptions& opt) {
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = opt.partitions;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = kDomain;
  return spec;
}

AdaptiveConfig MakeAdaptiveConfig(size_t rows, bool smoke) {
  AdaptiveConfig cfg;
  cfg.enabled = true;
  cfg.min_accesses = smoke ? 16 : 64;
  // Split deep (a hot region ends up as ~5 slices), merge only the truly
  // abandoned: the asymmetry buys pruning resolution under the hotspot
  // without ballooning the cold partitions that rare off-window queries
  // still have to scan.
  cfg.hot_share = 0.22;
  cfg.cold_share = 0.04;
  cfg.min_partition_rows = std::max<size_t>(smoke ? 64 : 512, rows / 128);
  cfg.max_partitions = 32;
  cfg.min_partitions = 2;
  cfg.cooldown_ticks = 1;
  cfg.decay = 0.5;
  return cfg;
}

/// One query of the given workload. Wraps the generator range in the
/// experiments' usual shape: selection on the organizing head attribute,
/// one reconstruction projection.
QuerySpec MakeQuery(const RangePredicate& head) {
  return SelectProject({{AttrName(1), head}}, {AttrName(7)});
}

/// A generator of either workload kind behind one call signature.
class WorkloadGen {
 public:
  WorkloadGen(const std::string& kind, size_t total_queries) : kind_(kind) {
    drift_.domain_lo = 1;
    drift_.domain_hi = kDomain;
    // Four full phases over the run, whatever its length.
    drift_.queries_per_phase = std::max<size_t>(1, total_queries / 4);
    zoom_.domain_lo = 1;
    zoom_.domain_hi = kDomain;
    zoom_.max_levels = 6;
    zoom_.queries_per_level = std::max<size_t>(1, total_queries / 7);
  }

  RangePredicate Next(Rng* rng) {
    return kind_ == "zoom" ? zoom_.Next(rng) : drift_.Next(rng);
  }

 private:
  std::string kind_;
  DriftingHotspotGen drift_;
  ZoomInGen zoom_;
};

struct ArmResult {
  size_t queries = 0;
  double steady_elapsed_s = 0;
  double steady_qps = 0;
  uint64_t checksum = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  size_t partitions_final = 0;
};

ArmResult RunArm(const Relation& source, const AdaptiveBenchOptions& opt,
                 const BenchArgs& args, const std::string& workload,
                 size_t total_queries, bool adaptive) {
  DatabaseOptions db_opt;
  db_opt.pool_threads = opt.pool;
  Database db(db_opt);
  db.RegisterSharded("R", source, MakeSpec(opt), opt.engine,
                     adaptive ? MakeAdaptiveConfig(source.num_rows(),
                                                   args.smoke)
                              : AdaptiveConfig{});

  WorkloadGen gen(workload, total_queries);
  Rng rng(args.seed + 77);
  const size_t warmup =
      total_queries * std::min<size_t>(90, opt.warmup_pct) / 100;
  ArmResult result;
  Timer steady_timer;
  for (size_t q = 0; q < total_queries; ++q) {
    if (q == warmup) steady_timer.Restart();
    result.checksum += db.Execute({"R", MakeQuery(gen.Next(&rng))})->count;
    // The tick runs inside the measured window on purpose: repartition
    // cost is part of adaptive steady state, not free.
    if (adaptive && opt.tick > 0 && (q + 1) % opt.tick == 0) {
      db.MaybeRepartition("R");
    }
  }
  result.steady_elapsed_s = steady_timer.ElapsedSeconds();
  result.queries = total_queries - warmup;
  result.steady_qps =
      static_cast<double>(result.queries) / result.steady_elapsed_s;
  const TableStats stats = db.Stats("R");
  result.splits = stats.splits;
  result.merges = stats.merges;
  result.partitions_final = stats.partitions;
  return result;
}

/// Answers must stay identical to a plain scan *while* splits and merges
/// execute; run with an aggressive tick so the map reorganizes mid-pass.
bool VerifyAcrossRepartitions(const Relation& source,
                              const AdaptiveBenchOptions& opt,
                              const BenchArgs& args) {
  DatabaseOptions db_opt;
  db_opt.pool_threads = 2;  // exercise the pooled fan-out path too
  Database db(db_opt);
  AdaptiveConfig cfg = MakeAdaptiveConfig(source.num_rows(), args.smoke);
  cfg.min_accesses = 8;
  cfg.cooldown_ticks = 0;
  db.RegisterSharded("R", source, MakeSpec(opt), opt.engine, cfg);
  PlainEngine plain(source);

  WorkloadGen gen("drift", 200);
  Rng rng(args.seed + 13);
  size_t actions = 0;
  const size_t checks = args.smoke ? 60 : 200;
  for (size_t q = 0; q < checks; ++q) {
    const QuerySpec spec = MakeQuery(gen.Next(&rng));
    if (ZipRows(db.Execute({"R", spec})->rows) != ZipRows(plain.Run(spec))) {
      return false;
    }
    if ((q + 1) % 10 == 0 && db.MaybeRepartition("R")) ++actions;
  }
  const TableStats stats = db.Stats("R");
  std::printf(
      "# verification vs plain scan: ok (%zu queries, %zu repartitions "
      "mid-stream, %zu partitions now)\n",
      checks, actions, stats.partitions);
  return true;
}

void PrintSkewTable(Database* db) {
  // The per-partition observability surface (Database::Stats) at work:
  // where the rows and the accesses ended up.
  const TableStats stats = db->Stats("R");
  TablePrinter table({"partition", "cover_lo", "cover_hi", "live_rows",
                      "accesses"});
  for (size_t i = 0; i < stats.per_partition.size(); ++i) {
    const PartitionStats& ps = stats.per_partition[i];
    table.AddRow({std::to_string(i), std::to_string(ps.cover_lo),
                  std::to_string(ps.cover_hi), std::to_string(ps.live_rows),
                  std::to_string(ps.accesses)});
  }
  table.Print();
}

void Run(const BenchArgs& args, const AdaptiveBenchOptions& opt) {
  const size_t rows = args.rows != 0 ? args.rows
                      : args.paper_scale ? 2'000'000
                                         : 200'000;
  // --queries is per workload; smoke substitutes kSmokeQueries (too few
  // for any split to fire), so raise the smoke floor to a size that
  // exercises the split/merge paths while staying sub-second. An explicit
  // --queries still wins (kSmokeQueries itself is indistinguishable).
  size_t total_queries = args.queries != 0 ? args.queries
                         : args.paper_scale ? 40'000
                                            : 12'000;
  if (args.smoke && total_queries == kSmokeQueries) total_queries = 400;
  AdaptiveBenchOptions effective = opt;
  if (args.smoke) {
    effective.partitions = std::min<size_t>(effective.partitions, 4);
    effective.tick = std::min<size_t>(effective.tick, 20);
  }
  if (!MakeEngineFactory(effective.engine)) {
    std::fprintf(stderr, "unknown engine kind '%s'; valid kinds:",
                 effective.engine.c_str());
    for (const EngineKindEntry& entry : kEngineKinds) {
      std::fprintf(stderr, " %s", entry.name);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  std::vector<std::string> workloads = effective.workloads;
  if (workloads.empty()) workloads = {"drift", "zoom"};

  Catalog catalog;
  Rng data_rng(args.seed);
  Relation& source =
      CreateUniformRelation(&catalog, "R", 7, rows, kDomain, &data_rng);
  std::printf(
      "# adaptive repartition: engine=%s rows=%zu queries/workload=%zu "
      "partitions=%zu tick=%zu pool=%zu\n",
      effective.engine.c_str(), rows, total_queries, effective.partitions,
      effective.tick, effective.pool);

  if (!VerifyAcrossRepartitions(source, effective, args)) {
    std::fprintf(stderr,
                 "FAILED: adaptive answers diverge from plain scan\n");
    std::exit(1);
  }

  FigureHeader("adaptive", "steady-state queries/sec, static vs adaptive",
               "workload", "queries_per_sec");
  TablePrinter table({"workload", "arm", "steady_qps", "speedup", "splits",
                      "merges", "partitions"});
  for (const std::string& workload : workloads) {
    const ArmResult is_static = RunArm(source, effective, args, workload,
                                       total_queries, /*adaptive=*/false);
    const ArmResult adaptive = RunArm(source, effective, args, workload,
                                      total_queries, /*adaptive=*/true);
    if (is_static.checksum != adaptive.checksum) {
      std::fprintf(stderr,
                   "FAILED: %s checksum diverged between arms "
                   "(static=%llu adaptive=%llu)\n",
                   workload.c_str(),
                   static_cast<unsigned long long>(is_static.checksum),
                   static_cast<unsigned long long>(adaptive.checksum));
      std::exit(1);
    }
    const double speedup = adaptive.steady_qps / is_static.steady_qps;
    SeriesHeader(workload);
    Point(0, is_static.steady_qps);
    Point(1, adaptive.steady_qps);
    table.AddRow({workload, "static", Fmt(is_static.steady_qps, 0), "1.00",
                  "0", "0", std::to_string(is_static.partitions_final)});
    table.AddRow({workload, "adaptive", Fmt(adaptive.steady_qps, 0),
                  Fmt(speedup, 2), std::to_string(adaptive.splits),
                  std::to_string(adaptive.merges),
                  std::to_string(adaptive.partitions_final)});
    std::printf(
        "BENCH_adaptive {\"workload\":\"%s\",\"engine\":\"%s\",\"rows\":%zu,"
        "\"queries\":%zu,\"static_qps\":%.1f,\"adaptive_qps\":%.1f,"
        "\"speedup\":%.3f,\"splits\":%llu,\"merges\":%llu,"
        "\"partitions_final\":%zu,\"verified\":true}\n",
        workload.c_str(), effective.engine.c_str(), rows, total_queries,
        is_static.steady_qps, adaptive.steady_qps, speedup,
        static_cast<unsigned long long>(adaptive.splits),
        static_cast<unsigned long long>(adaptive.merges),
        adaptive.partitions_final);
  }
  table.Print();

  // Show the observability surface once, on a fresh adaptive run of the
  // first workload (per-partition tuple counts and access counters).
  {
    DatabaseOptions db_opt;
    db_opt.pool_threads = effective.pool;
    Database db(db_opt);
    db.RegisterSharded("R", source, MakeSpec(effective), effective.engine,
                       MakeAdaptiveConfig(rows, args.smoke));
    WorkloadGen gen(workloads.front(), total_queries / 4);
    Rng rng(args.seed + 77);
    for (size_t q = 0; q < total_queries / 4; ++q) {
      (void)db.Execute({"R", MakeQuery(gen.Next(&rng))});
      if ((q + 1) % effective.tick == 0) db.MaybeRepartition("R");
    }
    // A tail of tick-free queries: an executed tick resets the histogram,
    // so without these the access column could print all zeros.
    for (size_t q = 0; q < 64; ++q) {
      (void)db.Execute({"R", MakeQuery(gen.Next(&rng))});
    }
    std::printf("# per-partition skew after %zu %s queries:\n",
                total_queries / 4 + 64, workloads.front().c_str());
    PrintSkewTable(&db);
  }
}

}  // namespace
}  // namespace crackdb::bench

int main(int argc, char** argv) {
  using crackdb::bench::BenchArgs;
  using crackdb::bench::BenchFlag;
  crackdb::bench::AdaptiveBenchOptions opt;
  const BenchFlag extra[] = {
      {"--workload=KIND", "drift, zoom, or both (default both)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--workload=", 11) != 0) return false;
         const std::string kind = a + 11;
         if (kind == "both") {
           opt.workloads = {"drift", "zoom"};
         } else if (kind == "drift" || kind == "zoom") {
           opt.workloads = {kind};
         } else {
           std::fprintf(stderr, "--workload wants drift|zoom|both, got '%s'\n",
                        kind.c_str());
           std::exit(2);
         }
         return true;
       }},
      {"--engine=KIND", "per-partition engine kind (default plain)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--engine=", 9) != 0) return false;
         opt.engine = a + 9;
         return true;
       }},
      {"--partitions=N", "initial partition count (default 8)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--partitions=", 13) != 0) return false;
         const long long n = std::atoll(a + 13);
         if (n < 1 || n > 4'096) {
           std::fprintf(stderr, "--partitions wants 1..4096, got '%s'\n",
                        a + 13);
           std::exit(2);
         }
         opt.partitions = static_cast<size_t>(n);
         return true;
       }},
      {"--pool=N", "fan-out pool workers; 0 = inline (default 0)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--pool=", 7) != 0) return false;
         const long long n = std::atoll(a + 7);
         if (n < 0 || n > 1'024) {
           std::fprintf(stderr, "--pool wants 0..1024, got '%s'\n", a + 7);
           std::exit(2);
         }
         opt.pool = static_cast<size_t>(n);
         return true;
       }},
      {"--tick=N", "queries between MaybeRepartition ticks (default 256)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--tick=", 7) != 0) return false;
         opt.tick = static_cast<size_t>(std::atoll(a + 7));
         return true;
       }},
      {"--warmup-pct=P",
       "percent of queries excluded from steady state (default 25)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--warmup-pct=", 13) != 0) return false;
         opt.warmup_pct = static_cast<size_t>(std::atoll(a + 13));
         return true;
       }},
  };
  const BenchArgs args = BenchArgs::Parse(argc, argv, extra);
  crackdb::bench::Run(args, opt);
  return 0;
}
