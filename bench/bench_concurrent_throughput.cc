// Concurrent query serving through the partitioned Database facade:
// M client threads issue mixed point/range/update traffic against a
// sharded self-organizing engine, and the bench reports queries/sec as the
// client count grows. This is the ROADMAP's "serve heavy traffic" axis:
// cracking engines mutate state on reads, so scaling comes from the
// per-partition locking discipline (exclusive crack, merge outside the
// lock), not from read-only snapshots.
//
//   ./bench_concurrent_throughput                        # sweep 1,2,4,8
//   ./bench_concurrent_throughput --threads=1,16 --engine=partial
//   ./bench_concurrent_throughput --smoke                # CI fast path
//
// With --pool=0 (default) each client executes its partitions inline —
// the throughput-serving configuration. --pool=N adds a shared fan-out
// pool, which trades aggregate throughput for single-query latency.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "bench_util/workload.h"
#include "common/stats.h"
#include "common/timer.h"
#include "engine/database.h"
#include "engine/plain_engine.h"
#include "obs/metrics.h"
#include "storage/catalog.h"

namespace crackdb::bench {
namespace {

constexpr Value kDomain = 10'000'000;

struct ThroughputOptions {
  std::vector<size_t> threads;  // empty = default sweep
  size_t partitions = 16;
  size_t pool = 0;
  std::string engine = "sideways";
  size_t update_pct = 10;
  size_t point_pct = 10;
  /// Range queries follow a shifting hotspot (DriftingHotspotGen) instead
  /// of uniform ranges — the adaptive-repartitioning stress shape.
  bool drift = false;
  /// Dump the full Prometheus-style metrics text after the sweep.
  bool metrics = false;
};

PartitionSpec MakeSpec(const ThroughputOptions& opt) {
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = opt.partitions;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = kDomain;
  return spec;
}

/// One client's workload: `ops` operations of mixed traffic, returning the
/// number of queries it issued, per-op latencies, and a checksum keeping
/// the work observable.
struct ClientResult {
  size_t queries = 0;
  size_t updates = 0;
  uint64_t checksum = 0;
  std::vector<double> latencies_micros;  // one sample per op
};

ClientResult RunClient(Database* db, size_t rows, uint64_t seed, size_t ops,
                       const ThroughputOptions& opt) {
  ClientResult result;
  Rng rng(seed);
  std::vector<Key> own_keys;
  const double update_p = static_cast<double>(opt.update_pct) / 100.0;
  const double point_p = static_cast<double>(opt.point_pct) / 100.0;
  // ~1% selectivity on the head attribute: selective enough that a
  // converged range-sharded cracker usually locks a single partition.
  const double selectivity =
      std::min(0.01, 2'000.0 / static_cast<double>(rows));

  DriftingHotspotGen drift;
  drift.domain_lo = 1;
  drift.domain_hi = kDomain;
  drift.selectivity = selectivity;
  // The phase clock advances only on range queries, so size four phases
  // from the expected range-query count, not from all ops.
  const size_t expected_range_ops =
      ops * (100 - std::min<size_t>(100, opt.update_pct + opt.point_pct)) /
      100;
  drift.queries_per_phase = std::max<size_t>(1, expected_range_ops / 4);

  result.latencies_micros.reserve(ops);
  for (size_t op = 0; op < ops; ++op) {
    const double dice = rng.NextDouble();
    if (dice < update_p) {
      ++result.updates;
      // Time only the Database call: row generation and key bookkeeping
      // are workload-harness work, not serving latency.
      if (own_keys.size() >= 4 && rng.Bernoulli(0.5)) {
        const size_t pick = static_cast<size_t>(
            rng.Uniform(0, static_cast<Value>(own_keys.size()) - 1));
        Timer op_timer;
        db->Delete("R", own_keys[pick]);
        result.latencies_micros.push_back(op_timer.ElapsedMicros());
        own_keys.erase(own_keys.begin() + static_cast<long>(pick));
      } else {
        std::vector<Value> row(7);
        for (Value& v : row) v = rng.Uniform(1, kDomain);
        Timer op_timer;
        const Key key = db->Insert("R", row);
        result.latencies_micros.push_back(op_timer.ElapsedMicros());
        own_keys.push_back(key);
      }
      continue;
    }
    QuerySpec spec =
        dice < update_p + point_p
            ? SelectProject({{AttrName(1), RangePredicate::Point(
                                               rng.Uniform(1, kDomain))}},
                            {AttrName(7)})
            : SelectProject(
                  {{AttrName(1),
                    opt.drift ? drift.Next(&rng)
                              : RandomRange(&rng, 1, kDomain, selectivity)},
                   {AttrName(2 + static_cast<size_t>(rng.Uniform(0, 4))),
                    RandomRange(&rng, 1, kDomain, 0.5)}},
                  {AttrName(7)});
    Timer op_timer;
    const size_t matched = db->Execute({"R", std::move(spec)})->count;
    result.latencies_micros.push_back(op_timer.ElapsedMicros());
    result.checksum += matched;
    ++result.queries;
  }
  return result;
}

/// Answers must match a plain scan before any timing is trusted; also
/// exercises the pooled fan-out path regardless of --pool.
bool VerifyAgainstPlain(const Relation& source,
                        const ThroughputOptions& opt) {
  DatabaseOptions db_opt;
  db_opt.pool_threads = 2;
  Database db(db_opt);
  db.RegisterSharded("R", source, MakeSpec(opt), opt.engine);
  PlainEngine plain(source);
  Rng rng(4711);
  for (int q = 0; q < 10; ++q) {
    const QuerySpec spec =
        SelectProject({{AttrName(1), RandomRange(&rng, 1, kDomain, 0.02)},
                       {AttrName(3), RandomRange(&rng, 1, kDomain, 0.5)}},
                      {AttrName(6), AttrName(7)});
    if (ZipRows(db.Execute({"R", spec})->rows) != ZipRows(plain.Run(spec))) {
      return false;
    }
  }
  return true;
}

void Run(const BenchArgs& args, const ThroughputOptions& opt) {
  const size_t rows = args.rows != 0 ? args.rows
                      : args.paper_scale ? 10'000'000
                                         : 200'000;
  const size_t ops_per_client = args.queries != 0 ? args.queries
                                : args.paper_scale ? 10'000
                                                   : 2'000;
  std::vector<size_t> sweep = opt.threads;
  if (sweep.empty()) {
    sweep = args.smoke ? std::vector<size_t>{1, 2}
                       : std::vector<size_t>{1, 2, 4, 8};
  }
  ThroughputOptions effective = opt;
  if (args.smoke && effective.partitions > 4) effective.partitions = 4;
  if (!MakeEngineFactory(effective.engine)) {
    std::fprintf(stderr, "unknown engine kind '%s'; valid kinds:",
                 effective.engine.c_str());
    for (const EngineKindEntry& entry : kEngineKinds) {
      std::fprintf(stderr, " %s", entry.name);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  Catalog catalog;
  Rng data_rng(args.seed);
  Relation& source = CreateUniformRelation(&catalog, "R", 7, rows, kDomain,
                                           &data_rng);
  std::printf(
      "# concurrent throughput: engine=%s rows=%zu ops/client=%zu "
      "partitions=%zu pool=%zu update%%=%zu point%%=%zu drift=%s\n",
      effective.engine.c_str(), rows, ops_per_client, effective.partitions,
      effective.pool, effective.update_pct, effective.point_pct,
      effective.drift ? "on" : "off");

  if (!VerifyAgainstPlain(source, effective)) {
    std::fprintf(stderr, "FAILED: sharded answers diverge from plain scan\n");
    std::exit(1);
  }
  std::printf("# verification vs plain scan: ok\n");

  FigureHeader("ct", "queries/sec vs client threads", "client_threads",
               "queries_per_sec");
  SeriesHeader("sharded-" + effective.engine);
  TablePrinter table({"threads", "queries", "updates", "elapsed_s",
                      "queries/sec", "speedup", "p50_us", "p95_us",
                      "p99_us"});
  double qps_at_1 = 0;
  for (const size_t clients : sweep) {
    // A fresh facade per point: every sweep entry starts from uncracked
    // state, so points differ only in concurrency.
    DatabaseOptions db_opt;
    db_opt.pool_threads = effective.pool;
    Database db(db_opt);
    db.RegisterSharded("R", source, MakeSpec(effective), effective.engine);

    std::atomic<bool> start{false};
    std::vector<ClientResult> results(clients);
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        while (!start.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        results[c] = RunClient(&db, rows, args.seed + 100 + c, ops_per_client,
                               effective);
      });
    }
    Timer timer;
    start.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
    const double elapsed = timer.ElapsedSeconds();

    size_t queries = 0, updates = 0;
    uint64_t checksum = 0;
    std::vector<double> latencies;
    for (ClientResult& r : results) {
      queries += r.queries;
      updates += r.updates;
      checksum += r.checksum;
      latencies.insert(latencies.end(), r.latencies_micros.begin(),
                       r.latencies_micros.end());
    }
    const SeriesSummary lat = Summarize(std::move(latencies));
    const double qps = static_cast<double>(queries) / elapsed;
    if (qps_at_1 == 0) qps_at_1 = qps;
    Point(static_cast<double>(clients), qps);
    table.AddRow({std::to_string(clients), std::to_string(queries),
                  std::to_string(updates), Fmt(elapsed, 3), Fmt(qps, 0),
                  qps_at_1 > 0 ? Fmt(qps / qps_at_1, 2) : "-",
                  Fmt(lat.median, 1), Fmt(lat.p95, 1), Fmt(lat.p99, 1)});
    const TableStats stats = db.Stats("R");
    std::printf("# clients=%zu checksum=%llu stats: rows=%zu live=%zu\n",
                clients, static_cast<unsigned long long>(checksum),
                stats.rows, stats.live_rows);
  }
  table.Print();
  if (effective.metrics) {
    std::printf("# metrics text exposition\n%s",
                obs::RenderMetricsText().c_str());
  }
}

}  // namespace
}  // namespace crackdb::bench

int main(int argc, char** argv) {
  using crackdb::bench::BenchArgs;
  using crackdb::bench::BenchFlag;
  crackdb::bench::ThroughputOptions opt;
  const BenchFlag extra[] = {
      {"--threads=LIST", "comma list of client-thread counts (default 1,2,4,8)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--threads=", 10) != 0) return false;
         opt.threads = crackdb::bench::ParseSizeList("--threads", a + 10);
         return true;
       }},
      {"--partitions=N", "partition count for the sharded table (default 16)",
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
      {"--pool=N",
       "shared fan-out pool workers; 0 = inline per-client execution",
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
      {"--engine=KIND", "per-partition engine kind (default sideways)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--engine=", 9) != 0) return false;
         opt.engine = a + 9;
         return true;
       }},
      {"--update-pct=P", "percent of ops that are inserts/deletes (default 10)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--update-pct=", 13) != 0) return false;
         opt.update_pct = static_cast<size_t>(std::atoll(a + 13));
         return true;
       }},
      {"--point-pct=P", "percent of ops that are point queries (default 10)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--point-pct=", 12) != 0) return false;
         opt.point_pct = static_cast<size_t>(std::atoll(a + 12));
         return true;
       }},
      {"--drift", "range queries follow a shifting hotspot (default uniform)",
       [&opt](const char* a) {
         if (std::strcmp(a, "--drift") != 0) return false;
         opt.drift = true;
         return true;
       }},
      {"--metrics", "dump Prometheus-style metrics text after the sweep",
       [&opt](const char* a) {
         if (std::strcmp(a, "--metrics") != 0) return false;
         opt.metrics = true;
         return true;
       }},
  };
  const BenchArgs args = BenchArgs::Parse(argc, argv, extra);
  crackdb::bench::Run(args, opt);
  return 0;
}
