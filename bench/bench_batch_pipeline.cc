// The batch/async execution pipeline vs the per-op loop: clients push the
// same traffic through Database::Execute / Insert / Delete one op at a
// time and through ExecuteBatch / ApplyBatch in batches of B, and the bench
// reports aggregate ops/sec per batch size. Batching wins by amortization:
// one FindTable and one scheduling pass per batch, one partition-lock
// acquisition per (partition, batch) instead of per op, and one writer_mu
// acquisition per write batch — the fixed per-op costs the ISSUE's
// workload could never amortize at batch size 1.
//
//   ./bench_batch_pipeline                         # sweep B=1,2,4,8,16,32
//   ./bench_batch_pipeline --batch=8,64 --clients=4 --engine=partial
//   ./bench_batch_pipeline --pool=2 --affinity=0   # affinity control arm
//   ./bench_batch_pipeline --smoke                 # CI fast path
//
// With --pool=N the partition groups of a batch fan out across the shared
// pool with partition-affine scheduling (worker p%N serves partition p);
// --affinity=0 keeps the same pool but spreads round-robin, isolating what
// core-locality of the cracked structures is worth.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "bench_util/workload.h"
#include "common/stats.h"
#include "common/timer.h"
#include "engine/database.h"
#include "engine/plain_engine.h"
#include "storage/catalog.h"

namespace crackdb::bench {
namespace {

constexpr Value kDomain = 10'000'000;

struct PipelineOptions {
  std::vector<size_t> batches;  // empty = default sweep
  size_t clients = 2;
  size_t partitions = 8;
  size_t pool = 0;
  bool affinity = true;
  std::string engine = "sideways";
  size_t write_pct = 20;
};

PartitionSpec MakeSpec(const PipelineOptions& opt) {
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = opt.partitions;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = kDomain;
  return spec;
}

std::unique_ptr<Database> MakeDatabase(const Relation& source,
                                       const PipelineOptions& opt) {
  DatabaseOptions db_opt;
  db_opt.pool_threads = opt.pool;
  db_opt.affine_scheduling = opt.affinity;
  auto db = std::make_unique<Database>(db_opt);
  db->RegisterSharded("R", source, MakeSpec(opt), opt.engine);
  return db;
}

/// One client's pre-generated traffic: a query stream (cheap point lookups
/// plus selective ranges on the organizing attribute — the shape where the
/// fixed per-op overhead is a large fraction) and an insert stream
/// interleaved with it. (Mixed insert/delete batches are pinned down by
/// the batch_async equivalence tests; the bench keeps the write stream
/// insert-only so both modes do identical work.)
struct ClientTraffic {
  std::vector<Query> queries;
  std::vector<WriteOp> writes;
};

ClientTraffic GenerateTraffic(uint64_t seed, size_t num_queries,
                              size_t num_writes, size_t rows) {
  ClientTraffic traffic;
  Rng rng(seed);
  // Point lookups plus ~50-row ranges: the converged-serving shape, where
  // each op's real work is microseconds and the per-op fixed costs are
  // the throughput ceiling batching exists to lift.
  const double selectivity = std::min(0.01, 50.0 / static_cast<double>(rows));
  traffic.queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    const RangePredicate pred =
        rng.Bernoulli(0.7) ? RangePredicate::Point(rng.Uniform(1, kDomain))
                           : RandomRange(&rng, 1, kDomain, selectivity);
    traffic.queries.push_back(
        {"R", SelectProject({{AttrName(1), pred}}, {AttrName(7)})});
  }
  traffic.writes.reserve(num_writes);
  for (size_t i = 0; i < num_writes; ++i) {
    std::vector<Value> row(7);
    for (Value& v : row) v = rng.Uniform(1, kDomain);
    traffic.writes.push_back(WriteOp::MakeInsert(std::move(row)));
  }
  return traffic;
}

/// Pre-cracks every partition so the sweep measures steady-state serving
/// (converged crackers answer in microseconds, which is exactly where the
/// per-op fixed costs dominate).
void Warmup(Database* db, size_t rows, uint64_t seed) {
  Rng rng(seed);
  const double selectivity =
      std::min(0.005, 1'000.0 / static_cast<double>(rows));
  for (int q = 0; q < 64; ++q) {
    const RangePredicate pred = RandomRange(&rng, 1, kDomain, selectivity);
    (void)db->Execute(
        {"R", SelectProject({{AttrName(1), pred}}, {AttrName(7)})});
  }
}

struct ModeResult {
  double ops_per_sec = 0;
  uint64_t checksum = 0;
  SeriesSummary latency;  // per op; batched ops share their batch's time
};

/// Runs every client's traffic through one database, either one op at a
/// time (batch == 1) or in batches of `batch`. Queries and writes
/// interleave batch by batch so both paths see mixed traffic.
ModeResult RunMode(const Relation& source, const PipelineOptions& opt,
                   size_t batch, size_t queries_per_client,
                   size_t writes_per_client, uint64_t seed) {
  const std::unique_ptr<Database> db_owner = MakeDatabase(source, opt);
  Database& db = *db_owner;
  Warmup(&db, source.num_rows(), seed);

  std::vector<ClientTraffic> traffic(opt.clients);
  for (size_t c = 0; c < opt.clients; ++c) {
    traffic[c] = GenerateTraffic(seed + 7 * c + 1, queries_per_client,
                                 writes_per_client, source.num_rows());
  }

  std::atomic<bool> start{false};
  std::vector<uint64_t> checksums(opt.clients, 0);
  std::vector<std::vector<double>> latencies(opt.clients);
  std::vector<std::thread> workers;
  workers.reserve(opt.clients);
  for (size_t c = 0; c < opt.clients; ++c) {
    workers.emplace_back([&, c] {
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const ClientTraffic& mine = traffic[c];
      std::vector<double>& lat = latencies[c];
      lat.reserve(mine.queries.size() + mine.writes.size());
      uint64_t checksum = 0;
      size_t w = 0;
      for (size_t q = 0; q < mine.queries.size(); q += batch) {
        const size_t q_count = std::min(batch, mine.queries.size() - q);
        if (batch == 1) {
          Timer timer;
          checksum += db.Execute(mine.queries[q])->count;
          lat.push_back(timer.ElapsedMicros());
        } else {
          Timer timer;
          const std::vector<Expected<ExecuteResult>> results =
              db.ExecuteBatch({mine.queries.data() + q, q_count});
          const double per_op =
              timer.ElapsedMicros() / static_cast<double>(q_count);
          for (const Expected<ExecuteResult>& r : results) {
            checksum += r->count;
            lat.push_back(per_op);
          }
        }
        // Keep the write stream at its share of the interleaved traffic.
        const size_t w_target =
            (q + q_count) * writes_per_client / mine.queries.size();
        const size_t w_count = std::min(w_target, mine.writes.size()) - w;
        if (w_count == 0) continue;
        if (batch == 1) {
          for (size_t i = 0; i < w_count; ++i) {
            Timer timer;
            checksum += db.Insert("R", mine.writes[w + i].values);
            lat.push_back(timer.ElapsedMicros());
          }
        } else {
          Timer timer;
          const std::vector<WriteOutcome> outcomes =
              db.ApplyBatch("R", {mine.writes.data() + w, w_count});
          const double per_op =
              timer.ElapsedMicros() / static_cast<double>(w_count);
          for (const WriteOutcome& outcome : outcomes) {
            checksum += outcome.key;
            lat.push_back(per_op);
          }
        }
        w += w_count;
      }
      checksums[c] = checksum;
    });
  }
  Timer timer;
  start.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  const double elapsed = timer.ElapsedSeconds();

  ModeResult result;
  std::vector<double> all_latencies;
  for (size_t c = 0; c < opt.clients; ++c) {
    result.checksum += checksums[c];
    all_latencies.insert(all_latencies.end(), latencies[c].begin(),
                         latencies[c].end());
  }
  result.latency = Summarize(std::move(all_latencies));
  result.ops_per_sec = static_cast<double>(result.latency.count) / elapsed;
  return result;
}

/// The batched paths must answer exactly like the per-op loop (and the
/// per-op loop like a plain scan) before any timing is trusted.
bool VerifyEquivalence(const Relation& source, const PipelineOptions& opt) {
  const std::unique_ptr<Database> batch_owner = MakeDatabase(source, opt);
  const std::unique_ptr<Database> loop_owner = MakeDatabase(source, opt);
  Database& batch_db = *batch_owner;
  Database& loop_db = *loop_owner;
  PlainEngine plain(source);
  Rng rng(271828);
  std::vector<Query> queries;
  for (int q = 0; q < 12; ++q) {
    QuerySpec spec =
        SelectProject({{AttrName(1), RandomRange(&rng, 1, kDomain, 0.02)},
                       {AttrName(3), RandomRange(&rng, 1, kDomain, 0.5)}},
                      {AttrName(6), AttrName(7)});
    queries.push_back({"R", std::move(spec)});
  }
  const std::vector<Expected<ExecuteResult>> batched =
      batch_db.ExecuteBatch(queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    const Expected<ExecuteResult> looped = loop_db.Execute(queries[q]);
    if (!batched[q].ok() || !looped.ok()) return false;
    if (batched[q]->rows.columns != looped->rows.columns) return false;
    if (ZipRows(batched[q]->rows) != ZipRows(plain.Run(queries[q].spec))) {
      return false;
    }
  }
  // Async answers must match too (exercises the pooled path when --pool>0).
  for (int q = 0; q < 4; ++q) {
    const QuerySpec spec = SelectProject(
        {{AttrName(1), RandomRange(&rng, 1, kDomain, 0.01)}}, {AttrName(7)});
    const Query query{"R", spec};
    const Expected<ExecuteResult> async = batch_db.ExecuteAsync(query).get();
    if (!async.ok() || ZipRows(async->rows) != ZipRows(plain.Run(query.spec))) {
      return false;
    }
  }
  return true;
}

void Run(const BenchArgs& args, const PipelineOptions& opt) {
  const size_t rows = args.rows != 0 ? args.rows
                      : args.paper_scale ? 10'000'000
                                         : 200'000;
  const size_t queries_per_client = args.queries != 0 ? args.queries
                                    : args.paper_scale ? 20'000
                                                       : 4'000;
  const size_t writes_per_client = queries_per_client * opt.write_pct / 100;
  std::vector<size_t> sweep = opt.batches;
  if (sweep.empty()) {
    sweep = args.smoke ? std::vector<size_t>{1, 8}
                       : std::vector<size_t>{1, 2, 4, 8, 16, 32};
  }
  PipelineOptions effective = opt;
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
  Relation& source =
      CreateUniformRelation(&catalog, "R", 7, rows, kDomain, &data_rng);
  std::printf(
      "# batch pipeline: engine=%s rows=%zu queries/client=%zu "
      "writes/client=%zu clients=%zu partitions=%zu pool=%zu affinity=%d\n",
      effective.engine.c_str(), rows, queries_per_client, writes_per_client,
      effective.clients, effective.partitions, effective.pool,
      effective.affinity ? 1 : 0);

  if (!VerifyEquivalence(source, effective)) {
    std::fprintf(stderr,
                 "FAILED: batched answers diverge from the per-op loop\n");
    std::exit(1);
  }
  std::printf("# verification batch==loop==plain: ok\n");

  FigureHeader("bp", "aggregate ops/sec vs batch size", "batch_size",
               "ops_per_sec");
  SeriesHeader("batched-" + effective.engine +
               (effective.pool > 0
                    ? (effective.affinity ? "-affine" : "-round-robin")
                    : "-inline"));
  TablePrinter table({"batch", "mode", "ops/sec", "speedup", "p50_us",
                      "p95_us", "p99_us"});
  double per_op_baseline = 0;
  for (const size_t batch : sweep) {
    const ModeResult result =
        RunMode(source, effective, batch, queries_per_client,
                writes_per_client, args.seed);
    if (batch == 1 && per_op_baseline == 0) {
      per_op_baseline = result.ops_per_sec;
    }
    Point(static_cast<double>(batch), result.ops_per_sec);
    table.AddRow(
        {std::to_string(batch), batch == 1 ? "per-op" : "batched",
         Fmt(result.ops_per_sec, 0),
         per_op_baseline > 0 ? Fmt(result.ops_per_sec / per_op_baseline, 2)
                             : "-",
         Fmt(result.latency.median, 1), Fmt(result.latency.p95, 1),
         Fmt(result.latency.p99, 1)});
    std::printf("# batch=%zu checksum=%llu\n", batch,
                static_cast<unsigned long long>(result.checksum));
  }
  table.Print();
}

}  // namespace
}  // namespace crackdb::bench

int main(int argc, char** argv) {
  using crackdb::bench::BenchArgs;
  using crackdb::bench::BenchFlag;
  crackdb::bench::PipelineOptions opt;
  const BenchFlag extra[] = {
      {"--batch=LIST", "comma list of batch sizes (default 1,2,4,8,16,32)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--batch=", 8) != 0) return false;
         opt.batches = crackdb::bench::ParseSizeList("--batch", a + 8);
         return true;
       }},
      {"--clients=N", "client threads issuing batches (default 2)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--clients=", 10) != 0) return false;
         const long long n = std::atoll(a + 10);
         if (n < 1 || n > 256) {
           std::fprintf(stderr, "--clients wants 1..256, got '%s'\n", a + 10);
           std::exit(2);
         }
         opt.clients = static_cast<size_t>(n);
         return true;
       }},
      {"--partitions=N", "partition count for the sharded table (default 8)",
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
      {"--affinity=0|1",
       "partition-affine pool scheduling (default 1; needs --pool>0)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--affinity=", 11) != 0) return false;
         opt.affinity = std::atoll(a + 11) != 0;
         return true;
       }},
      {"--engine=KIND", "per-partition engine kind (default sideways)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--engine=", 9) != 0) return false;
         opt.engine = a + 9;
         return true;
       }},
      {"--write-pct=P",
       "writes per 100 queries in the interleaved stream (default 20)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--write-pct=", 12) != 0) return false;
         const long long n = std::atoll(a + 12);
         if (n < 0 || n > 100) {
           std::fprintf(stderr, "--write-pct wants 0..100, got '%s'\n",
                        a + 12);
           std::exit(2);
         }
         opt.write_pct = static_cast<size_t>(n);
         return true;
       }},
  };
  const BenchArgs args = BenchArgs::Parse(argc, argv, extra);
  crackdb::bench::Run(args, opt);
  return 0;
}
