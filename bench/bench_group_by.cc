// The grouped-aggregation pushdown vs the classic materialize-then-group
// loop: the same selective queries run through the fluent API two ways —
// Project(key, value) + client-side GroupBySpans/GroupedSum (the control
// arm, exactly what every caller had to do before the GroupBy terminal
// existed) and GroupBy(key).Aggregate(...) (the pushdown, a per-partition
// GroupAccumulator under each partition's lock followed by a partial-table
// merge on the caller thread). Dense group keys (1..16/256/4096) take the
// accumulator's flat-array path; a sparse column of 256 keys spread over
// the whole Value range keeps its hash path measured. The control arm copies
// every qualifying key and value across the partition merge; the pushdown
// moves only group-count-sized partial tables, so the gap widens with both
// selectivity and row count.
//
//   ./bench_group_by                     # sel 1,5,10,20% x groups 16,256,4096,
//                                        #   256 sparse
//   ./bench_group_by --engine=partial --sel=10 --groups=256
//   ./bench_group_by --smoke             # CI fast path
//
// Timing: each sweep point gives each arm its own database, runs one
// untimed warm pass per arm, then times the predicate sequence in rotated
// rounds (RunInterleaved), so a slow host phase lands on both arms alike.
// qps is the sequence length over an arm's median pass time; speedup is
// the median of the per-round paired ratios.
//
// Verify-before-trust: pushdown group tables are checked against a
// plain-scan std::map oracle before any timing is reported, both arms'
// checksums must agree on every pass, and every pushed-down query must
// report exactly zero reconstruction cost. Each sweep point emits a
// machine-readable `BENCH_group_by {...}` JSON line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "bench_util/workload.h"
#include "common/timer.h"
#include "engine/database.h"
#include "engine/operators.h"
#include "engine/plain_engine.h"
#include "kernels/cpu_dispatch.h"
#include "storage/catalog.h"

namespace crackdb::bench {
namespace {

constexpr Value kDomain = 10'000'000;

// Group-key columns baked into the relation, A3 onwards. The dense ones
// draw 1..card (A3: 16, A4: 256, A5: 4096); the sparse one (A6) draws 256
// keys i * 0x0101010101010101 spread over the whole Value range, so its
// key span defeats the accumulator's dense path.
struct GroupColumn {
  size_t card;
  bool sparse;
};
constexpr GroupColumn kGroupColumns[] = {
    {16, false}, {256, false}, {4096, false}, {256, true}};
constexpr size_t kNumGroupColumns = std::size(kGroupColumns);

Value GroupKey(const GroupColumn& column, Rng* rng) {
  const Value card = static_cast<Value>(column.card);
  if (!column.sparse) return rng->Uniform(1, card);
  return static_cast<Value>(static_cast<uint64_t>(rng->Uniform(0, card - 1)) *
                            0x0101010101010101ULL);
}

struct GroupByOptions {
  std::vector<size_t> sel_pct;      // empty = default sweep
  std::vector<size_t> group_cards;  // empty = default sweep
  size_t partitions = 8;
  size_t pool = 0;
  std::string engine = "sideways";
};

/// Indexes into kGroupColumns of every column with `cardinality` keys.
std::vector<size_t> GroupColumnsFor(size_t cardinality) {
  std::vector<size_t> out;
  for (size_t i = 0; i < kNumGroupColumns; ++i) {
    if (kGroupColumns[i].card == cardinality) out.push_back(i);
  }
  if (out.empty()) {
    std::fprintf(stderr, "--groups wants one of 16,256,4096, got %zu\n",
                 cardinality);
    std::exit(2);
  }
  return out;
}

std::string GroupAttr(size_t column) { return AttrName(3 + column); }

/// A1 = selection attr, A2 = folded value (both uniform over the full
/// domain); A3.. = the group-key columns of kGroupColumns.
Relation& CreateGroupedRelation(Catalog* catalog, size_t rows, Rng* rng) {
  Relation& rel = catalog->CreateRelation("R");
  for (size_t a = 1; a <= 2 + kNumGroupColumns; ++a) {
    rel.AddColumn(AttrName(a));
  }
  std::vector<Value> row(2 + kNumGroupColumns);
  for (size_t r = 0; r < rows; ++r) {
    row[0] = rng->Uniform(1, kDomain);
    row[1] = rng->Uniform(1, kDomain);
    for (size_t i = 0; i < kNumGroupColumns; ++i) {
      row[2 + i] = GroupKey(kGroupColumns[i], rng);
    }
    rel.BulkLoadRow(row);
  }
  return rel;
}

PartitionSpec MakeSpec(const GroupByOptions& opt) {
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = opt.partitions;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = kDomain;
  return spec;
}

std::unique_ptr<Database> MakeDatabase(const Relation& source,
                                       const GroupByOptions& opt) {
  DatabaseOptions db_opt;
  db_opt.pool_threads = opt.pool;
  auto db = std::make_unique<Database>(db_opt);
  db->RegisterSharded("R", source, MakeSpec(opt), opt.engine);
  return db;
}

std::vector<RangePredicate> MakePredicates(uint64_t seed, size_t count,
                                           double selectivity) {
  Rng rng(seed);
  std::vector<RangePredicate> preds;
  preds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    preds.push_back(RandomRange(&rng, 1, kDomain, selectivity));
  }
  return preds;
}

enum class Arm { kMaterializeGroup, kPushdown };

/// Checksums of one pass of an arm over the predicate sequence.
struct PassResult {
  uint64_t total_rows = 0;
  uint64_t total_groups = 0;
  /// Order-insensitive fold digest: sum over groups of
  /// key * (count + sum-of-values), wrapping mod 2^64.
  uint64_t digest = 0;
  bool reconstruct_zero = true;
};

uint64_t GroupDigest(Value key, uint64_t count, Value sum) {
  return static_cast<uint64_t>(key) *
         (count + static_cast<uint64_t>(sum));
}

/// One pass of `arm` over the predicate sequence on `db`. Both arms pay
/// identical selection work; what differs is where the grouping happens
/// and how much data crosses the partition merge.
PassResult RunPass(Database* db, Arm arm, const std::string& group_attr,
                   const std::vector<RangePredicate>& preds) {
  PassResult result;
  for (const RangePredicate& pred : preds) {
    switch (arm) {
      case Arm::kMaterializeGroup: {
        auto r = db->From("R")
                     .Where(AttrName(1), pred)
                     .Project(group_attr, AttrName(2))
                     .Execute();
        if (!r.ok()) {
          std::fprintf(stderr, "FAILED: %s\n", r.error().c_str());
          std::exit(1);
        }
        const std::vector<std::span<const Value>> keys = {
            {r->rows.columns[0].data(), r->rows.columns[0].size()}};
        const Groups g = GroupBySpans(keys);
        const std::vector<Value> sums = GroupedSum(g, r->rows.columns[1]);
        const std::vector<Value> counts = GroupedCount(g);
        result.total_rows += r->rows.num_rows;
        result.total_groups += g.num_groups();
        for (size_t gi = 0; gi < g.num_groups(); ++gi) {
          result.digest += GroupDigest(
              g.keys[gi][0], static_cast<uint64_t>(counts[gi]), sums[gi]);
        }
        break;
      }
      case Arm::kPushdown: {
        auto r = db->From("R")
                     .Where(AttrName(1), pred)
                     .GroupBy(group_attr)
                     .Aggregate(AggregateOp::kSum, AttrName(2))
                     .Aggregate(AggregateOp::kCount, AttrName(2))
                     .Execute();
        if (!r.ok()) {
          std::fprintf(stderr, "FAILED: %s\n", r.error().c_str());
          std::exit(1);
        }
        result.total_rows += r->count;
        result.total_groups += r->groups.num_groups();
        for (size_t gi = 0; gi < r->groups.num_groups(); ++gi) {
          result.digest += GroupDigest(r->groups.keys[gi],
                                       r->groups.counts[gi],
                                       r->groups.aggregates[0][gi]);
        }
        result.reconstruct_zero &= r->cost.reconstruct_micros == 0;
        break;
      }
    }
  }
  return result;
}

/// Pushdown group tables must equal a plain-scan std::map oracle before
/// any timing is trusted.
bool VerifyAgainstOracle(const Relation& source, const GroupByOptions& opt,
                         const std::string& group_attr) {
  const std::unique_ptr<Database> db = MakeDatabase(source, opt);
  PlainEngine plain(source);
  Rng rng(161803);
  for (int q = 0; q < 10; ++q) {
    const RangePredicate pred = RandomRange(&rng, 1, kDomain, 0.05);
    const QuerySpec oracle_spec =
        SelectProject({{AttrName(1), pred}}, {group_attr, AttrName(2)});
    const QueryResult oracle = plain.Run(oracle_spec);
    std::map<Value, std::pair<uint64_t, Value>> expect;  // key -> count,sum
    for (size_t r = 0; r < oracle.num_rows; ++r) {
      auto& slot = expect[oracle.columns[0][r]];
      slot.first += 1;
      slot.second += oracle.columns[1][r];
    }

    auto got = db->From("R")
                   .Where(AttrName(1), pred)
                   .GroupBy(group_attr)
                   .Aggregate(AggregateOp::kSum, AttrName(2))
                   .Aggregate(AggregateOp::kCount, AttrName(2))
                   .Execute();
    if (!got.ok()) return false;
    if (got->groups.num_groups() != expect.size()) return false;
    size_t gi = 0;  // finalize contract: keys ascending, as std::map walks
    for (const auto& [key, cs] : expect) {
      if (got->groups.keys[gi] != key) return false;
      if (got->groups.counts[gi] != cs.first) return false;
      if (got->groups.aggregates[0][gi] != cs.second) return false;
      if (got->groups.aggregates[1][gi] !=
          static_cast<Value>(cs.first)) {
        return false;
      }
      ++gi;
    }
    if (got->cost.reconstruct_micros != 0) return false;
  }
  return true;
}

void Run(const BenchArgs& args, const GroupByOptions& opt) {
  const size_t rows = args.rows != 0 ? args.rows
                      : args.paper_scale ? 10'000'000
                                         : 200'000;
  const size_t queries = args.queries != 0 ? args.queries
                         : args.smoke      ? 6
                         : args.paper_scale ? 1'000
                                            : 200;
  // Timed rounds per sweep point, after one warm round.
  const size_t rounds = args.smoke ? 2 : 9;
  std::vector<size_t> sel_sweep = opt.sel_pct;
  if (sel_sweep.empty()) {
    sel_sweep = args.smoke ? std::vector<size_t>{10}
                           : std::vector<size_t>{1, 5, 10, 20};
  }
  std::vector<size_t> card_sweep = opt.group_cards;
  if (card_sweep.empty()) {
    card_sweep = args.smoke ? std::vector<size_t>{256}
                            : std::vector<size_t>{16, 256, 4096};
  }
  GroupByOptions effective = opt;
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
  Relation& source = CreateGroupedRelation(&catalog, rows, &data_rng);
  const char* kernel_isa = kernels::IsaName(kernels::ActiveIsa());
  std::printf(
      "# group by: engine=%s rows=%zu queries=%zu partitions=%zu pool=%zu "
      "kernel=%s\n",
      effective.engine.c_str(), rows, queries, effective.partitions,
      effective.pool, kernel_isa);

  std::vector<size_t> column_sweep;
  for (const size_t card : card_sweep) {
    for (const size_t column : GroupColumnsFor(card)) {
      column_sweep.push_back(column);
    }
  }
  for (const size_t column : column_sweep) {
    if (!VerifyAgainstOracle(source, effective, GroupAttr(column))) {
      std::fprintf(stderr,
                   "FAILED: pushdown groups diverge from the plain oracle "
                   "(groups=%zu%s)\n",
                   kGroupColumns[column].card,
                   kGroupColumns[column].sparse ? " sparse" : "");
      std::exit(1);
    }
  }
  std::printf("# verification pushdown==map-oracle: ok\n");

  // Storage footprint of the table in this bench's (raw) layout, so the
  // JSON lines are comparable with bench_compression's encoded sweeps.
  const TableStats storage = MakeDatabase(source, effective)->Stats("R");

  FigureHeader("group_by", "grouped pushdown speedup vs selectivity",
               "selectivity_pct", "speedup");
  TablePrinter table({"sel%", "groups", "arm", "qps", "speedup"});
  SeriesHeader("group_by-" + effective.engine);
  for (const size_t column : column_sweep) {
    const std::string group_attr = GroupAttr(column);
    const size_t card = kGroupColumns[column].card;
    const char* keys = kGroupColumns[column].sparse ? "sparse" : "dense";
    const std::string groups_label =
        std::to_string(card) + (kGroupColumns[column].sparse ? " sparse" : "");
    for (const size_t pct : sel_sweep) {
      const double selectivity = static_cast<double>(pct) / 100.0;
      const std::vector<RangePredicate> preds =
          MakePredicates(args.seed + card * 100 + pct, queries, selectivity);
      std::optional<PassResult> baseline;

      // Each arm on its own database (the crackers converge on the arm's
      // own access pattern in the warm pass), timed in rotated rounds.
      const Arm arms[] = {Arm::kMaterializeGroup, Arm::kPushdown};
      const std::unique_ptr<Database> dbs[] = {
          MakeDatabase(source, effective), MakeDatabase(source, effective)};
      const std::vector<std::vector<double>> seconds =
          RunInterleaved(2, 1, rounds, [&](size_t a) {
            Timer timer;
            const PassResult pass =
                RunPass(dbs[a].get(), arms[a], group_attr, preds);
            const double elapsed = timer.ElapsedSeconds();
            // Both arms group the identical predicate sequence on
            // identical data, on every pass; any divergence voids the
            // timing.
            if (!baseline.has_value()) baseline = pass;
            if (pass.total_rows != baseline->total_rows ||
                pass.total_groups != baseline->total_groups ||
                pass.digest != baseline->digest) {
              std::fprintf(stderr,
                           "FAILED: arm checksums diverged at sel=%zu%% "
                           "groups=%s\n",
                           pct, groups_label.c_str());
              std::exit(1);
            }
            if (!pass.reconstruct_zero) {
              std::fprintf(
                  stderr,
                  "FAILED: a pushed-down query charged reconstruction\n");
              std::exit(1);
            }
            return elapsed;
          });
      std::vector<double> arm_seconds[2];
      for (const std::vector<double>& round : seconds) {
        for (size_t a = 0; a < 2; ++a) arm_seconds[a].push_back(round[a]);
      }
      const double n = static_cast<double>(preds.size());
      const double control_qps = n / Median(arm_seconds[0]);
      const double push_qps = n / Median(arm_seconds[1]);
      // Paired per round: control time over pushdown time.
      const double speedup = MedianRatio(seconds, 0, 1);
      if (column == column_sweep.front()) {
        Point(static_cast<double>(pct), speedup);
      }
      table.AddRow({std::to_string(pct), groups_label, "materialize+group",
                    Fmt(control_qps, 0), "1.00"});
      table.AddRow({std::to_string(pct), groups_label, "pushdown",
                    Fmt(push_qps, 0), Fmt(speedup, 2)});
      std::printf(
          "BENCH_group_by {\"engine\":\"%s\",\"rows\":%zu,\"queries\":%zu,"
          "\"rounds\":%zu,\"sel_pct\":%zu,\"group_card\":%zu,"
          "\"group_keys\":\"%s\",\"kernel_isa\":\"%s\","
          "\"materialize_qps\":%.1f,\"pushdown_qps\":%.1f,"
          "\"speedup\":%.3f,"
          "\"resident_column_bytes\":%zu,\"bytes_per_row\":%.2f,"
          "\"reconstruct_zero\":true,\"verified\":true}\n",
          effective.engine.c_str(), rows, queries, rounds, pct, card, keys,
          kernel_isa, control_qps, push_qps, speedup,
          storage.resident_column_bytes, storage.bytes_per_row);
    }
  }
  table.Print();
}

}  // namespace
}  // namespace crackdb::bench

int main(int argc, char** argv) {
  using crackdb::bench::BenchArgs;
  using crackdb::bench::BenchFlag;
  crackdb::bench::GroupByOptions opt;
  const BenchFlag extra[] = {
      {"--sel=LIST",
       "comma list of selectivity percents to sweep (default 1,5,10,20)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--sel=", 6) != 0) return false;
         opt.sel_pct = crackdb::bench::ParseSizeList("--sel", a + 6);
         for (const size_t pct : opt.sel_pct) {
           if (pct > 100) {
             std::fprintf(stderr, "--sel wants percents in 1..100\n");
             std::exit(2);
           }
         }
         return true;
       }},
      {"--groups=LIST",
       "comma list of group cardinalities to sweep, each one of 16,256,4096 "
       "(default all three; 256 also sweeps the sparse-key column)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--groups=", 9) != 0) return false;
         opt.group_cards = crackdb::bench::ParseSizeList("--groups", a + 9);
         for (const size_t card : opt.group_cards) {
           crackdb::bench::GroupColumnsFor(card);  // validates; exits on junk
         }
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
      {"--engine=KIND", "per-partition engine kind (default sideways)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--engine=", 9) != 0) return false;
         opt.engine = a + 9;
         return true;
       }},
      {"--kernel=ISA",
       "pin the kernel dispatch arm: scalar|sse2|avx2|auto (default auto)",
       [](const char* a) {
         if (std::strncmp(a, "--kernel=", 9) != 0) return false;
         crackdb::kernels::Isa isa;
         if (!crackdb::kernels::ParseIsa(a + 9, &isa)) {
           std::fprintf(stderr,
                        "--kernel wants scalar|sse2|avx2|auto, got '%s'\n",
                        a + 9);
           std::exit(2);
         }
         crackdb::kernels::ForceIsa(isa);
         return true;
       }},
  };
  const BenchArgs args = BenchArgs::Parse(argc, argv, extra);
  crackdb::bench::Run(args, opt);
  return 0;
}
