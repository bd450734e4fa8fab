// GROUP BY differential property matrix: the GroupBy(...).Aggregate(...)
// pushdown must equal a std::map-based scalar oracle computed over
// materialized rows, for every engine kind, unsharded and sharded, inline
// and pooled. The oracle is deliberately the dumbest possible
// implementation — sorted associative map, one row at a time — so any
// divergence in the hash tables, the per-partition partial folds, the
// shard merge, or the sort-by-key finalize shows up as a failed case, not
// a silently different answer. Also covered: empty results, single-group
// and all-distinct-key shapes, several aggregates folding the same
// attribute, per-group counts via kCount, and the zero-reconstruction
// cost contract. GroupAccumulator is also tested directly: AddChunk's
// dense-domain and hash paths, and Merge of partials built by each, at the
// dense cutoff's edges and at the ends of the Value range. The
// `concurrency` label runs the sharded cases under TSan in CI.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/workload.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/engine_factory.h"
#include "engine/group_table.h"
#include "engine/plain_engine.h"
#include "engine/query.h"
#include "obs/trace.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

using bench::AttrName;

constexpr Value kDomain = 2'000;
constexpr size_t kRows = 2'000;

/// The scalar oracle's per-group state: folded one row at a time, no
/// kernels, no hashing, no partials.
struct OracleGroup {
  uint64_t count = 0;
  Value sum = 0;
  Value min = kMaxValue;
  Value max = kMinValue;
};

using Oracle = std::map<Value, OracleGroup>;

/// Folds the materialized (group, value) rows of a plain full-scan into a
/// sorted map — the specification the pushdown is tested against.
Oracle BuildOracle(const Relation& source, const std::string& sel_attr,
                   const RangePredicate& pred, const std::string& group_attr,
                   const std::string& value_attr) {
  PlainEngine plain(source);
  QuerySpec spec;
  spec.selections = {{sel_attr, pred}};
  spec.projections = {group_attr, value_attr};
  const QueryResult rows = plain.Run(spec);
  Oracle oracle;
  for (size_t r = 0; r < rows.num_rows; ++r) {
    OracleGroup& g = oracle[rows.columns[0][r]];
    const Value v = rows.columns[1][r];
    g.count += 1;
    g.sum = static_cast<Value>(static_cast<uint64_t>(g.sum) +
                               static_cast<uint64_t>(v));
    g.min = std::min(g.min, v);
    g.max = std::max(g.max, v);
  }
  return oracle;
}

/// The grouped result must match the oracle exactly: same keys in
/// ascending order, same counts, and — because several aggregates fold
/// the same value attribute — same sum/min/max/kCount columns.
void ExpectMatchesOracle(const GroupedTable& groups, const Oracle& oracle,
                         const std::string& context) {
  ASSERT_EQ(groups.num_groups(), oracle.size()) << context;
  size_t gi = 0;
  for (const auto& [key, og] : oracle) {
    ASSERT_EQ(groups.keys[gi], key) << context << " group " << gi;
    EXPECT_EQ(groups.counts[gi], og.count) << context << " key " << key;
    EXPECT_EQ(groups.aggregates[0][gi], og.sum) << context << " key " << key;
    EXPECT_EQ(groups.aggregates[1][gi], og.min) << context << " key " << key;
    EXPECT_EQ(groups.aggregates[2][gi], og.max) << context << " key " << key;
    EXPECT_EQ(groups.aggregates[3][gi], static_cast<Value>(og.count))
        << context << " key " << key;
    ++gi;
  }
}

/// The canonical grouped query of the matrix: four aggregates, three of
/// which fold the same attribute (the duplicate-aggregate-attr case) plus
/// a per-group count with a placeholder attribute.
Query BuildGroupedQuery(const std::string& sel_attr,
                        const RangePredicate& pred,
                        const std::string& group_attr,
                        const std::string& value_attr) {
  QueryBuilder builder;
  builder.Where(sel_attr, pred)
      .GroupBy(group_attr)
      .Aggregate(AggregateOp::kSum, value_attr)
      .Aggregate(AggregateOp::kMin, value_attr)
      .Aggregate(AggregateOp::kMax, value_attr)
      .Aggregate(AggregateOp::kCount, value_attr);
  Query q = builder.Build();
  EXPECT_TRUE(q.error.empty()) << q.error;
  return q;
}

PartitionSpec RangeShards(size_t partitions) {
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = partitions;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = kDomain;
  return spec;
}

/// Relation shape: A1 selection/sharding attr and A2 folded value are
/// uniform over the full domain; A3 is an 8-value group key (every group
/// heavily populated); A4 is the row ordinal (every key distinct).
class GroupByTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    Rng rng(20090629);
    source_ = &catalog_.CreateRelation("R");
    for (size_t a = 1; a <= 4; ++a) source_->AddColumn(AttrName(a));
    std::vector<Value> row(4);
    for (size_t r = 0; r < kRows; ++r) {
      row[0] = rng.Uniform(1, kDomain);
      row[1] = rng.Uniform(1, kDomain);
      row[2] = rng.Uniform(1, 8);
      row[3] = static_cast<Value>(r) + 1;
      source_->BulkLoadRow(row);
    }
  }

  std::unique_ptr<Database> MakeDb(size_t pool_threads) {
    DatabaseOptions options;
    options.pool_threads = pool_threads;
    auto db = std::make_unique<Database>(options);
    db->RegisterSharded("R", *source_, RangeShards(4), GetParam());
    return db;
  }

  /// One differential check through the unsharded engine (raw
  /// Execute(spec, consume) on a fresh engine instance) and through the
  /// sharded database at the given pool size (the fluent path).
  void CheckAllPaths(const RangePredicate& pred,
                     const std::string& group_attr) {
    const Oracle oracle =
        BuildOracle(*source_, AttrName(1), pred, group_attr, AttrName(2));
    const Query q =
        BuildGroupedQuery(AttrName(1), pred, group_attr, AttrName(2));

    // Unsharded: the engine's own Consume path (in-place override or the
    // default FetchView fold).
    std::unique_ptr<Engine> engine = MakeEngine(GetParam(), *source_);
    ASSERT_NE(engine, nullptr);
    const ExecuteResult direct = engine->Execute(q.spec, q.consume);
    ExpectMatchesOracle(direct.groups, oracle,
                        std::string(GetParam()) + "/unsharded");
    EXPECT_EQ(direct.cost.reconstruct_micros, 0u);

    // Sharded, inline and pooled: per-partition partial tables merged on
    // the caller thread.
    for (const size_t pool : {size_t{0}, size_t{2}}) {
      auto db = MakeDb(pool);
      auto r = db->From("R")
                   .Where(AttrName(1), pred)
                   .GroupBy(group_attr)
                   .Aggregate(AggregateOp::kSum, AttrName(2))
                   .Aggregate(AggregateOp::kMin, AttrName(2))
                   .Aggregate(AggregateOp::kMax, AttrName(2))
                   .Aggregate(AggregateOp::kCount, AttrName(2))
                   .Trace()
                   .Execute();
      ASSERT_TRUE(r.ok()) << r.error();
      ExpectMatchesOracle(r->groups, oracle,
                          std::string(GetParam()) + "/sharded/pool=" +
                              std::to_string(pool));
      EXPECT_EQ(r->cost.reconstruct_micros, 0u);
      // The span timeline agrees with the CostBreakdown: the grouped
      // pushdown folds in place, so no partition recorded a tuple-
      // reconstruction ("fetch") span.
      ASSERT_NE(r->trace, nullptr);
      for (const obs::TraceSpan& s : r->trace->Spans()) {
        EXPECT_NE(s.name, "fetch") << GetParam();
      }
    }
  }

  Catalog catalog_;
  Relation* source_ = nullptr;
};

TEST_P(GroupByTest, SelectiveRangeMatchesScalarOracle) {
  CheckAllPaths(RangePredicate::Closed(200, 700), AttrName(3));
}

TEST_P(GroupByTest, FullScanMatchesScalarOracle) {
  CheckAllPaths(RangePredicate::Closed(1, kDomain), AttrName(3));
}

TEST_P(GroupByTest, EmptySelectionYieldsZeroGroups) {
  // The domain is [1, kDomain]; nothing qualifies above it.
  CheckAllPaths(RangePredicate::Closed(kDomain + 1, kDomain + 100),
                AttrName(3));
}

TEST_P(GroupByTest, SingleGroupWhenOneRowQualifies) {
  // A4 is the distinct row ordinal, so a point predicate on A1 narrows to
  // however few rows share that value — and grouping the narrowest
  // predicate by the 8-value key still matches the oracle.
  CheckAllPaths(RangePredicate::Point(kDomain / 2), AttrName(3));
}

TEST_P(GroupByTest, AllDistinctKeysMatchesScalarOracle) {
  // Group by the row ordinal: every qualifying row is its own group, the
  // hash tables grow to the result size, and the sorted finalize must
  // still agree with the map oracle.
  CheckAllPaths(RangePredicate::Closed(500, 900), AttrName(4));
}

TEST_P(GroupByTest, RepeatedQueriesStayCorrectWhileCracking) {
  // Self-organizing engines reorganize on every query; the answers must
  // not drift as the cracker structures converge.
  Rng rng(77);
  for (int i = 0; i < 5; ++i) {
    const Value lo = rng.Uniform(1, kDomain - 100);
    CheckAllPaths(RangePredicate::Closed(lo, lo + 100), AttrName(3));
  }
}

INSTANTIATE_TEST_SUITE_P(
    EngineKinds, GroupByTest,
    ::testing::Values("plain", "presorted", "selection-cracking", "sideways",
                      "partial", "row", "row-presorted"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// GroupAccumulator directly: AddChunk's dense-domain and hash paths, and
// Merge, against the std::map fold
// ---------------------------------------------------------------------------

constexpr uint64_t kCutoff = GroupAccumulator::kDenseSpanCutoff;

/// Sum, Min, Max and Count over one value column: the order
/// ExpectMatchesOracle reads.
ConsumeSpec AllOpsSpec() {
  return ConsumeSpec::GroupBy("g", {{AggregateOp::kSum, "v"},
                                    {AggregateOp::kMin, "v"},
                                    {AggregateOp::kMax, "v"},
                                    {AggregateOp::kCount, "v"}});
}

/// One AddChunk input in row order.
struct Chunk {
  std::vector<Value> groups;
  std::vector<Value> values;
};

/// `n` rows whose group keys cover exactly [lo, lo + span] (computed
/// unsigned): the first rows pin both ends, the rest draw uniformly.
/// Values reach kMaxValue, so sums wrap.
Chunk MakeChunk(Rng* rng, size_t n, Value lo, uint64_t span) {
  Chunk c;
  for (size_t i = 0; i < n; ++i) {
    uint64_t offset = 0;
    if (i == 1) {
      offset = span;
    } else if (i > 1) {
      offset = rng->Next();
      if (span != ~uint64_t{0}) offset %= span + 1;
    }
    c.groups.push_back(
        static_cast<Value>(static_cast<uint64_t>(lo) + offset));
    c.values.push_back(rng->Bernoulli(0.1) ? kMaxValue
                                           : rng->Uniform(-1000, 1000));
  }
  return c;
}

void FoldIntoOracle(const Chunk& c, Oracle* oracle) {
  for (size_t i = 0; i < c.groups.size(); ++i) {
    OracleGroup& g = (*oracle)[c.groups[i]];
    const Value v = c.values[i];
    g.count += 1;
    g.sum = static_cast<Value>(static_cast<uint64_t>(g.sum) +
                               static_cast<uint64_t>(v));
    g.min = std::min(g.min, v);
    g.max = std::max(g.max, v);
  }
}

/// Feeds `c` to `acc` as a contiguous view (keys == nullptr), or through
/// a key list that visits its rows in reverse over base columns twice as
/// long, whose unaddressed rows hold a key and value no chunk uses.
void AddChunkTo(GroupAccumulator* acc, const Chunk& c, bool via_keys) {
  const size_t n = c.groups.size();
  if (!via_keys) {
    const Value* v = c.values.data();
    acc->AddChunk(c.groups.data(), nullptr, n, {v, v, v, nullptr});
    return;
  }
  std::vector<Value> base_g(2 * n, 424242);
  std::vector<Value> base_v(2 * n, 99);
  std::vector<Key> keys(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = 2 * (n - 1 - i) + 1;
    base_g[pos] = c.groups[i];
    base_v[pos] = c.values[i];
    keys[i] = static_cast<Key>(pos);
  }
  const Value* v = base_v.data();
  acc->AddChunk(base_g.data(), keys.data(), n, {v, v, v, nullptr});
}

/// Folds every chunk into one accumulator and checks the finalized table
/// against the map fold, both with and without a key list.
void CheckChunks(const std::vector<Chunk>& chunks, const std::string& what) {
  Oracle oracle;
  for (const Chunk& c : chunks) FoldIntoOracle(c, &oracle);
  const ConsumeSpec spec = AllOpsSpec();
  for (const bool via_keys : {false, true}) {
    GroupAccumulator acc(spec);
    for (const Chunk& c : chunks) AddChunkTo(&acc, c, via_keys);
    ExpectMatchesOracle(FinalizeGrouped(spec, acc.Take()), oracle,
                        what + (via_keys ? "/keys" : "/contiguous"));
  }
}

TEST(GroupAccumulatorTest, SingleGroupSpanZero) {
  Rng rng(1);
  CheckChunks({MakeChunk(&rng, 50, 7, 0)}, "span0");
}

TEST(GroupAccumulatorTest, SpansAroundTheDenseCutoff) {
  // n = cutoff + 1 rows, so the chunk is never smaller than the span and
  // only the cutoff itself decides dense vs hash.
  Rng rng(2);
  for (const uint64_t span : {kCutoff - 1, kCutoff, kCutoff + 1}) {
    CheckChunks({MakeChunk(&rng, kCutoff + 1, -5, span)},
                "span=" + std::to_string(span));
  }
}

TEST(GroupAccumulatorTest, NegativeKeys) {
  Rng rng(3);
  CheckChunks({MakeChunk(&rng, 2000, -1000, 300)}, "negative");
}

TEST(GroupAccumulatorTest, KeysAtTheEndsOfTheValueRange) {
  Rng rng(4);
  // hi - lo overflows a signed Value: the hash path must take it.
  CheckChunks({MakeChunk(&rng, 500, kMinValue, ~uint64_t{0})}, "min..max");
  // Narrow spans pinned to either end take the dense path.
  CheckChunks({MakeChunk(&rng, 500, kMinValue, 10)}, "at-min");
  CheckChunks({MakeChunk(&rng, 500, kMaxValue - 10, 10)}, "at-max");
}

TEST(GroupAccumulatorTest, ChunkSmallerThanItsSpan) {
  Rng rng(5);
  CheckChunks({MakeChunk(&rng, 20, 100, 1000)}, "n<span");
}

TEST(GroupAccumulatorTest, ChunksAlternateDenseAndHashPaths) {
  // Overlapping key ranges, so later chunks find groups an earlier chunk
  // created on the other path.
  Rng rng(6);
  CheckChunks({MakeChunk(&rng, 400, 0, 63), MakeChunk(&rng, 30, 0, 5000),
               MakeChunk(&rng, 400, 32, 63), MakeChunk(&rng, 300, -50, 1000),
               MakeChunk(&rng, 1, 64, 0)},
              "alternating");
}

TEST(GroupAccumulatorTest, MergeCombinesPartialsFromEitherPath) {
  Rng rng(7);
  const Chunk dense = MakeChunk(&rng, 800, 0, 100);
  const Chunk hashed = MakeChunk(&rng, 40, 50, 4000);
  Oracle oracle;
  FoldIntoOracle(dense, &oracle);
  FoldIntoOracle(hashed, &oracle);
  const ConsumeSpec spec = AllOpsSpec();
  for (const bool via_keys : {false, true}) {
    for (const bool dense_first : {false, true}) {
      GroupAccumulator a(spec);
      GroupAccumulator b(spec);
      AddChunkTo(&a, dense_first ? dense : hashed, via_keys);
      AddChunkTo(&b, dense_first ? hashed : dense, via_keys);
      a.Merge(b.Take());
      ExpectMatchesOracle(FinalizeGrouped(spec, a.Take()), oracle,
                          std::string("merge") + (via_keys ? "/keys" : "") +
                              (dense_first ? "/dense-first" : ""));
    }
  }
}

}  // namespace
}  // namespace crackdb
