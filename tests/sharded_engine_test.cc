// Sharded execution correctness: for every engine kind, a ShardedEngine
// over a hash- or range-partitioned relation must answer exactly like the
// unsharded engine over the source relation — across conjunctions,
// disjunctions, point and empty predicates, partition pruning, and
// mirrored update streams. Single-threaded here; the multi-client paths
// are exercised by concurrency_stress_test.

#include "engine/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util/workload.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine_factory.h"
#include "engine/plain_engine.h"
#include "storage/catalog.h"
#include "storage/partitioner.h"

namespace crackdb {
namespace {

using bench::AttrName;

constexpr Value kDomain = 10'000;
constexpr size_t kRows = 3'000;

using bench::ZipRows;

/// Materializes `spec` through the sharded engine's one entry point (a
/// batch of one).
QueryResult RunSharded(ShardedEngine& sharded, const QuerySpec& spec) {
  const ConsumeSpec materialize = ConsumeSpec::Materialize();
  return std::move(sharded.Execute({&spec, 1}, {&materialize, 1}, {})[0].rows);
}

struct ShardParam {
  std::string kind;
  PartitionSpec::Kind partitioning;
  size_t pool_threads;
};

std::string ParamName(const ::testing::TestParamInfo<ShardParam>& info) {
  std::string name = info.param.kind;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  name += info.param.partitioning == PartitionSpec::Kind::kRange ? "_range"
                                                                 : "_hash";
  name += info.param.pool_threads > 0 ? "_pool" : "_inline";
  return name;
}

std::vector<ShardParam> AllParams() {
  std::vector<ShardParam> params;
  for (const EngineKindEntry& entry : kEngineKinds) {
    params.push_back({entry.name, PartitionSpec::Kind::kRange, 2});
    params.push_back({entry.name, PartitionSpec::Kind::kHash, 0});
  }
  // Both partitioning kinds x both execution modes for the paper's
  // headline engine.
  params.push_back({"sideways", PartitionSpec::Kind::kRange, 0});
  params.push_back({"sideways", PartitionSpec::Kind::kHash, 2});
  return params;
}

PartitionSpec SpecFor(PartitionSpec::Kind kind) {
  PartitionSpec spec;
  spec.kind = kind;
  // Odd counts exercise the uneven range-slice remainder.
  spec.num_partitions = kind == PartitionSpec::Kind::kRange ? 7 : 5;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = kDomain;
  return spec;
}

class ShardedEngineTest : public ::testing::TestWithParam<ShardParam> {
 protected:
  void SetUp() override {
    Rng rng(1234);
    source_ = &bench::CreateUniformRelation(&catalog_, "R", 5, kRows, kDomain,
                                            &rng);
    // Pre-partition updates so tombstone replication is on the test path.
    bench::ApplyRandomUpdates(source_, kDomain, 200, &rng);

    parts_ = std::make_unique<PartitionedRelation>(Partitioner::Partition(
        &catalog_, *source_, SpecFor(GetParam().partitioning)));
    if (GetParam().pool_threads > 0) {
      pool_ = std::make_unique<ThreadPool>(GetParam().pool_threads);
    }
    sharded_ = std::make_unique<ShardedEngine>(
        *parts_, MakeEngineFactory(GetParam().kind), pool_.get());
    unsharded_ = MakeEngine(GetParam().kind, *source_);
    ASSERT_NE(unsharded_, nullptr);
  }

  void ExpectSameAnswer(const QuerySpec& spec, const std::string& context) {
    PlainEngine plain(*source_);
    const auto expected = ZipRows(plain.Run(spec));
    ASSERT_EQ(ZipRows(unsharded_->Run(spec)), expected)
        << context << " (unsharded reference disagrees with plain)";
    ASSERT_EQ(ZipRows(RunSharded(*sharded_, spec)), expected) << context;
  }

  Catalog catalog_;
  Relation* source_ = nullptr;
  std::unique_ptr<PartitionedRelation> parts_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ShardedEngine> sharded_;
  std::unique_ptr<Engine> unsharded_;
};

TEST_P(ShardedEngineTest, MatchesUnshardedAcrossQueryShapes) {
  Rng rng(99);
  for (int q = 0; q < 10; ++q) {
    QuerySpec spec;
    spec.selections = {
        {AttrName(1), bench::RandomRange(&rng, 1, kDomain, 0.2)},
        {AttrName(2), bench::RandomRange(&rng, 1, kDomain, 0.5)}};
    spec.projections = {AttrName(3), AttrName(4)};
    ExpectSameAnswer(spec, "conjunctive query " + std::to_string(q));
  }

  QuerySpec disjunctive;
  disjunctive.disjunctive = true;
  disjunctive.selections = {{AttrName(1), RangePredicate::Closed(1, 800)},
                            {AttrName(2), RangePredicate::Closed(100, 2'000)}};
  disjunctive.projections = {AttrName(5)};
  ExpectSameAnswer(disjunctive, "disjunctive query");

  QuerySpec point;
  point.selections = {{AttrName(1), RangePredicate::Point(kDomain / 2)}};
  point.projections = {AttrName(2)};
  ExpectSameAnswer(point, "point query on the organizing attribute");

  QuerySpec empty;
  empty.selections = {
      {AttrName(1), RangePredicate::Open(kDomain + 10, kDomain + 20)}};
  empty.projections = {AttrName(2)};
  ExpectSameAnswer(empty, "empty range beyond the domain");

  QuerySpec scan_all;
  scan_all.projections = {AttrName(1), AttrName(5)};
  ExpectSameAnswer(scan_all, "selection-free scan");
}

TEST_P(ShardedEngineTest, TracksMirroredUpdates) {
  Rng rng(7);
  // Warm the cracked structures first so updates land on organized state.
  QuerySpec warm;
  warm.selections = {{AttrName(1), RangePredicate::Closed(1, kDomain / 3)}};
  warm.projections = {AttrName(2)};
  ExpectSameAnswer(warm, "warm-up");

  for (int batch = 0; batch < 6; ++batch) {
    // Global keys equal source keys, so the same update stream can be
    // mirrored 1:1 into the partitioned relation.
    for (int i = 0; i < 15; ++i) {
      std::vector<Value> row(source_->num_columns());
      for (Value& v : row) v = rng.Uniform(1, kDomain);
      const Key source_key = source_->AppendRow(row);
      const Key global_key = parts_->Append(row);
      ASSERT_EQ(source_key, global_key);
    }
    for (int i = 0; i < 8; ++i) {
      const Key victim = static_cast<Key>(
          rng.Uniform(0, static_cast<Value>(source_->num_rows()) - 1));
      const bool was_live = !source_->IsDeleted(victim);
      source_->DeleteRow(victim);
      ASSERT_EQ(parts_->Delete(victim), was_live);
    }
    QuerySpec spec;
    spec.selections = {
        {AttrName(1), bench::RandomRange(&rng, 1, kDomain, 0.25)},
        {AttrName(3), bench::RandomRange(&rng, 1, kDomain, 0.6)}};
    spec.projections = {AttrName(2), AttrName(4)};
    ExpectSameAnswer(spec, "post-update batch " + std::to_string(batch));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ShardedEngineTest,
                         ::testing::ValuesIn(AllParams()), ParamName);

TEST(PartitionerTest, RangeRoutingClampsAndCoversDomain) {
  Catalog catalog;
  Rng rng(5);
  Relation& source =
      bench::CreateUniformRelation(&catalog, "S", 2, 500, 1'000, &rng);
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = 4;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = 1'000;
  PartitionedRelation parts = Partitioner::Partition(&catalog, source, spec);

  EXPECT_EQ(parts.PartitionOf(kMinValue), 0u);  // clamped below
  EXPECT_EQ(parts.PartitionOf(kMaxValue), 3u);  // clamped above
  size_t last = 0;
  for (Value v = 1; v <= 1'000; ++v) {
    const size_t p = parts.PartitionOf(v);
    ASSERT_GE(p, last) << "range routing must be monotone, value " << v;
    last = p;
  }
  EXPECT_EQ(last, 3u);

  // Slice bounds: a predicate inside one slice targets only it; the edge
  // partitions absorb out-of-domain ranges.
  EXPECT_TRUE(parts.MayContain(0, RangePredicate::Closed(-50, -10)));
  EXPECT_FALSE(parts.MayContain(1, RangePredicate::Closed(-50, -10)));
  EXPECT_TRUE(parts.MayContain(3, RangePredicate::Closed(5'000, 6'000)));
  EXPECT_FALSE(parts.MayContain(2, RangePredicate::Closed(5'000, 6'000)));
  int holders = 0;
  for (size_t i = 0; i < parts.num_partitions(); ++i) {
    if (parts.MayContain(i, RangePredicate::Point(500))) ++holders;
  }
  EXPECT_EQ(holders, 1);

  // Empty predicates match nowhere.
  for (size_t i = 0; i < parts.num_partitions(); ++i) {
    EXPECT_FALSE(parts.MayContain(i, RangePredicate::Open(10, 11)));
    EXPECT_FALSE(parts.MayContain(i, RangePredicate{20, 10, true, true}));
  }
}

TEST(PartitionerTest, MorePartitionsThanDomainValuesStaysCorrect) {
  // Degenerate range spec: an 8-way split of a 4-value domain leaves
  // trailing zero-width slices that no clamped value can route into; the
  // +inf widening must follow the slice holding domain_hi, not index n-1.
  Catalog catalog;
  Relation& source = catalog.CreateRelation("D");
  source.AddColumn(AttrName(1));
  source.AddColumn(AttrName(2));
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    // Organizing values straddle the domain on both sides.
    const Value row[] = {rng.Uniform(-10, 210), rng.Uniform(1, 1'000)};
    source.BulkLoadRow(row);
  }
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = 8;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = 4;
  PartitionedRelation parts = Partitioner::Partition(&catalog, source, spec);

  // Every routable value must land in a partition MayContain admits.
  for (Value v = -10; v <= 210; ++v) {
    const size_t p = parts.PartitionOf(v);
    EXPECT_TRUE(parts.MayContain(p, RangePredicate::Point(v))) << v;
  }

  ShardedEngine sharded(parts, MakeEngineFactory("sideways"), nullptr);
  PlainEngine plain(source);
  const RangePredicate probes[] = {
      RangePredicate::Closed(50, 200),  // entirely above the domain
      RangePredicate::Closed(-5, 0),    // entirely below
      RangePredicate::Closed(2, 3),     // inside
      RangePredicate::Closed(-5, 210),  // spanning everything
  };
  for (const RangePredicate& pred : probes) {
    QuerySpec spec2;
    spec2.selections = {{AttrName(1), pred}};
    spec2.projections = {AttrName(2)};
    EXPECT_EQ(ZipRows(RunSharded(sharded, spec2)), ZipRows(plain.Run(spec2)))
        << pred.ToString();
  }
}

TEST(PartitionerTest, HashRoutingPrunesPointsAndBalances) {
  Catalog catalog;
  Rng rng(6);
  Relation& source =
      bench::CreateUniformRelation(&catalog, "H", 2, 2'000, 100'000, &rng);
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kHash;
  spec.num_partitions = 8;
  spec.column = AttrName(1);
  PartitionedRelation parts = Partitioner::Partition(&catalog, source, spec);

  size_t total = 0;
  for (size_t i = 0; i < parts.num_partitions(); ++i) {
    const size_t rows = parts.partition(i).num_rows();
    total += rows;
    // Mixed hashing over 2000 uniform rows: no partition should be
    // starved or hold the majority.
    EXPECT_GT(rows, 2'000u / 8 / 4) << "partition " << i;
    EXPECT_LT(rows, 2'000u / 2) << "partition " << i;
  }
  EXPECT_EQ(total, source.num_rows());

  int holders = 0;
  for (size_t i = 0; i < parts.num_partitions(); ++i) {
    if (parts.MayContain(i, RangePredicate::Point(777))) ++holders;
  }
  EXPECT_EQ(holders, 1);
  EXPECT_TRUE(parts.MayContain(0, RangePredicate::Closed(1, 10)));
}

TEST(ShardedPruningTest, RangeShardsPruneOrganizingSelections) {
  Catalog catalog;
  Rng rng(11);
  Relation& source =
      bench::CreateUniformRelation(&catalog, "P", 3, 2'000, 1'000, &rng);
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = 10;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = 1'000;
  PartitionedRelation parts = Partitioner::Partition(&catalog, source, spec);
  ShardedEngine sharded(parts, MakeEngineFactory("sideways"), nullptr);

  QuerySpec narrow;
  narrow.selections = {{AttrName(1), RangePredicate::Closed(120, 180)},
                       {AttrName(2), RangePredicate::Closed(1, 900)}};
  narrow.projections = {AttrName(3)};
  const std::vector<size_t> targets = sharded.TargetPartitions(narrow);
  EXPECT_LE(targets.size(), 2u) << "a 60-value range spans at most 2 slices";

  // Selections on non-organizing attributes cannot prune.
  QuerySpec other;
  other.selections = {{AttrName(2), RangePredicate::Closed(120, 180)}};
  other.projections = {AttrName(3)};
  EXPECT_EQ(sharded.TargetPartitions(other).size(), parts.num_partitions());

  // Disjunctions prune only when every disjunct is on the organizing
  // attribute.
  QuerySpec disj;
  disj.disjunctive = true;
  disj.selections = {{AttrName(1), RangePredicate::Closed(1, 50)},
                     {AttrName(1), RangePredicate::Closed(900, 1'000)}};
  disj.projections = {AttrName(3)};
  EXPECT_LT(sharded.TargetPartitions(disj).size(), parts.num_partitions());

  PlainEngine plain(source);
  EXPECT_EQ(ZipRows(RunSharded(sharded, narrow)), ZipRows(plain.Run(narrow)));
  EXPECT_EQ(ZipRows(RunSharded(sharded, disj)), ZipRows(plain.Run(disj)));
}

// The ThreadPool's own behavior (affinity routing, stealing, the nested-
// blocking guard) is pinned down in thread_pool_test.cc.

}  // namespace
}  // namespace crackdb
