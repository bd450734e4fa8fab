// The fluent query API and its pushed-down consumption modes:
//  - builder-compiled specs are row-for-row identical to raw QuerySpecs
//    across every engine kind, sharded and unsharded;
//  - Count()/Aggregate() equal a materialize-then-fold oracle and report
//    exactly zero reconstruction cost;
//  - ForEach() streams precisely the rows Materialize() would return;
//  - every validation failure (unknown table/attribute, inverted range,
//    projection-less materialize, mixed connectives) surfaces as a clear
//    Expected error instead of asserting inside an engine;
//  - the modes stay consistent under a concurrent write storm (the
//    `concurrency` label runs this under TSan in CI).

#include "engine/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/workload.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/engine_factory.h"
#include "engine/plain_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

using bench::AttrName;
using bench::ZipRows;

constexpr Value kDomain = 2'000;
constexpr size_t kRows = 2'000;

struct Fold {
  size_t count = 0;
  Value sum = 0;
  Value min = 0;
  Value max = 0;
  bool any = false;
};

Fold FoldColumn(const std::vector<Value>& column) {
  Fold f;
  f.count = column.size();
  bool sum_any = false, min_any = false, max_any = false;
  for (const Value v : column) {
    FoldValue(AggregateOp::kSum, v, &f.sum, &sum_any);
    FoldValue(AggregateOp::kMin, v, &f.min, &min_any);
    FoldValue(AggregateOp::kMax, v, &f.max, &max_any);
  }
  f.any = sum_any;
  return f;
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

// The registry's cumulative reconstruction charge (process-global, so
// callers take deltas).
double ReconstructMicrosTotal() {
  return obs::MetricsRegistry::Global()
      .GetCounter("engine_reconstruct_micros_total")
      .value();
}

// The fluent chain that builds the same query as the hand-assembled `raw`.
QueryBuilder BuilderFor(const Query& raw, Database* db) {
  QueryBuilder builder(raw.table, db);
  for (const QuerySpec::Selection& sel : raw.spec.selections) {
    builder.Where(sel.attr, sel.pred);
  }
  builder.Project(raw.spec.projections);
  const ConsumeSpec& consume = raw.consume;
  switch (consume.kind) {
    case ConsumeKind::kCount:
      builder.Count();
      break;
    case ConsumeKind::kAggregate:
      builder.Aggregate(consume.op, consume.attr);
      break;
    case ConsumeKind::kGroupBy:
      builder.GroupBy(consume.group_attr);
      for (const GroupAggregate& agg : consume.group_aggs) {
        builder.Aggregate(agg.op, agg.attr);
      }
      break;
    case ConsumeKind::kForEach:
      builder.ForEach(consume.visitor);
      break;
    case ConsumeKind::kMaterialize:
      builder.Materialize();
      break;
  }
  return builder;
}

class QueryApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1234);
    source_ =
        &bench::CreateUniformRelation(&catalog_, "R", 4, kRows, kDomain, &rng);
  }

  std::unique_ptr<Database> MakeDb(const std::string& kind) {
    DatabaseOptions options;
    options.pool_threads = 2;
    auto db = std::make_unique<Database>(options);
    db->RegisterSharded("R", *source_, RangeShards(4), kind);
    return db;
  }

  Catalog catalog_;
  Relation* source_ = nullptr;
};

// ---------------------------------------------------------------------------
// Builder compilation
// ---------------------------------------------------------------------------

TEST_F(QueryApiTest, BuilderCompilesExactlyToRawSpec) {
  QuerySpec raw;
  raw.selections = {{AttrName(1), RangePredicate::Closed(10, 500)},
                    {AttrName(2), RangePredicate::Open(3, 900)}};
  raw.projections = {AttrName(3), AttrName(4)};

  QueryBuilder builder("R");
  builder.Where(AttrName(1), 10, 500)
      .Where(AttrName(2), RangePredicate::Open(3, 900))
      .Project(AttrName(3), AttrName(4));
  const Query compiled = builder.Build();
  EXPECT_TRUE(compiled.error.empty()) << compiled.error;
  EXPECT_EQ(compiled.table, "R");
  EXPECT_EQ(compiled.consume.kind, ConsumeKind::kMaterialize);
  ASSERT_EQ(compiled.spec.selections.size(), raw.selections.size());
  for (size_t i = 0; i < raw.selections.size(); ++i) {
    EXPECT_EQ(compiled.spec.selections[i].attr, raw.selections[i].attr);
    EXPECT_EQ(compiled.spec.selections[i].pred, raw.selections[i].pred);
  }
  EXPECT_EQ(compiled.spec.projections, raw.projections);
  EXPECT_FALSE(compiled.spec.disjunctive);
}

TEST_F(QueryApiTest, OrWhereCompilesDisjunctive) {
  QueryBuilder builder;
  builder.Where(AttrName(1), 1, 100)
      .OrWhere(AttrName(2), 500, 600)
      .Project(AttrName(3));
  const Query compiled = builder.Build();
  EXPECT_TRUE(compiled.error.empty()) << compiled.error;
  EXPECT_TRUE(compiled.spec.disjunctive);
  EXPECT_EQ(compiled.spec.selections.size(), 2u);
}

// ---------------------------------------------------------------------------
// Validation hardening: every failure mode is a clear error, not a crash.
// ---------------------------------------------------------------------------

TEST_F(QueryApiTest, InvertedRangeIsAnError) {
  auto db = MakeDb("plain");
  auto result =
      db->From("R").Where(AttrName(1), 500, 10).Project(AttrName(2)).Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("inverted range"), std::string::npos)
      << result.error();
  // The builder records it immediately, too.
  QueryBuilder builder;
  builder.Where(AttrName(1), RangePredicate::Closed(500, 10));
  EXPECT_FALSE(builder.error().empty());
}

TEST_F(QueryApiTest, UnknownTableIsAnError) {
  auto db = MakeDb("plain");
  auto result =
      db->From("nope").Where(AttrName(1), 1, 10).Count().Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("unknown table 'nope'"), std::string::npos)
      << result.error();
}

// Writes and adaptive ticks on an unknown table fail soft too: no public
// call aborts the process on a bad table name.

TEST_F(QueryApiTest, InsertIntoUnknownTableReturnsInvalidKey) {
  auto db = MakeDb("plain");
  const Value row[] = {1, 2, 3, 4};
  EXPECT_EQ(db->Insert("nope", row), kInvalidKey);
  EXPECT_EQ(db->Stats("R").inserts, 0u);
}

TEST_F(QueryApiTest, DeleteFromUnknownTableReturnsFalse) {
  auto db = MakeDb("plain");
  EXPECT_FALSE(db->Delete("nope", Key{0}));
  EXPECT_EQ(db->Stats("R").live_rows, kRows);
}

TEST_F(QueryApiTest, ApplyBatchOnUnknownTableFailsEveryOp) {
  auto db = MakeDb("plain");
  const std::vector<WriteOp> ops = {WriteOp::MakeInsert({1, 2, 3, 4}),
                                    WriteOp::MakeDelete(Key{0})};
  const std::vector<WriteOutcome> outcomes = db->ApplyBatch("nope", ops);
  ASSERT_EQ(outcomes.size(), ops.size());
  for (const WriteOutcome& outcome : outcomes) {
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.key, kInvalidKey);
  }
}

TEST_F(QueryApiTest, MaybeRepartitionOnUnknownTableReturnsFalse) {
  auto db = MakeDb("plain");
  EXPECT_FALSE(db->MaybeRepartition("nope"));
}

// Registration fails soft as well: every rejected input comes back as an
// Expected error before the catalog or the table list changes.

std::vector<std::string> Sorted(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  return names;
}

/// Registers `table` expecting a rejection; returns the error message after
/// checking that the database's catalog and tables are unchanged.
std::string RegisterRejected(Database& db, const std::string& table,
                             const Relation& source, const PartitionSpec& spec,
                             const std::string& kind) {
  const std::vector<std::string> relations =
      Sorted(db.catalog().relation_names());
  const std::vector<std::string> tables = Sorted(db.table_names());
  const Expected<size_t> result = db.RegisterSharded(table, source, spec, kind);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(Sorted(db.catalog().relation_names()), relations);
  EXPECT_EQ(Sorted(db.table_names()), tables);
  return result.ok() ? "" : result.error();
}

TEST_F(QueryApiTest, RegisterShardedReportsItsPartitions) {
  Database db(DatabaseOptions{.pool_threads = 0});
  const Expected<size_t> result =
      db.RegisterSharded("R", *source_, RangeShards(3), "plain");
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(*result, 3u);
}

TEST_F(QueryApiTest, UnknownEngineKindIsARegistrationError) {
  auto db = MakeDb("plain");
  const std::string error =
      RegisterRejected(*db, "T", *source_, RangeShards(2), "nope");
  EXPECT_NE(error.find("unknown engine kind 'nope'"), std::string::npos)
      << error;
}

TEST_F(QueryApiTest, DuplicateTableIsARegistrationError) {
  auto db = MakeDb("plain");
  Rng rng(7);
  const Relation& other =
      bench::CreateUniformRelation(&catalog_, "S", 4, 100, kDomain, &rng);
  const std::string error =
      RegisterRejected(*db, "R", other, RangeShards(2), "plain");
  EXPECT_NE(error.find("table 'R' already exists"), std::string::npos)
      << error;
}

TEST_F(QueryApiTest, UnknownOrganizingColumnIsARegistrationError) {
  Database db(DatabaseOptions{.pool_threads = 0});
  PartitionSpec spec = RangeShards(2);
  spec.column = "nope";
  const std::string error = RegisterRejected(db, "R", *source_, spec, "plain");
  EXPECT_NE(error.find("unknown organizing column 'nope'"), std::string::npos)
      << error;
}

TEST_F(QueryApiTest, ZeroPartitionsIsARegistrationError) {
  Database db(DatabaseOptions{.pool_threads = 0});
  const std::string error =
      RegisterRejected(db, "R", *source_, RangeShards(0), "plain");
  EXPECT_NE(error.find("num_partitions"), std::string::npos) << error;
}

TEST_F(QueryApiTest, InvertedRangeDomainIsARegistrationError) {
  Database db(DatabaseOptions{.pool_threads = 0});
  PartitionSpec spec = RangeShards(2);
  spec.domain_lo = kDomain;
  spec.domain_hi = 1;
  const std::string error = RegisterRejected(db, "R", *source_, spec, "plain");
  EXPECT_NE(error.find("domain_lo <= domain_hi"), std::string::npos) << error;
}

TEST_F(QueryApiTest, ResharingASourceIsARegistrationError) {
  // A second table over the same source would reuse its partition names.
  auto db = MakeDb("plain");
  const std::string error =
      RegisterRejected(*db, "T", *source_, RangeShards(2), "plain");
  EXPECT_NE(error.find("'R#p0' already exists"), std::string::npos) << error;
}

TEST_F(QueryApiTest, UnknownAttributeIsAnError) {
  auto db = MakeDb("plain");
  // In a selection.
  auto sel = db->From("R").Where("bogus", 1, 10).Count().Execute();
  ASSERT_FALSE(sel.ok());
  EXPECT_NE(sel.error().find("unknown attribute 'bogus'"), std::string::npos);
  // In a projection.
  auto proj =
      db->From("R").Where(AttrName(1), 1, 10).Project("ghost").Execute();
  ASSERT_FALSE(proj.ok());
  EXPECT_NE(proj.error().find("unknown attribute 'ghost'"),
            std::string::npos);
  // In an aggregate.
  auto agg = db->From("R")
                 .Where(AttrName(1), 1, 10)
                 .Aggregate(AggregateOp::kSum, "phantom")
                 .Execute();
  ASSERT_FALSE(agg.ok());
  EXPECT_NE(agg.error().find("unknown attribute 'phantom'"),
            std::string::npos);
}

TEST_F(QueryApiTest, MixedConnectivesIsAnError) {
  QueryBuilder builder;
  builder.Where(AttrName(1), 1, 10)
      .Where(AttrName(2), 1, 10)
      .OrWhere(AttrName(3), 1, 10);
  EXPECT_NE(builder.error().find("cannot mix"), std::string::npos)
      << builder.error();
}

TEST_F(QueryApiTest, UnboundExecuteIsAnError) {
  QueryBuilder builder;
  builder.Where(AttrName(1), 1, 10).Count();
  auto result = builder.Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("unbound"), std::string::npos);
}

TEST_F(QueryApiTest, GroupByUnknownAttributesAreErrors) {
  auto db = MakeDb("plain");
  auto bad_key = db->From("R")
                     .Where(AttrName(1), 1, 100)
                     .GroupBy("ghost")
                     .Aggregate(AggregateOp::kSum, AttrName(2))
                     .Execute();
  ASSERT_FALSE(bad_key.ok());
  EXPECT_NE(bad_key.error().find("unknown attribute 'ghost'"),
            std::string::npos);

  auto bad_agg = db->From("R")
                     .Where(AttrName(1), 1, 100)
                     .GroupBy(AttrName(2))
                     .Aggregate(AggregateOp::kMax, "phantom")
                     .Execute();
  ASSERT_FALSE(bad_agg.ok());
  EXPECT_NE(bad_agg.error().find("unknown attribute 'phantom'"),
            std::string::npos);
}

TEST_F(QueryApiTest, HandBuiltQueriesGetTheSameValidationAsBuilt) {
  // Query is a public aggregate; Execute must re-apply the builder's
  // terminal compile step so a hand-assembled query can never reach an
  // engine in a state Build() would have rejected or normalized. Every
  // failure of the step, and every terminal's compiled projections, go
  // through both surfaces: Build() on the fluent chain, and Execute on
  // the hand-built Query. Both must agree. The grouped cases include the
  // two gaps the GroupBy terminal closed: an aggregate of the group key,
  // and a Project() list the grouped pushdown would silently replace.
  auto db = MakeDb("partial");
  using Aggs = std::vector<GroupAggregate>;
  using Names = std::vector<std::string>;
  const auto visitor = [](std::span<const Value>) {};
  struct Case {
    ConsumeSpec consume;
    Names declared;     // the hand-built spec's projections
    std::string error;  // "" = valid
    Names compiled;     // projections after the compile step, when valid
  };
  const std::string a2 = AttrName(2), a3 = AttrName(3), a4 = AttrName(4);
  const std::vector<Case> cases = {
      {ConsumeSpec::Count(), {a3}, "", {}},
      {ConsumeSpec::Aggregate(AggregateOp::kMax, a2), {a3, a4}, "", {a2}},
      // Never declared the folded attribute: the step declares it (the
      // chunk-wise engines' declarations are binding).
      {ConsumeSpec::Aggregate(AggregateOp::kMin, a2), {}, "", {a2}},
      {ConsumeSpec::Aggregate(AggregateOp::kSum, ""), {},
       "Aggregate() requires an attribute", {}},
      {ConsumeSpec::Aggregate(AggregateOp::kCount, a2), {},
       "Aggregate(kCount) is grouped-only", {}},
      {ConsumeSpec::GroupBy("", Aggs{{AggregateOp::kSum, a2}}), {},
       "GroupBy() requires an attribute", {}},
      {ConsumeSpec::GroupBy(a2, {}), {},
       "GroupBy() requires at least one Aggregate()", {}},
      {ConsumeSpec::GroupBy(a2, Aggs{{AggregateOp::kSum, ""}}), {},
       "Aggregate() requires an attribute", {}},
      {ConsumeSpec::GroupBy(a2, Aggs{{AggregateOp::kSum, a2}}), {},
       "aggregate attribute '" + a2 + "' duplicates the group key", {}},
      {ConsumeSpec::GroupBy(a2, Aggs{{AggregateOp::kCount, a2}}), {},
       "aggregate attribute '" + a2 + "' duplicates the group key", {}},
      {ConsumeSpec::GroupBy(a2, Aggs{{AggregateOp::kSum, a3}}), {a4},
       "Project('" + a4 + "', ...) conflicts with GroupBy()", {}},
      {ConsumeSpec::GroupBy(a2, Aggs{{AggregateOp::kSum, a3},
                                     {AggregateOp::kMin, a3},
                                     {AggregateOp::kCount, a4}}),
       {}, "", {a2, a3}},
      // Already compiled: the step is idempotent.
      {ConsumeSpec::GroupBy(a2, Aggs{{AggregateOp::kSum, a3}}), {a2, a3}, "",
       {a2, a3}},
      {ConsumeSpec::ForEach(nullptr), {a2}, "ForEach() requires a visitor",
       {}},
      {ConsumeSpec::ForEach(visitor), {},
       "ForEach() requires at least one projected attribute", {}},
      {ConsumeSpec::ForEach(visitor), {a2, a3}, "", {a2, a3}},
      {ConsumeSpec::Materialize(), {},
       "Materialize() requires at least one projected attribute", {}},
      {ConsumeSpec::Materialize(), {a2, a3}, "", {a2, a3}},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    crackdb::Query by_hand;
    by_hand.table = "R";
    by_hand.spec.selections = {{AttrName(1), RangePredicate::Closed(1, 500)}};
    by_hand.spec.projections = cases[i].declared;
    by_hand.consume = cases[i].consume;
    const Query built = BuilderFor(by_hand, db.get()).Build();
    auto via_builder = db->Execute(built);
    auto via_hand = db->Execute(by_hand);
    if (!cases[i].error.empty()) {
      EXPECT_EQ(built.error.find(cases[i].error), 0u)
          << "case " << i << ": " << built.error;
      ASSERT_FALSE(via_hand.ok() || via_builder.ok()) << "case " << i;
      EXPECT_EQ(via_hand.error(), built.error) << "case " << i;
      EXPECT_EQ(via_builder.error(), built.error) << "case " << i;
      continue;
    }
    EXPECT_TRUE(built.error.empty()) << "case " << i << ": " << built.error;
    EXPECT_EQ(built.spec.projections, cases[i].compiled) << "case " << i;
    ASSERT_TRUE(via_builder.ok() && via_hand.ok()) << "case " << i;
    EXPECT_EQ(via_hand->count, via_builder->count) << "case " << i;
    EXPECT_EQ(via_hand->aggregate, via_builder->aggregate) << "case " << i;
    EXPECT_EQ(via_hand->aggregate_valid,
              cases[i].consume.kind == ConsumeKind::kAggregate)
        << "case " << i;
    EXPECT_EQ(via_builder->aggregate_valid, via_hand->aggregate_valid)
        << "case " << i;
    EXPECT_EQ(via_hand->groups.keys, via_builder->groups.keys) << "case " << i;
    EXPECT_EQ(via_hand->groups.aggregates, via_builder->groups.aggregates)
        << "case " << i;
    EXPECT_EQ(ZipRows(via_hand->rows), ZipRows(via_builder->rows))
        << "case " << i;
  }
}

TEST_F(QueryApiTest, BatchKeepsPerQueryErrorsIsolated) {
  auto db = MakeDb("sideways");
  std::vector<Query> queries;
  queries.push_back(
      db->From("R").Where(AttrName(1), 1, 500).Count().Build());
  queries.push_back(db->From("R").Where("bogus", 1, 10).Count().Build());
  queries.push_back(db->From("R")
                        .Where(AttrName(1), 1, 500)
                        .Project(AttrName(2))
                        .Build());
  std::vector<Expected<ExecuteResult>> results = db->ExecuteBatch(queries);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(results[0]->count, results[2]->rows.num_rows);
}

// ---------------------------------------------------------------------------
// Builder == raw spec, every engine kind, sharded and unsharded. Cracking
// engines evolve state per query, so each arm gets its own engine fed the
// identical sequence.
// ---------------------------------------------------------------------------

TEST_F(QueryApiTest, BuilderMatchesRawSpecAcrossKinds) {
  for (const EngineKindEntry& kind : kEngineKinds) {
    std::unique_ptr<Engine> raw_engine = MakeEngine(kind.name, *source_);
    std::unique_ptr<Engine> built_engine = MakeEngine(kind.name, *source_);
    auto raw_db = MakeDb(kind.name);
    auto built_db = MakeDb(kind.name);
    Rng rng(99);
    for (int q = 0; q < 8; ++q) {
      const Value lo = rng.Uniform(1, kDomain - 100);
      QuerySpec raw;
      raw.selections = {{AttrName(1), RangePredicate::Closed(lo, lo + 100)},
                        {AttrName(2), RangePredicate::Closed(1, kDomain / 2)}};
      raw.projections = {AttrName(3), AttrName(4)};

      QueryBuilder builder;
      builder.Where(AttrName(1), lo, lo + 100)
          .Where(AttrName(2), 1, kDomain / 2)
          .Project(AttrName(3), AttrName(4));
      const QuerySpec built = builder.Spec();

      ASSERT_EQ(ZipRows(raw_engine->Run(raw)),
                ZipRows(built_engine->Run(built)))
          << kind.name << " unsharded diverged at query " << q;

      auto executed = built_db->From("R")
                          .Where(AttrName(1), lo, lo + 100)
                          .Where(AttrName(2), 1, kDomain / 2)
                          .Project(AttrName(3), AttrName(4))
                          .Execute();
      ASSERT_TRUE(executed.ok()) << executed.error();
      ASSERT_EQ(ZipRows(raw_db->Execute({"R", raw})->rows),
                ZipRows(executed->rows))
          << kind.name << " sharded diverged at query " << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Count/Aggregate == materialize-then-fold oracle, every kind, both layers.
// ---------------------------------------------------------------------------

TEST_F(QueryApiTest, CountAndAggregatesEqualOracleAcrossKinds) {
  PlainEngine oracle(*source_);
  for (const EngineKindEntry& kind : kEngineKinds) {
    std::unique_ptr<Engine> engine = MakeEngine(kind.name, *source_);
    auto db = MakeDb(kind.name);
    Rng rng(4242);
    for (int q = 0; q < 6; ++q) {
      const Value lo = rng.Uniform(1, kDomain - 200);
      const Value hi = lo + 200;
      const QuerySpec oracle_spec = QueryBuilder()
                                        .Where(AttrName(1), lo, hi)
                                        .Project(AttrName(2))
                                        .Spec();
      const QueryResult oracle_rows = oracle.Run(oracle_spec);
      const Fold expect = FoldColumn(oracle_rows.columns[0]);

      // Unsharded engine-level Execute.
      {
        const Query count = QueryBuilder().Where(AttrName(1), lo, hi)
                                .Count().Build();
        const ExecuteResult n = engine->Execute(count.spec, count.consume);
        EXPECT_EQ(n.count, expect.count) << kind.name << " count, q" << q;

        const Query sum = QueryBuilder()
                              .Where(AttrName(1), lo, hi)
                              .Aggregate(AggregateOp::kSum, AttrName(2))
                              .Build();
        const ExecuteResult s = engine->Execute(sum.spec, sum.consume);
        EXPECT_EQ(s.aggregate_valid, expect.any) << kind.name;
        if (expect.any) {
          EXPECT_EQ(s.aggregate, expect.sum) << kind.name << " sum, q" << q;
        }
      }
      // Sharded Database-level Execute: the materialized rows the fold
      // reads, then all three ops.
      {
        auto rows = db->From("R")
                        .Where(AttrName(1), lo, hi)
                        .Project(AttrName(2))
                        .Execute();
        ASSERT_TRUE(rows.ok()) << rows.error();
        EXPECT_EQ(ZipRows(rows->rows), ZipRows(oracle_rows))
            << kind.name << " db rows, q" << q;

        auto n = db->From("R").Where(AttrName(1), lo, hi).Count().Execute();
        ASSERT_TRUE(n.ok()) << n.error();
        EXPECT_EQ(n->count, expect.count) << kind.name << " db count";
        struct OpCase {
          AggregateOp op;
          Value expected;
        };
        const OpCase cases[] = {{AggregateOp::kSum, expect.sum},
                                {AggregateOp::kMin, expect.min},
                                {AggregateOp::kMax, expect.max}};
        for (const OpCase& c : cases) {
          auto agg = db->From("R")
                         .Where(AttrName(1), lo, hi)
                         .Aggregate(c.op, AttrName(2))
                         .Execute();
          ASSERT_TRUE(agg.ok()) << agg.error();
          EXPECT_EQ(agg->count, expect.count) << kind.name;
          EXPECT_EQ(agg->aggregate_valid, expect.any) << kind.name;
          if (expect.any) {
            EXPECT_EQ(agg->aggregate, c.expected)
                << kind.name << " op " << static_cast<int>(c.op);
          }
        }
      }
    }
  }
}

TEST_F(QueryApiTest, EmptySelectionAggregatesReportInvalid) {
  auto db = MakeDb("sideways");
  // A range below the whole domain: zero qualifying rows.
  auto count = db->From("R")
                   .Where(AttrName(1), RangePredicate::Closed(-500, -100))
                   .Count()
                   .Execute();
  ASSERT_TRUE(count.ok()) << count.error();
  EXPECT_EQ(count->count, 0u);
  auto sum = db->From("R")
                 .Where(AttrName(1), RangePredicate::Closed(-500, -100))
                 .Aggregate(AggregateOp::kSum, AttrName(2))
                 .Execute();
  ASSERT_TRUE(sum.ok()) << sum.error();
  EXPECT_EQ(sum->count, 0u);
  EXPECT_FALSE(sum->aggregate_valid);
  EXPECT_EQ(sum->aggregate, 0);
}

// ---------------------------------------------------------------------------
// ForEach streams exactly the rows Materialize would return.
// ---------------------------------------------------------------------------

TEST_F(QueryApiTest, ForEachStreamsExactlyTheMaterializedRows) {
  for (const char* kind : {"plain", "sideways", "partial"}) {
    std::unique_ptr<Engine> engine = MakeEngine(kind, *source_);
    auto db = MakeDb(kind);
    Rng rng(777);
    for (int q = 0; q < 4; ++q) {
      const Value lo = rng.Uniform(1, kDomain - 300);
      auto materialized = db->From("R")
                              .Where(AttrName(1), lo, lo + 300)
                              .Project(AttrName(2), AttrName(3))
                              .Execute();
      ASSERT_TRUE(materialized.ok()) << materialized.error();

      std::multiset<std::vector<Value>> streamed;
      auto visited = db->From("R")
                         .Where(AttrName(1), lo, lo + 300)
                         .Project(AttrName(2), AttrName(3))
                         .ForEach([&streamed](std::span<const Value> row) {
                           streamed.insert({row.begin(), row.end()});
                         })
                         .Execute();
      ASSERT_TRUE(visited.ok()) << visited.error();
      EXPECT_EQ(visited->count, materialized->rows.num_rows) << kind;
      EXPECT_EQ(streamed, ZipRows(materialized->rows)) << kind;

      // Unsharded engine-level ForEach agrees too.
      std::multiset<std::vector<Value>> unsharded;
      QueryBuilder builder;
      builder.Where(AttrName(1), lo, lo + 300)
          .Project(AttrName(2), AttrName(3))
          .ForEach([&unsharded](std::span<const Value> row) {
            unsharded.insert({row.begin(), row.end()});
          });
      const Query compiled = builder.Build();
      const ExecuteResult r = engine->Execute(compiled.spec, compiled.consume);
      EXPECT_EQ(r.count, materialized->rows.num_rows) << kind;
      EXPECT_EQ(unsharded, streamed) << kind;
    }
  }
}

// ---------------------------------------------------------------------------
// Cost attribution: scalar modes reconstruct nothing, anywhere.
// ---------------------------------------------------------------------------

TEST_F(QueryApiTest, ScalarModesReportZeroReconstruction) {
  for (const char* kind : {"plain", "selection-cracking", "sideways",
                           "partial", "row"}) {
    auto db = MakeDb(kind);
    const double base_reconstruct = ReconstructMicrosTotal();
    Rng rng(31);
    for (int q = 0; q < 5; ++q) {
      const Value lo = rng.Uniform(1, kDomain - 150);
      auto count =
          db->From("R").Where(AttrName(1), lo, lo + 150).Count().Execute();
      ASSERT_TRUE(count.ok()) << count.error();
      EXPECT_EQ(count->cost.reconstruct_micros, 0.0) << kind;
      EXPECT_GT(count->count, 0u) << kind;  // selective but non-empty

      auto sum = db->From("R")
                     .Where(AttrName(1), lo, lo + 150)
                     .Aggregate(AggregateOp::kSum, AttrName(2))
                     .Trace()
                     .Execute();
      ASSERT_TRUE(sum.ok()) << sum.error();
      EXPECT_EQ(sum->cost.reconstruct_micros, 0.0) << kind;
      // Re-asserted through the span timeline: a scalar fold records no
      // tuple-reconstruction ("fetch") span in any partition.
      ASSERT_NE(sum->trace, nullptr) << kind;
      for (const obs::TraceSpan& s : sum->trace->Spans()) {
        EXPECT_NE(s.name, "fetch") << kind;
      }
    }
    // The registry's cumulative total agrees: nothing but scalar modes
    // ran over the loop, so it charged exactly zero reconstruction.
    EXPECT_EQ(ReconstructMicrosTotal() - base_reconstruct, 0.0) << kind;
    // A materialized control query does charge reconstruction.
    auto rows =
        db->From("R").Where(AttrName(1), 1, kDomain).Project(AttrName(2))
            .Execute();
    ASSERT_TRUE(rows.ok());
    EXPECT_GT(rows->cost.reconstruct_micros, 0.0) << kind;
  }
}

// ---------------------------------------------------------------------------
// The storm: consumption modes under concurrent writes (TSan in CI).
// Within one ExecuteBatch, every partition serves the whole batch under a
// single lock acquisition, so a count, a sum, and a materialize of the
// same predicate in one batch must agree exactly even mid-storm.
// ---------------------------------------------------------------------------

TEST_F(QueryApiTest, ConsumptionModesAgreeUnderConcurrentWrites) {
  for (const char* kind : {"selection-cracking", "sideways", "partial"}) {
    Catalog catalog;
    Rng data_rng(555);
    Relation& mirror =
        bench::CreateUniformRelation(&catalog, "R", 4, kRows, kDomain,
                                     &data_rng);
    DatabaseOptions options;
    options.pool_threads = 2;
    Database db(options);
    db.RegisterSharded("R", mirror, RangeShards(5), kind);

    constexpr size_t kThreads = 4;
    struct RecordedInsert {
      std::vector<Value> values;
      bool deleted = false;
    };
    std::vector<std::vector<RecordedInsert>> recorded(kThreads);
    std::vector<std::string> failures(kThreads);

    std::vector<std::thread> clients;
    for (size_t tid = 0; tid < kThreads; ++tid) {
      clients.emplace_back([&, tid] {
        Rng rng(8800 + tid);
        std::vector<std::pair<Key, size_t>> own_live;
        for (int round = 0; round < 15; ++round) {
          const Value lo = rng.Uniform(1, kDomain - 200);
          const Value hi = lo + 200;
          // One batch, three modes, one predicate: partition-consistent.
          std::vector<Query> queries;
          queries.push_back(
              db.From("R").Where(AttrName(1), lo, hi).Count().Build());
          queries.push_back(db.From("R")
                                .Where(AttrName(1), lo, hi)
                                .Aggregate(AggregateOp::kSum, AttrName(2))
                                .Build());
          queries.push_back(db.From("R")
                                .Where(AttrName(1), lo, hi)
                                .Project(AttrName(2))
                                .Build());
          std::vector<Expected<ExecuteResult>> results =
              db.ExecuteBatch(queries);
          if (!results[0].ok() || !results[1].ok() || !results[2].ok()) {
            failures[tid] = "batch error in thread " + std::to_string(tid);
            return;
          }
          const Fold fold = FoldColumn(results[2]->rows.columns[0]);
          if (results[0]->count != fold.count ||
              results[1]->count != fold.count ||
              results[1]->aggregate_valid != fold.any ||
              (fold.any && results[1]->aggregate != fold.sum) ||
              results[0]->cost.reconstruct_micros != 0 ||
              results[1]->cost.reconstruct_micros != 0) {
            failures[tid] =
                "modes diverged mid-storm in thread " + std::to_string(tid);
            return;
          }
          // A streaming query: the visitor must fire exactly count times.
          size_t visited = 0;
          auto foreach_result =
              db.From("R")
                  .Where(AttrName(1), lo, hi)
                  .Project(AttrName(3))
                  .ForEach([&visited](std::span<const Value>) { ++visited; })
                  .Execute();
          if (!foreach_result.ok() || foreach_result->count != visited) {
            failures[tid] =
                "visitor count diverged in thread " + std::to_string(tid);
            return;
          }
          // Mixed writes: inserts plus deletes of own earlier rows only,
          // so a serial replay stays a valid oracle.
          const double dice = rng.NextDouble();
          if (dice < 0.7 || own_live.empty()) {
            std::vector<Value> row(mirror.num_columns());
            for (Value& v : row) v = rng.Uniform(1, kDomain);
            const Key key = db.Insert("R", row);
            own_live.push_back({key, recorded[tid].size()});
            recorded[tid].push_back({std::move(row), false});
          } else {
            const size_t pick = static_cast<size_t>(
                rng.Uniform(0, static_cast<Value>(own_live.size()) - 1));
            const auto [key, slot] = own_live[pick];
            if (!db.Delete("R", key)) {
              failures[tid] =
                  "delete of own key failed in thread " + std::to_string(tid);
              return;
            }
            recorded[tid][slot].deleted = true;
            own_live.erase(own_live.begin() + static_cast<long>(pick));
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    for (const std::string& failure : failures) {
      ASSERT_TRUE(failure.empty()) << kind << ": " << failure;
    }

    // Serial replay oracle: final counts/sums equal a plain scan of the
    // replayed source.
    for (const auto& thread_log : recorded) {
      for (const RecordedInsert& rec : thread_log) {
        const Key key = mirror.AppendRow(rec.values);
        if (rec.deleted) mirror.DeleteRow(key);
      }
    }
    PlainEngine reference(mirror);
    const QuerySpec oracle_spec = QueryBuilder()
                                      .Where(AttrName(1), 1, kDomain)
                                      .Project(AttrName(2))
                                      .Spec();
    const Fold expect = FoldColumn(reference.Run(oracle_spec).columns[0]);
    auto final_count =
        db.From("R").Where(AttrName(1), 1, kDomain).Count().Execute();
    ASSERT_TRUE(final_count.ok());
    EXPECT_EQ(final_count->count, expect.count) << kind;
    auto final_sum = db.From("R")
                         .Where(AttrName(1), 1, kDomain)
                         .Aggregate(AggregateOp::kSum, AttrName(2))
                         .Execute();
    ASSERT_TRUE(final_sum.ok());
    EXPECT_EQ(final_sum->aggregate, expect.sum) << kind;
  }
}

}  // namespace
}  // namespace crackdb
