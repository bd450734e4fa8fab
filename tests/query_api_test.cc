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

TEST_F(QueryApiTest, CountCompilesToProjectionFreeSpec) {
  QueryBuilder builder;
  builder.Where(AttrName(1), 1, 100).Project(AttrName(3)).Count();
  const Query compiled = builder.Build();
  EXPECT_TRUE(compiled.error.empty());
  // The pushdown: a count declares no projections at all, so chunk-wise
  // engines materialize nothing.
  EXPECT_TRUE(compiled.spec.projections.empty());
  EXPECT_EQ(compiled.consume.kind, ConsumeKind::kCount);
}

TEST_F(QueryApiTest, AggregateCompilesToSingleProjection) {
  QueryBuilder builder;
  builder.Where(AttrName(1), 1, 100)
      .Project(AttrName(3), AttrName(4))
      .Aggregate(AggregateOp::kMin, AttrName(2));
  const Query compiled = builder.Build();
  EXPECT_TRUE(compiled.error.empty());
  // Exactly the folded attribute is declared — nothing else will ever be
  // materialized by engines with binding projection declarations.
  EXPECT_EQ(compiled.spec.projections,
            std::vector<std::string>{AttrName(2)});
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

TEST_F(QueryApiTest, MaterializeWithoutProjectionIsAnError) {
  auto db = MakeDb("plain");
  auto result = db->From("R").Where(AttrName(1), 1, 10).Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("Materialize()"), std::string::npos)
      << result.error();
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

TEST_F(QueryApiTest, ForEachWithoutVisitorOrProjectionIsAnError) {
  QueryBuilder no_visitor;
  no_visitor.Where(AttrName(1), 1, 10).Project(AttrName(2));
  no_visitor.ForEach(nullptr);
  EXPECT_FALSE(no_visitor.Build().error.empty());

  QueryBuilder no_projection;
  no_projection.Where(AttrName(1), 1, 10)
      .ForEach([](std::span<const Value>) {});
  EXPECT_FALSE(no_projection.Build().error.empty());
}

// The grouped-terminal validation matrix. Regression coverage for the
// latent gap the GroupBy terminal closed: the builder must reject an
// aggregate attribute that duplicates the group key, and an explicit
// Project() list that conflicts with the grouped pushdown (the grouped
// result only ever carries the key and aggregate columns, so the
// projection's attrs would be silently cleared).
TEST_F(QueryApiTest, GroupByAggregateOfGroupKeyIsAnError) {
  QueryBuilder builder;
  builder.Where(AttrName(1), 1, 100)
      .GroupBy(AttrName(2))
      .Aggregate(AggregateOp::kSum, AttrName(2));
  const Query compiled = builder.Build();
  EXPECT_NE(compiled.error.find("duplicates the group key"),
            std::string::npos)
      << compiled.error;

  // The same rejection through the Database path (hand-built queries get
  // identical validation).
  auto db = MakeDb("plain");
  auto result = db->From("R")
                    .Where(AttrName(1), 1, 100)
                    .GroupBy(AttrName(2))
                    .Aggregate(AggregateOp::kCount, AttrName(2))
                    .Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("duplicates the group key"),
            std::string::npos)
      << result.error();
}

TEST_F(QueryApiTest, GroupByProjectConflictIsAnError) {
  QueryBuilder builder;
  builder.Where(AttrName(1), 1, 100)
      .Project(AttrName(4))
      .GroupBy(AttrName(2))
      .Aggregate(AggregateOp::kSum, AttrName(3));
  const Query compiled = builder.Build();
  EXPECT_NE(compiled.error.find("conflicts with GroupBy()"),
            std::string::npos)
      << compiled.error;
}

TEST_F(QueryApiTest, GroupByWithoutKeyOrAggregatesIsAnError) {
  QueryBuilder no_aggs;
  no_aggs.Where(AttrName(1), 1, 100).GroupBy(AttrName(2));
  EXPECT_NE(no_aggs.Build().error.find("at least one Aggregate()"),
            std::string::npos);

  QueryBuilder no_key;
  no_key.Where(AttrName(1), 1, 100)
      .GroupBy("")
      .Aggregate(AggregateOp::kSum, AttrName(2));
  EXPECT_FALSE(no_key.Build().error.empty());
}

TEST_F(QueryApiTest, ScalarKCountAggregateIsAnError) {
  // kCount only makes sense per group; the scalar cardinality terminal is
  // Count().
  QueryBuilder builder;
  builder.Where(AttrName(1), 1, 100)
      .Aggregate(AggregateOp::kCount, AttrName(2));
  const Query compiled = builder.Build();
  EXPECT_NE(compiled.error.find("grouped-only"), std::string::npos)
      << compiled.error;
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

TEST_F(QueryApiTest, GroupByCompilesToDedupedPushdownProjection) {
  QueryBuilder builder;
  builder.Where(AttrName(1), 1, 100)
      .GroupBy(AttrName(2))
      .Aggregate(AggregateOp::kSum, AttrName(3))
      .Aggregate(AggregateOp::kMin, AttrName(3))
      .Aggregate(AggregateOp::kCount, AttrName(4));
  const Query compiled = builder.Build();
  EXPECT_TRUE(compiled.error.empty()) << compiled.error;
  EXPECT_EQ(compiled.consume.kind, ConsumeKind::kGroupBy);
  // The key once, each folded attribute once; the kCount placeholder attr
  // is never fetched so it is not declared.
  EXPECT_EQ(compiled.spec.projections,
            (std::vector<std::string>{AttrName(2), AttrName(3)}));
}

TEST_F(QueryApiTest, HandBuiltQueriesGetTheSameValidationAsBuilt) {
  // Query is a public aggregate; Execute must re-apply the builder's
  // terminal compile step so a hand-assembled query can never reach an
  // engine in a state Build() would have rejected or normalized.
  auto db = MakeDb("partial");
  crackdb::Query foreach_no_visitor;
  foreach_no_visitor.table = "R";
  foreach_no_visitor.spec.selections = {
      {AttrName(1), RangePredicate::Closed(1, 100)}};
  foreach_no_visitor.spec.projections = {AttrName(2)};
  foreach_no_visitor.consume.kind = ConsumeKind::kForEach;  // null visitor
  auto fe = db->Execute(foreach_no_visitor);
  ASSERT_FALSE(fe.ok());
  EXPECT_NE(fe.error().find("visitor"), std::string::npos);

  crackdb::Query materialize_no_projection;
  materialize_no_projection.table = "R";
  materialize_no_projection.spec.selections = {
      {AttrName(1), RangePredicate::Closed(1, 100)}};
  auto mat = db->Execute(materialize_no_projection);
  ASSERT_FALSE(mat.ok());
  EXPECT_NE(mat.error().find("Materialize()"), std::string::npos);

  // An aggregate whose spec never declared the folded attribute: the
  // normalization injects it (chunk-wise engines' declarations are
  // binding), so this runs instead of asserting inside the engine.
  crackdb::Query undeclared_aggregate;
  undeclared_aggregate.table = "R";
  undeclared_aggregate.spec.selections = {
      {AttrName(1), RangePredicate::Closed(1, 500)}};
  undeclared_aggregate.consume =
      ConsumeSpec::Aggregate(AggregateOp::kMax, AttrName(2));
  auto agg = db->Execute(undeclared_aggregate);
  ASSERT_TRUE(agg.ok()) << agg.error();
  EXPECT_TRUE(agg->aggregate_valid);
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
      const Fold expect = FoldColumn(oracle.Run(oracle_spec).columns[0]);

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
      // Sharded Database-level Execute, all three ops.
      {
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
    // The engine's cumulative breakdown agrees: nothing but scalar modes
    // ran on this database, so total reconstruction is exactly zero.
    EXPECT_EQ(db->engine("R").CostSnapshot().reconstruct_micros, 0.0) << kind;
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
