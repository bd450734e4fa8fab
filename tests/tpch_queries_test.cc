#include "tpch/queries.h"

#include <gtest/gtest.h>

#include "engine/partial_engine.h"
#include "engine/plain_engine.h"
#include "engine/presorted_engine.h"
#include "engine/row_engine.h"
#include "engine/query.h"
#include "engine/selection_cracking_engine.h"
#include "engine/sideways_engine.h"
#include "tpch/schema.h"

namespace crackdb::tpch {
namespace {

TpchDatabase& Db() {
  static TpchDatabase* db = new TpchDatabase(0.01);
  return *db;
}

EngineSet MakeSet(const std::string& kind) {
  if (kind == "plain") {
    return EngineSet(Db(), kind, [](const Relation& r) {
      return std::make_unique<PlainEngine>(r);
    });
  }
  if (kind == "presorted") {
    return EngineSet(Db(), kind, [](const Relation& r) {
      return std::make_unique<PresortedEngine>(r);
    });
  }
  if (kind == "selection-cracking") {
    return EngineSet(Db(), kind, [](const Relation& r) {
      return std::make_unique<SelectionCrackingEngine>(r);
    });
  }
  if (kind == "sideways") {
    return EngineSet(Db(), kind, [](const Relation& r) {
      return std::make_unique<SidewaysEngine>(r);
    });
  }
  if (kind == "row-presorted") {
    return EngineSet(Db(), kind, [](const Relation& r) {
      return std::make_unique<RowEngine>(r, true);
    });
  }
  ADD_FAILURE() << "unknown engine kind " << kind;
  return EngineSet(Db(), kind, nullptr);
}

/// The registry entry for query `number` (a failure if it is not one of
/// the evaluated twelve).
const TpchQueryDef& QueryByNumber(int number) {
  for (const TpchQueryDef& q : AllQueries()) {
    if (q.number == number) return q;
  }
  ADD_FAILURE() << "TPC-H query " << number << " not in the evaluated set";
  return AllQueries().front();
}

/// Q1-shaped grouped pushdown: GROUP BY l_returnflag under Q1's shipdate
/// predicate with sum(l_quantity), sum(l_extendedprice) and a per-group
/// count, compiled through the fluent GroupBy terminal. Returns {flag,
/// sum_qty, sum_base, count} rows sorted by flag.
TpchResult RunQ1Grouped(EngineSet& es, const QueryParams& p) {
  QueryBuilder builder;
  builder.Where("l_shipdate", RangePredicate{kMinValue, p.date1, true, true})
      .GroupBy("l_returnflag")
      .Aggregate(AggregateOp::kSum, "l_quantity")
      .Aggregate(AggregateOp::kSum, "l_extendedprice")
      .Aggregate(AggregateOp::kCount, "l_quantity");
  Query q = builder.Build();
  EXPECT_EQ(q.error, "");
  const ExecuteResult result = es.For("lineitem").Execute(q.spec, q.consume);
  TpchResult rows;
  for (size_t g = 0; g < result.groups.num_groups(); ++g) {
    rows.push_back({result.groups.keys[g], result.groups.aggregates[0][g],
                    result.groups.aggregates[1][g],
                    result.groups.aggregates[2][g]});
  }
  return rows;  // already sorted by group key (the finalize contract)
}

TEST(TpchQueriesTest, RegistryHoldsTheTwelveEvaluatedQueries) {
  const auto& queries = AllQueries();
  ASSERT_EQ(queries.size(), 12u);
  const int expected[] = {1, 3, 4, 6, 7, 8, 10, 12, 14, 15, 19, 20};
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(queries[i].number, expected[i]);
  }
  EXPECT_EQ(QueryByNumber(6).name, "forecast-revenue");
}

/// Cross-engine agreement per query: the headline correctness property for
/// the TPC-H harness (paper Section 5 compares response times of systems
/// answering identically).
class TpchQueryAgreement : public ::testing::TestWithParam<int> {};

TEST_P(TpchQueryAgreement, EnginesReturnIdenticalResults) {
  const TpchQueryDef& query = QueryByNumber(GetParam());
  EngineSet plain = MakeSet("plain");
  EngineSet presorted = MakeSet("presorted");
  EngineSet cracking = MakeSet("selection-cracking");
  EngineSet sideways = MakeSet("sideways");
  EngineSet row = MakeSet("row-presorted");

  Rng rng(1000 + GetParam());
  for (int variation = 0; variation < 3; ++variation) {
    const QueryParams params = query.randomize(Db(), rng);
    const TpchResult expected = query.run(Db(), plain, params);
    EXPECT_EQ(query.run(Db(), presorted, params), expected)
        << "presorted, variation " << variation;
    EXPECT_EQ(query.run(Db(), cracking, params), expected)
        << "selection-cracking, variation " << variation;
    EXPECT_EQ(query.run(Db(), sideways, params), expected)
        << "sideways, variation " << variation;
    EXPECT_EQ(query.run(Db(), row, params), expected)
        << "row-presorted, variation " << variation;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTwelve, TpchQueryAgreement,
                         ::testing::Values(1, 3, 4, 6, 7, 8, 10, 12, 14, 15,
                                           19, 20),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name("Q");
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(TpchQueriesTest, Q1ProducesTheFourFlagStatusGroups) {
  EngineSet plain = MakeSet("plain");
  Rng rng(5);
  const TpchQueryDef& q1 = QueryByNumber(1);
  const TpchResult r = q1.run(Db(), plain, q1.randomize(Db(), rng));
  // A/F, N/F, N/O, R/F.
  EXPECT_EQ(r.size(), 4u);
  for (const auto& row : r) {
    ASSERT_EQ(row.size(), 7u);
    EXPECT_GT(row[6], 0);                // count
    EXPECT_GE(row[3], row[4]);           // base >= discounted
  }
}

// The Q1-shaped grouped pushdown against a precomputed fixture: the SF
// 0.01 generator is deterministic (seed 19920101), so the three
// l_returnflag groups under shipdate <= 1998-09-02 have known quantities,
// prices, and counts. Checked through the fluent path (RunQ1Grouped
// compiles a GroupBy terminal) and through a hand-built raw
// QuerySpec/ConsumeSpec on the engine directly — both must hit the
// fixture exactly, on a scan engine and on a self-organizing one.
TEST(TpchQueriesTest, Q1GroupedMatchesPrecomputedFixture) {
  QueryParams p;
  p.date1 = DateToDays(1998, 9, 2);
  // {l_returnflag, sum(l_quantity), sum(l_extendedprice), count(*)}.
  const TpchResult fixture = {
      {0, 385947, 53870512803, 15114},
      {1, 752119, 105502414636, 29478},
      {2, 375170, 52476530501, 14753},
  };

  for (const char* kind : {"plain", "sideways"}) {
    // Fluent path.
    EngineSet es = MakeSet(kind);
    EXPECT_EQ(RunQ1Grouped(es, p), fixture) << kind << " fluent";

    // Raw QuerySpec path on the same (already cracked) engine.
    QuerySpec spec;
    spec.selections = {
        {"l_shipdate", RangePredicate{kMinValue, p.date1, true, true}}};
    spec.projections = {"l_returnflag", "l_quantity", "l_extendedprice"};
    const ConsumeSpec consume = ConsumeSpec::GroupBy(
        "l_returnflag", {{AggregateOp::kSum, "l_quantity"},
                         {AggregateOp::kSum, "l_extendedprice"},
                         {AggregateOp::kCount, "l_quantity"}});
    const ExecuteResult raw = es.For("lineitem").Execute(spec, consume);
    TpchResult raw_rows;
    for (size_t g = 0; g < raw.groups.num_groups(); ++g) {
      raw_rows.push_back({raw.groups.keys[g], raw.groups.aggregates[0][g],
                          raw.groups.aggregates[1][g],
                          raw.groups.aggregates[2][g]});
    }
    EXPECT_EQ(raw_rows, fixture) << kind << " raw spec";
    EXPECT_EQ(raw.cost.reconstruct_micros, 0u) << kind;
  }
}

TEST(TpchQueriesTest, Q6RevenuePositiveAndStableAcrossRepeats) {
  EngineSet sideways = MakeSet("sideways");
  Rng rng(6);
  const TpchQueryDef& q6 = QueryByNumber(6);
  const QueryParams params = q6.randomize(Db(), rng);
  const TpchResult first = q6.run(Db(), sideways, params);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_GT(first[0][0], 0);
  // Cracking continues across repeats; the answer must not drift.
  for (int rep = 0; rep < 4; ++rep) {
    EXPECT_EQ(q6.run(Db(), sideways, params), first) << "repeat " << rep;
  }
}

TEST(TpchQueriesTest, Q3TopTenOrderedByRevenue) {
  EngineSet plain = MakeSet("plain");
  Rng rng(7);
  const TpchQueryDef& q3 = QueryByNumber(3);
  const TpchResult r = q3.run(Db(), plain, q3.randomize(Db(), rng));
  EXPECT_LE(r.size(), 10u);
  for (size_t i = 1; i < r.size(); ++i) {
    EXPECT_GE(r[i - 1][1], r[i][1]);  // revenue descending
  }
}

TEST(TpchQueriesTest, Q19HandlesEmptyBranches) {
  EngineSet plain = MakeSet("plain");
  const TpchQueryDef& q19 = QueryByNumber(19);
  // Extreme quantities make branches empty; the query must return 0, not
  // fail.
  QueryParams p;
  p.code1 = p.code2 = p.code3 = 0;
  p.int1 = p.int2 = p.int3 = 1000;
  const TpchResult r = q19.run(Db(), plain, p);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0][0], 0);
}

}  // namespace
}  // namespace crackdb::tpch
