// Batch/async equivalence: ExecuteBatch, ExecuteAsync, and ApplyBatch must
// return row-for-row identical results — and leave identical end states —
// compared with the synchronous one-op-at-a-time loop. Each check runs two
// twin databases from the same seed state, drives one through the batch
// pipeline and one through the loop, and demands exact equality (not just
// multiset equality: each partition sees the same sub-query sequence
// either way, so even the crack-order-dependent row order must match).

#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util/workload.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/plain_engine.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

using bench::AttrName;

constexpr Value kDomain = 2'000;
constexpr size_t kRows = 2'000;
constexpr size_t kPartitions = 5;

Query RandomQuery(Rng* rng) {
  QuerySpec spec;
  if (rng->Bernoulli(0.3)) {
    spec.selections = {
        {AttrName(1), RangePredicate::Point(rng->Uniform(1, kDomain))}};
  } else {
    spec.selections = {{AttrName(1), bench::RandomRange(rng, 1, kDomain, 0.2)},
                       {AttrName(2), bench::RandomRange(rng, 1, kDomain, 0.6)}};
  }
  spec.projections = {AttrName(3), AttrName(4)};
  return {"R", std::move(spec)};
}

/// The materialized rows of a query that must have succeeded.
const QueryResult& Rows(const Expected<ExecuteResult>& result) {
  EXPECT_TRUE(result.ok()) << result.error();
  return result->rows;
}

/// A full scan of every column of R, for end-state comparisons.
Query FullScan() {
  QuerySpec spec;
  spec.projections = {AttrName(1), AttrName(2), AttrName(3), AttrName(4)};
  return {"R", std::move(spec)};
}

using bench::ZipRows;

class BatchAsyncTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    Rng rng(1234);
    source_ = &bench::CreateUniformRelation(&catalog_, "R", 4, kRows, kDomain,
                                            &rng);
  }

  /// A fresh database over the (current) source relation. Twins made
  /// before any write start from identical states.
  std::unique_ptr<Database> MakeDb(size_t pool_threads = 0) {
    DatabaseOptions options;
    options.pool_threads = pool_threads;
    auto db = std::make_unique<Database>(options);
    PartitionSpec spec;
    spec.kind = PartitionSpec::Kind::kRange;
    spec.num_partitions = kPartitions;
    spec.column = AttrName(1);
    spec.domain_lo = 1;
    spec.domain_hi = kDomain;
    db->RegisterSharded("R", *source_, spec, GetParam());
    return db;
  }

  Catalog catalog_;
  Relation* source_ = nullptr;
};

TEST_P(BatchAsyncTest, ExecuteBatchRowForRowEqualsExecuteLoop) {
  for (const size_t pool : {size_t{0}, size_t{2}}) {
    const std::unique_ptr<Database> batch_db = MakeDb(pool);
    const std::unique_ptr<Database> loop_db = MakeDb(pool);
    Rng rng(77);
    std::vector<Query> queries;
    for (int q = 0; q < 24; ++q) queries.push_back(RandomQuery(&rng));

    const std::vector<Expected<ExecuteResult>> batched =
        batch_db->ExecuteBatch(queries);
    ASSERT_EQ(batched.size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      const Expected<ExecuteResult> looped = loop_db->Execute(queries[q]);
      EXPECT_EQ(Rows(batched[q]).num_rows, Rows(looped).num_rows)
          << "query " << q;
      EXPECT_EQ(Rows(batched[q]).columns, Rows(looped).columns)
          << "row-for-row divergence at query " << q << " (pool=" << pool
          << ")";
    }

    // Identical end states: both crackers saw the same per-partition
    // sub-query sequence, so even a full scan must agree exactly.
    EXPECT_EQ(Rows(batch_db->Execute(FullScan())).columns,
              Rows(loop_db->Execute(FullScan())).columns);
    const TableStats batch_stats = batch_db->Stats("R");
    const TableStats loop_stats = loop_db->Stats("R");
    EXPECT_EQ(batch_stats.queries, loop_stats.queries);
    EXPECT_EQ(batch_stats.rows, loop_stats.rows);
  }
}

TEST_P(BatchAsyncTest, ExecuteBatchHandlesEmptyAndSingleton) {
  const std::unique_ptr<Database> db = MakeDb();
  EXPECT_TRUE(db->ExecuteBatch({}).empty());

  Rng rng(5);
  const Query query = RandomQuery(&rng);
  const std::unique_ptr<Database> twin = MakeDb();
  const std::vector<Expected<ExecuteResult>> batched =
      db->ExecuteBatch({&query, 1});
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(Rows(batched[0]).columns, Rows(twin->Execute(query)).columns);
}

TEST_P(BatchAsyncTest, ExecuteAsyncEqualsExecute) {
  for (const size_t pool : {size_t{0}, size_t{2}}) {
    const std::unique_ptr<Database> async_db = MakeDb(pool);
    const std::unique_ptr<Database> sync_db = MakeDb(pool);
    Rng rng(99);
    for (int q = 0; q < 16; ++q) {
      const Query query = RandomQuery(&rng);
      // Awaited one at a time, the async pipeline must be deterministic:
      // same sub-query order, same rows in the same order.
      const Expected<ExecuteResult> async_result =
          async_db->ExecuteAsync(query).get();
      EXPECT_EQ(Rows(async_result).columns,
                Rows(sync_db->Execute(query)).columns)
          << "query " << q << " (pool=" << pool << ")";
    }
    EXPECT_EQ(async_db->Stats("R").queries, sync_db->Stats("R").queries);
  }
}

TEST_P(BatchAsyncTest, ExecuteAsyncRejectsOnTheCallerThread) {
  for (const size_t pool : {size_t{0}, size_t{2}}) {
    const std::unique_ptr<Database> db = MakeDb(pool);
    Rng rng(8);
    Query unknown_table = RandomQuery(&rng);
    unknown_table.table = "nope";
    Query unknown_attr = RandomQuery(&rng);
    unknown_attr.spec.projections = {"ghost"};
    for (const Query& bad : {unknown_table, unknown_attr}) {
      std::future<Expected<ExecuteResult>> future = db->ExecuteAsync(bad);
      // Validation runs before scheduling: the error future is ready on
      // return and nothing reached the pool or the engine.
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << bad.table << " (pool=" << pool << ")";
      const Expected<ExecuteResult> result = future.get();
      ASSERT_FALSE(result.ok());
      EXPECT_NE(result.error().find("unknown"), std::string::npos)
          << result.error();
    }
    EXPECT_EQ(db->Stats("R").queries, 0u);
  }
}

TEST_P(BatchAsyncTest, ConcurrentAsyncWaveMatchesPlainReference) {
  const std::unique_ptr<Database> db = MakeDb(3);
  PlainEngine reference(*source_);  // read-only phase: source is immutable
  Rng rng(41);
  std::vector<Query> queries;
  std::vector<std::future<Expected<ExecuteResult>>> futures;
  for (int q = 0; q < 20; ++q) {
    queries.push_back(RandomQuery(&rng));
    futures.push_back(db->ExecuteAsync(queries.back()));
  }
  // In-flight queries interleave, so row order is scheduling-dependent —
  // but every answer must still be the exact multiset a plain scan gives.
  for (size_t q = 0; q < futures.size(); ++q) {
    EXPECT_EQ(ZipRows(Rows(futures[q].get())),
              ZipRows(reference.Run(queries[q].spec)))
        << "async query " << q;
  }
}

TEST_P(BatchAsyncTest, ApplyBatchEqualsSequentialLoop) {
  const std::unique_ptr<Database> batch_db = MakeDb();
  const std::unique_ptr<Database> loop_db = MakeDb();
  Rng rng(314);

  // A mixed batch: inserts across partitions, deletes of pre-existing
  // keys, a delete of an unknown key, and a double delete in the same
  // batch (the second must fail in both pipelines).
  std::vector<WriteOp> ops;
  for (int i = 0; i < 30; ++i) {
    std::vector<Value> row(4);
    for (Value& v : row) v = rng.Uniform(1, kDomain);
    ops.push_back(WriteOp::MakeInsert(std::move(row)));
  }
  ops.push_back(WriteOp::MakeDelete(Key{3}));
  ops.push_back(WriteOp::MakeDelete(Key{kRows - 1}));
  ops.push_back(WriteOp::MakeDelete(Key{3}));  // already dead: must fail
  ops.push_back(WriteOp::MakeDelete(Key{1'000'000}));  // unknown: must fail
  for (int i = 0; i < 10; ++i) {
    std::vector<Value> row(4);
    for (Value& v : row) v = rng.Uniform(1, kDomain);
    ops.push_back(WriteOp::MakeInsert(std::move(row)));
  }

  const std::vector<WriteOutcome> batched = batch_db->ApplyBatch("R", ops);

  std::vector<WriteOutcome> looped(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == WriteOp::Kind::kInsert) {
      looped[i] = {true, loop_db->Insert("R", ops[i].values)};
    } else {
      looped[i] = {loop_db->Delete("R", ops[i].key), ops[i].key};
      if (!looped[i].ok) looped[i].key = kInvalidKey;
    }
  }

  ASSERT_EQ(batched.size(), looped.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(batched[i].ok, looped[i].ok) << "op " << i;
    // Order-preserving group commit: the keys must match the loop's.
    EXPECT_EQ(batched[i].key, looped[i].key) << "op " << i;
  }

  // Identical end states, checked exactly.
  EXPECT_EQ(Rows(batch_db->Execute(FullScan())).columns,
            Rows(loop_db->Execute(FullScan())).columns);
  const TableStats batch_stats = batch_db->Stats("R");
  const TableStats loop_stats = loop_db->Stats("R");
  EXPECT_EQ(batch_stats.rows, loop_stats.rows);
  EXPECT_EQ(batch_stats.live_rows, loop_stats.live_rows);
  EXPECT_EQ(batch_stats.deleted, loop_stats.deleted);
  EXPECT_EQ(batch_stats.inserts, loop_stats.inserts);
  EXPECT_EQ(batch_stats.deletes, loop_stats.deletes);
}

TEST_P(BatchAsyncTest, ApplyBatchKeysAreDeletableInTheNextBatch) {
  const std::unique_ptr<Database> db = MakeDb();
  // Keys from one batch are immediately deletable in the next.
  std::vector<WriteOp> inserts;
  for (int i = 0; i < 12; ++i) {
    inserts.push_back(WriteOp::MakeInsert({Value(1 + i * 7), 2, 3, 4}));
  }
  const std::vector<WriteOutcome> outcomes = db->ApplyBatch("R", inserts);
  std::vector<WriteOp> deletes;
  for (size_t i = 0; i < outcomes.size(); i += 2) {
    ASSERT_TRUE(outcomes[i].ok);
    deletes.push_back(WriteOp::MakeDelete(outcomes[i].key));
  }
  for (const WriteOutcome& outcome : db->ApplyBatch("R", deletes)) {
    EXPECT_TRUE(outcome.ok);
  }
  const TableStats stats = db->Stats("R");
  EXPECT_EQ(stats.rows, kRows + inserts.size());
  EXPECT_EQ(stats.live_rows, kRows + inserts.size() - deletes.size());
}

INSTANTIATE_TEST_SUITE_P(EngineKinds, BatchAsyncTest,
                         ::testing::Values("selection-cracking", "sideways",
                                           "partial", "plain"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace crackdb
