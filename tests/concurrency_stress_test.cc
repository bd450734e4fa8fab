// Concurrent serving through the Database facade: N client threads of
// mixed queries and updates against sharded cracking engines, checked two
// ways — (a) a read-only storm where every concurrent answer must equal a
// plain-scan reference, and (b) a mixed read/write storm whose final state
// must equal a serial replay of the recorded operations. Runs under TSan
// in CI (the `concurrency` label), where any lock-discipline violation in
// the crack-on-read paths becomes a hard failure.

#include "engine/database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/workload.h"
#include "common/rng.h"
#include "engine/plain_engine.h"
#include "obs/metrics.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

using bench::AttrName;

constexpr Value kDomain = 2'500;
constexpr size_t kRows = 2'500;
constexpr size_t kThreads = 4;

using bench::ZipRows;

QuerySpec RandomQuery(Rng* rng) {
  QueryBuilder builder;
  builder.Where(AttrName(1), bench::RandomRange(rng, 1, kDomain, 0.2))
      .Where(AttrName(2), bench::RandomRange(rng, 1, kDomain, 0.6))
      .Project(AttrName(3), AttrName(4));
  return builder.Spec();
}

class ConcurrencyStressTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    Rng rng(4242);
    source_ = &bench::CreateUniformRelation(&catalog_, "R", 4, kRows, kDomain,
                                            &rng);
    DatabaseOptions options;
    options.pool_threads = 2;  // fan-out pool shared by all client threads
    db_ = std::make_unique<Database>(options);

    PartitionSpec spec;
    spec.kind = PartitionSpec::Kind::kRange;
    spec.num_partitions = 5;
    spec.column = AttrName(1);
    spec.domain_lo = 1;
    spec.domain_hi = kDomain;
    db_->RegisterSharded("R", *source_, spec, GetParam());
  }

  Catalog catalog_;
  Relation* source_ = nullptr;
  std::unique_ptr<Database> db_;
};

TEST_P(ConcurrencyStressTest, ConcurrentReadersMatchPlainReference) {
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kThreads);
  for (size_t tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([this, tid, &failures] {
      Rng rng(1000 + tid);
      PlainEngine reference(*source_);  // source is immutable in this phase
      for (int q = 0; q < 20; ++q) {
        const QuerySpec spec = RandomQuery(&rng);
        if (ZipRows(db_->Execute({"R", spec})->rows) !=
            ZipRows(reference.Run(spec))) {
          failures[tid] = "thread " + std::to_string(tid) + " query " +
                          std::to_string(q) + " diverged";
          return;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

TEST_P(ConcurrencyStressTest, MixedStormEqualsSerialReplay) {
  struct RecordedInsert {
    std::vector<Value> values;
    bool deleted = false;
  };
  std::vector<std::vector<RecordedInsert>> recorded(kThreads);
  std::vector<std::string> failures(kThreads);

  std::vector<std::thread> clients;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([this, tid, &recorded, &failures] {
      Rng rng(9000 + tid);
      std::vector<std::pair<Key, size_t>> own_live;  // global key, slot
      for (int op = 0; op < 40; ++op) {
        const double dice = rng.NextDouble();
        if (dice < 0.55) {
          const QuerySpec spec = RandomQuery(&rng);
          const QueryResult result = db_->Execute({"R", spec})->rows;
          for (const auto& col : result.columns) {
            if (col.size() != result.num_rows) {
              failures[tid] = "ragged result in thread " + std::to_string(tid);
              return;
            }
          }
        } else if (dice < 0.85 || own_live.empty()) {
          std::vector<Value> row(source_->num_columns());
          for (Value& v : row) v = rng.Uniform(1, kDomain);
          const Key key = db_->Insert("R", row);
          own_live.push_back({key, recorded[tid].size()});
          recorded[tid].push_back({std::move(row), false});
        } else {
          // Threads delete only rows they inserted themselves, so the
          // final state is independent of the interleaving and a serial
          // replay is a valid oracle.
          const size_t pick = static_cast<size_t>(
              rng.Uniform(0, static_cast<Value>(own_live.size()) - 1));
          const auto [key, slot] = own_live[pick];
          if (!db_->Delete("R", key)) {
            failures[tid] = "delete of own live key failed in thread " +
                            std::to_string(tid);
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
    ASSERT_TRUE(failure.empty()) << failure;
  }

  // Serial replay: apply every recorded insert/delete to the source
  // relation, then the sharded table must answer exactly like a plain
  // scan of the replayed source — for a full scan and for range queries.
  size_t inserts = 0, deletes = 0;
  for (const auto& thread_log : recorded) {
    for (const RecordedInsert& rec : thread_log) {
      const Key key = source_->AppendRow(rec.values);
      ++inserts;
      if (rec.deleted) {
        source_->DeleteRow(key);
        ++deletes;
      }
    }
  }

  PlainEngine reference(*source_);
  QuerySpec full_scan;
  full_scan.projections = {AttrName(1), AttrName(2), AttrName(3), AttrName(4)};
  ASSERT_EQ(ZipRows(db_->Execute({"R", full_scan})->rows),
            ZipRows(reference.Run(full_scan)));

  Rng rng(31);
  for (int q = 0; q < 5; ++q) {
    const QuerySpec spec = RandomQuery(&rng);
    ASSERT_EQ(ZipRows(db_->Execute({"R", spec})->rows),
              ZipRows(reference.Run(spec)))
        << "replayed range query " << q;
  }

  const TableStats stats = db_->Stats("R");
  EXPECT_EQ(stats.partitions, 5u);
  EXPECT_EQ(stats.rows, kRows + inserts);
  EXPECT_EQ(stats.inserts, inserts);
  EXPECT_EQ(stats.deletes, deletes);
  EXPECT_EQ(stats.live_rows, source_->num_live_rows());
  EXPECT_GE(stats.queries, 6u);  // at least the replay-check queries
}

// The batch/async surface under the same 4-thread storm: every thread
// pushes its traffic through ExecuteBatch / ExecuteAsync / ApplyBatch instead
// of the one-op loop, and the final state must still equal a serial
// replay of the recorded writes. Runs under TSan in CI like the rest of
// the suite.
TEST_P(ConcurrencyStressTest, BatchedAsyncStormEqualsSerialReplay) {
  struct RecordedInsert {
    std::vector<Value> values;
    bool deleted = false;
  };
  std::vector<std::vector<RecordedInsert>> recorded(kThreads);
  std::vector<std::string> failures(kThreads);

  std::vector<std::thread> clients;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([this, tid, &recorded, &failures] {
      Rng rng(7700 + tid);
      std::vector<std::pair<Key, size_t>> own_live;  // global key, slot
      for (int round = 0; round < 12; ++round) {
        // A query batch, with one extra query in flight asynchronously.
        std::vector<Query> queries;
        for (int q = 0; q < 3; ++q) queries.push_back({"R", RandomQuery(&rng)});
        std::future<Expected<ExecuteResult>> async_result =
            db_->ExecuteAsync({"R", RandomQuery(&rng)});
        for (const Expected<ExecuteResult>& result :
             db_->ExecuteBatch(queries)) {
          if (!result.ok()) {
            failures[tid] = "batched query failed: " + result.error();
            return;
          }
          for (const auto& col : result->rows.columns) {
            if (col.size() != result->rows.num_rows) {
              failures[tid] = "ragged batch result in thread " +
                              std::to_string(tid);
              return;
            }
          }
        }
        if (!async_result.get().ok()) {
          failures[tid] = "async query failed in thread " + std::to_string(tid);
          return;
        }

        // A mixed write batch: a few inserts plus a delete of one of our
        // own earlier rows (own keys only, so serial replay stays a valid
        // oracle under any interleaving).
        std::vector<WriteOp> ops;
        std::vector<size_t> insert_slots;
        const size_t inserts = 1 + static_cast<size_t>(rng.Uniform(0, 2));
        for (size_t i = 0; i < inserts; ++i) {
          std::vector<Value> row(source_->num_columns());
          for (Value& v : row) v = rng.Uniform(1, kDomain);
          insert_slots.push_back(recorded[tid].size());
          recorded[tid].push_back({row, false});
          ops.push_back(WriteOp::MakeInsert(std::move(row)));
        }
        size_t deleted_slot = recorded[tid].size();
        if (own_live.size() >= 2 && rng.Bernoulli(0.6)) {
          const size_t pick = static_cast<size_t>(
              rng.Uniform(0, static_cast<Value>(own_live.size()) - 1));
          const auto [key, slot] = own_live[pick];
          deleted_slot = slot;
          ops.push_back(WriteOp::MakeDelete(key));
          own_live.erase(own_live.begin() + static_cast<long>(pick));
        }
        const std::vector<WriteOutcome> outcomes = db_->ApplyBatch("R", ops);
        for (size_t i = 0; i < ops.size(); ++i) {
          if (!outcomes[i].ok) {
            failures[tid] = "batched write failed in thread " +
                            std::to_string(tid);
            return;
          }
          if (ops[i].kind == WriteOp::Kind::kInsert) {
            own_live.push_back({outcomes[i].key, insert_slots.front()});
            insert_slots.erase(insert_slots.begin());
          } else {
            recorded[tid][deleted_slot].deleted = true;
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (const std::string& failure : failures) {
    ASSERT_TRUE(failure.empty()) << failure;
  }

  // Serial replay oracle, as in MixedStormEqualsSerialReplay.
  for (const auto& thread_log : recorded) {
    for (const RecordedInsert& rec : thread_log) {
      const Key key = source_->AppendRow(rec.values);
      if (rec.deleted) source_->DeleteRow(key);
    }
  }
  PlainEngine reference(*source_);
  QuerySpec full_scan;
  full_scan.projections = {AttrName(1), AttrName(2), AttrName(3), AttrName(4)};
  ASSERT_EQ(ZipRows(db_->Execute({"R", full_scan})->rows),
            ZipRows(reference.Run(full_scan)));
  Rng rng(63);
  for (int q = 0; q < 5; ++q) {
    const Query query{"R", RandomQuery(&rng)};
    ASSERT_EQ(ZipRows(db_->ExecuteBatch({&query, 1}).front()->rows),
              ZipRows(reference.Run(query.spec)))
        << "replayed batched query " << q;
  }
  EXPECT_EQ(db_->Stats("R").live_rows, source_->num_live_rows());
}

// The grouped-aggregation storm: 4 client threads hammer the same sharded
// table with randomized GroupBy queries — per-partition hash aggregation
// under the partition locks, partial-table merges on each client thread —
// while the crackers reorganize underneath. The source is immutable in
// this phase, so every concurrent answer must equal a per-thread std::map
// oracle folded from a plain reference scan. Runs under TSan in CI.
TEST_P(ConcurrencyStressTest, ConcurrentGroupedQueriesMatchOracle) {
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kThreads);
  for (size_t tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([this, tid, &failures] {
      Rng rng(3100 + tid);
      PlainEngine reference(*source_);  // source is immutable in this phase
      for (int q = 0; q < 20; ++q) {
        const RangePredicate pred =
            bench::RandomRange(&rng, 1, kDomain, 0.25);
        // Map oracle over the reference's materialized rows.
        QuerySpec ref_spec;
        ref_spec.selections = {{AttrName(1), pred}};
        ref_spec.projections = {AttrName(3), AttrName(4)};
        const QueryResult ref = reference.Run(ref_spec);
        std::map<Value, std::pair<uint64_t, Value>> oracle;  // count, sum
        for (size_t r = 0; r < ref.num_rows; ++r) {
          auto& slot = oracle[ref.columns[0][r]];
          slot.first += 1;
          slot.second = static_cast<Value>(
              static_cast<uint64_t>(slot.second) +
              static_cast<uint64_t>(ref.columns[1][r]));
        }

        auto got = db_->From("R")
                       .Where(AttrName(1), pred)
                       .GroupBy(AttrName(3))
                       .Aggregate(AggregateOp::kSum, AttrName(4))
                       .Aggregate(AggregateOp::kCount, AttrName(4))
                       .Execute();
        if (!got.ok()) {
          failures[tid] = "thread " + std::to_string(tid) + " query " +
                          std::to_string(q) + " failed: " + got.error();
          return;
        }
        bool match = got->groups.num_groups() == oracle.size() &&
                     got->cost.reconstruct_micros == 0;
        size_t gi = 0;
        for (const auto& [key, cs] : oracle) {
          if (!match) break;
          match = got->groups.keys[gi] == key &&
                  got->groups.counts[gi] == cs.first &&
                  got->groups.aggregates[0][gi] == cs.second &&
                  got->groups.aggregates[1][gi] ==
                      static_cast<Value>(cs.first);
          ++gi;
        }
        if (!match) {
          failures[tid] = "thread " + std::to_string(tid) + " grouped query " +
                          std::to_string(q) + " diverged from the map oracle";
          return;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

TEST_P(ConcurrencyStressTest, SnapshotsRunConcurrentlyWithTraffic) {
  std::vector<std::thread> clients;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([this, tid] {
      Rng rng(500 + tid);
      for (int op = 0; op < 15; ++op) {
        if (tid % 2 == 0) {
          (void)db_->Execute({"R", RandomQuery(&rng)});
        } else {
          const TableStats stats = db_->Stats("R");
          // rows only grows; live_rows never exceeds it.
          EXPECT_GE(stats.rows, kRows);
          EXPECT_LE(stats.live_rows, stats.rows);
        }
        if (op % 5 == 4) {
          std::vector<Value> row(source_->num_columns());
          for (Value& v : row) v = rng.Uniform(1, kDomain);
          (void)db_->Insert("R", row);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
}

// The adaptive-repartitioning storm: clients hammer a *hot range* with
// mixed reads and writes while splits and merges execute underneath them,
// both from background trigger ticks (every 64 ops) and from a dedicated
// thread spamming manual MaybeRepartition. Every mid-storm answer is
// structurally checked, the final state must equal a serial replay, and a
// deterministic post-storm phase proves the split machinery actually
// fired. Under TSan this exercises the map-gate swap protocol end to end.
TEST_P(ConcurrencyStressTest, RepartitionStormEqualsSerialReplay) {
  struct RecordedInsert {
    std::vector<Value> values;
    bool deleted = false;
  };
  // A separate database: the storm needs its own adaptive registration
  // (shard relation names derive from the source name, so it also gets
  // its own catalog and source mirror).
  Catalog catalog;
  Rng data_rng(777);
  Relation& mirror =
      bench::CreateUniformRelation(&catalog, "R", 4, kRows, kDomain,
                                   &data_rng);
  DatabaseOptions options;
  options.pool_threads = 2;
  Database db(options);
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = 5;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = kDomain;
  AdaptiveConfig adaptive;
  adaptive.enabled = true;
  adaptive.trigger_interval = 64;
  adaptive.min_accesses = 16;
  adaptive.hot_share = 0.30;
  adaptive.cold_share = 0.05;
  adaptive.min_partition_rows = 64;
  adaptive.max_partitions = 12;
  adaptive.cooldown_ticks = 0;
  adaptive.sketch_capacity = 32;
  db.RegisterSharded("R", mirror, spec, GetParam(), adaptive);

  std::vector<std::vector<RecordedInsert>> recorded(kThreads);
  std::vector<std::string> failures(kThreads);
  std::atomic<bool> storming{true};

  // Hot traffic: most ranges inside the low fifth of the domain, so the
  // histogram concentrates and splits fire while the storm runs.
  auto hot_query = [](Rng* rng) {
    QueryBuilder builder;
    builder.Where(AttrName(1), bench::RandomRange(rng, 1, kDomain / 5, 0.2))
        .Where(AttrName(2), bench::RandomRange(rng, 1, kDomain, 0.6))
        .Project(AttrName(3), AttrName(4));
    return builder.Spec();
  };

  std::vector<std::thread> clients;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([&, tid] {
      Rng rng(5500 + tid);
      std::vector<std::pair<Key, size_t>> own_live;  // global key, slot
      for (int op = 0; op < 60; ++op) {
        const double dice = rng.NextDouble();
        if (dice < 0.6) {
          const QueryResult result = db.Execute({"R", hot_query(&rng)})->rows;
          for (const auto& col : result.columns) {
            if (col.size() != result.num_rows) {
              failures[tid] = "ragged result in thread " + std::to_string(tid);
              return;
            }
          }
        } else if (dice < 0.85 || own_live.empty()) {
          std::vector<Value> row(mirror.num_columns());
          for (Value& v : row) v = rng.Uniform(1, kDomain);
          const Key key = db.Insert("R", row);
          own_live.push_back({key, recorded[tid].size()});
          recorded[tid].push_back({std::move(row), false});
        } else {
          // Own keys only, so serial replay stays a valid oracle; the
          // keys cross live splits/merges, so the rewritten router is
          // what resolves them.
          const size_t pick = static_cast<size_t>(
              rng.Uniform(0, static_cast<Value>(own_live.size()) - 1));
          const auto [key, slot] = own_live[pick];
          if (!db.Delete("R", key)) {
            failures[tid] = "delete of own live key failed in thread " +
                            std::to_string(tid);
            return;
          }
          recorded[tid][slot].deleted = true;
          own_live.erase(own_live.begin() + static_cast<long>(pick));
        }
      }
    });
  }
  // A dedicated ticker thread on top of the background trigger: manual
  // and automatic ticks contend for the same in-flight slot.
  std::thread ticker([&] {
    while (storming.load(std::memory_order_acquire)) {
      (void)db.MaybeRepartition("R");
      std::this_thread::yield();
    }
  });
  for (std::thread& c : clients) c.join();
  storming.store(false, std::memory_order_release);
  ticker.join();
  for (const std::string& failure : failures) {
    ASSERT_TRUE(failure.empty()) << failure;
  }

  // Serial replay oracle over the mirror.
  for (const auto& thread_log : recorded) {
    for (const RecordedInsert& rec : thread_log) {
      const Key key = mirror.AppendRow(rec.values);
      if (rec.deleted) mirror.DeleteRow(key);
    }
  }
  PlainEngine reference(mirror);
  QuerySpec full_scan;
  full_scan.projections = {AttrName(1), AttrName(2), AttrName(3), AttrName(4)};
  ASSERT_EQ(ZipRows(db.Execute({"R", full_scan})->rows),
            ZipRows(reference.Run(full_scan)));
  Rng rng(99);
  for (int q = 0; q < 5; ++q) {
    const QuerySpec spec = RandomQuery(&rng);
    ASSERT_EQ(ZipRows(db.Execute({"R", spec})->rows),
              ZipRows(reference.Run(spec)))
        << "replayed range query " << q;
  }
  EXPECT_EQ(db.Stats("R").live_rows, mirror.num_live_rows());

  // Deterministic post-storm phase: concentrated traffic plus manual
  // ticks must execute at least one action (the storm itself may or may
  // not have, depending on timing).
  Rng hot_rng(123);
  for (int round = 0;
       round < 40 && db.Stats("R").splits + db.Stats("R").merges == 0;
       ++round) {
    for (int q = 0; q < 8; ++q) (void)db.Execute({"R", hot_query(&hot_rng)});
    (void)db.MaybeRepartition("R");
  }
  const TableStats stats = db.Stats("R");
  EXPECT_GT(stats.splits + stats.merges, 0u);
  ASSERT_EQ(ZipRows(db.Execute({"R", full_scan})->rows),
            ZipRows(reference.Run(full_scan)));
}

// The observability storm: four client threads of mixed single and
// batched scalar queries, with every per-query CostBreakdown summed on
// the side. At the documented sync points the global registry must agree
// exactly with what the queries themselves reported — the deferred-flush
// pipeline (batched under the engine's cost mutex, drained every N
// batches and at CostSnapshot) loses nothing under contention. Runs
// under TSan via the `concurrency` label like the rest of this suite.
TEST_P(ConcurrencyStressTest, MetricsStormMatchesSummedQueryCosts) {
  obs::SetMetricsEnabled(true);
  auto metric = [](const char* name) {
    for (const obs::MetricSample& s :
         obs::MetricsRegistry::Global().Snapshot()) {
      if (s.name == name) return s.value;
    }
    return 0.0;
  };
  // Make both the registry and the per-Database query counter exact
  // before taking baselines: CostSnapshot drains the engine's pending
  // tallies, the system.metrics query reconciles db_queries_total.
  ASSERT_TRUE(db_->From("system.metrics").Count().Execute().ok());
  (void)db_->engine("R").CostSnapshot();
  const double base_sub = metric("engine_subqueries_total");
  const double base_pruned = metric("engine_partitions_pruned_total");
  const double base_select = metric("engine_select_micros_total");
  const double base_queries = metric("db_queries_total");

  struct ThreadTally {
    size_t queries = 0;
    size_t touched = 0;
    size_t pruned = 0;
    double select_micros = 0.0;
  };
  std::vector<ThreadTally> tallies(kThreads);
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> clients;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([this, tid, &tallies, &failures] {
      Rng rng(6100 + tid);
      ThreadTally& tally = tallies[tid];
      auto record = [&tally](const ExecuteResult& r) {
        ++tally.queries;
        tally.touched += r.partitions_touched;
        tally.pruned += r.partitions_pruned;
        tally.select_micros += r.cost.select_micros;
      };
      for (int round = 0; round < 12; ++round) {
        const Value lo = rng.Uniform(1, kDomain - 300);
        if (round % 3 == 0) {
          // A batch: three predicates answered under one fan-out.
          std::vector<Query> queries;
          for (int i = 0; i < 3; ++i) {
            queries.push_back(db_->From("R")
                                  .Where(AttrName(1), lo + i * 40,
                                         lo + 300 + i * 40)
                                  .Count()
                                  .Build());
          }
          auto results = db_->ExecuteBatch(queries);
          for (const auto& r : results) {
            if (!r.ok()) {
              failures[tid] = "batch error: " + r.error();
              return;
            }
            record(*r);
          }
        } else {
          auto r = db_->From("R")
                       .Where(AttrName(1), lo, lo + 300)
                       .Aggregate(AggregateOp::kSum, AttrName(2))
                       .Execute();
          if (!r.ok()) {
            failures[tid] = "query error: " + r.error();
            return;
          }
          record(*r);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (const std::string& failure : failures) {
    ASSERT_TRUE(failure.empty()) << failure;
  }

  ThreadTally total;
  for (const ThreadTally& t : tallies) {
    total.queries += t.queries;
    total.touched += t.touched;
    total.pruned += t.pruned;
    total.select_micros += t.select_micros;
  }
  // Sync, then compare. The final system.metrics query reconciles the
  // sampled query counter, so the delta includes it plus the baseline
  // reconciliation query itself having already landed.
  (void)db_->engine("R").CostSnapshot();
  ASSERT_TRUE(db_->From("system.metrics").Count().Execute().ok());
  EXPECT_EQ(metric("engine_subqueries_total") - base_sub,
            static_cast<double>(total.touched)) << GetParam();
  EXPECT_EQ(metric("engine_partitions_pruned_total") - base_pruned,
            static_cast<double>(total.pruned)) << GetParam();
  // Micros are double sums accumulated in different orders on the two
  // sides; agreement is to rounding, not bit-exact.
  EXPECT_NEAR(metric("engine_select_micros_total") - base_select,
              total.select_micros, 0.5) << GetParam();
  EXPECT_EQ(metric("db_queries_total") - base_queries,
            static_cast<double>(total.queries + 1)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CrackingKinds, ConcurrencyStressTest,
                         ::testing::Values("selection-cracking", "sideways",
                                           "partial"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace crackdb
