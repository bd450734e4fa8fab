// The adaptive repartitioning subsystem, bottom to top: the RwGate's
// fairness policy, the WorkloadHistogram sensor, the RepartitionPolicy's
// decisions and hysteresis (no-thrash), and — against a plain-scan oracle
// across engine kinds — the online split/merge protocol itself: answers,
// global keys, and writes must be indistinguishable from never having
// repartitioned.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/repartition_policy.h"
#include "adaptive/workload_histogram.h"
#include "bench_util/workload.h"
#include "common/rng.h"
#include "common/rw_gate.h"
#include "engine/database.h"
#include "engine/plain_engine.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

using bench::AttrName;
using bench::ZipRows;

// ---------------------------------------------------------------------------
// RwGate
// ---------------------------------------------------------------------------

TEST(RwGateTest, ExclusiveExcludesSharedAndViceVersa) {
  RwGate gate;
  gate.EnterShared();
  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    gate.EnterExclusive();
    writer_in.store(true);
    gate.ExitExclusive();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load());  // blocked behind the shared holder
  gate.ExitShared();
  writer.join();
  EXPECT_TRUE(writer_in.load());
  // And afterwards the gate is free again.
  gate.EnterShared();
  gate.ExitShared();
}

TEST(RwGateTest, UrgentReaderPassesPendingWriterOrdinaryWaits) {
  RwGate gate;
  gate.EnterShared();  // keeps the writer pending
  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    gate.EnterExclusive();
    writer_in.store(true);
    gate.ExitExclusive();
  });
  // Wait until the writer is registered as pending.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_FALSE(writer_in.load());

  // Urgent shared entry must succeed immediately despite the pending
  // writer (this is what keeps pool workers deadlock-free).
  gate.EnterShared(/*urgent=*/true);
  gate.ExitShared();

  // An ordinary reader parks behind the pending writer.
  std::atomic<bool> ordinary_in{false};
  std::thread ordinary([&] {
    gate.EnterShared(/*urgent=*/false);
    ordinary_in.store(true);
    gate.ExitShared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ordinary_in.load());

  gate.ExitShared();  // writer turn, then the ordinary reader
  writer.join();
  ordinary.join();
  EXPECT_TRUE(writer_in.load());
  EXPECT_TRUE(ordinary_in.load());
}

// ---------------------------------------------------------------------------
// WorkloadHistogram
// ---------------------------------------------------------------------------

TEST(WorkloadHistogramTest, RecordsSnapshotsDecaysAndResets) {
  WorkloadHistogram hist(3, /*sketch_capacity=*/4);
  hist.RecordAccess(0, 4, 100.0);
  hist.RecordAccess(0, 2, 50.0);
  hist.RecordAccess(2, 1, 10.0);
  hist.RecordAccess(99, 1, 1.0);  // out of range: ignored

  WorkloadHistogram::Snapshot snap = hist.Snap();
  ASSERT_EQ(snap.partitions.size(), 3u);
  EXPECT_EQ(snap.total_accesses, 7u);
  EXPECT_EQ(snap.partitions[0].accesses, 6u);
  EXPECT_DOUBLE_EQ(snap.partitions[0].micros, 150.0);
  EXPECT_EQ(snap.partitions[1].accesses, 0u);
  EXPECT_EQ(snap.partitions[2].accesses, 1u);

  hist.Decay(0.5);
  snap = hist.Snap();
  EXPECT_EQ(snap.partitions[0].accesses, 3u);
  EXPECT_EQ(snap.partitions[2].accesses, 0u);  // 1 * 0.5 truncates

  hist.Reset(5);
  snap = hist.Snap();
  EXPECT_EQ(snap.partitions.size(), 5u);
  EXPECT_EQ(snap.total_accesses, 0u);
}

TEST(WorkloadHistogramTest, BoundarySketchIsBoundedNewestWins) {
  WorkloadHistogram hist(1, /*sketch_capacity=*/4);
  for (Value v = 1; v <= 100; ++v) hist.RecordBoundary(0, v);
  const WorkloadHistogram::Snapshot snap = hist.Snap();
  ASSERT_EQ(snap.partitions[0].boundaries.size(), 4u);
  for (Value v : snap.partitions[0].boundaries) EXPECT_GT(v, 96);
}

// ---------------------------------------------------------------------------
// RepartitionPolicy
// ---------------------------------------------------------------------------

AdaptiveConfig TestConfig() {
  AdaptiveConfig cfg;
  cfg.enabled = true;
  cfg.min_accesses = 10;
  cfg.hot_share = 0.45;
  cfg.cold_share = 0.05;
  cfg.min_partition_rows = 100;
  cfg.max_partitions = 8;
  cfg.min_partitions = 2;
  cfg.cooldown_ticks = 2;
  return cfg;
}

RepartitionPolicy::PartitionInput Input(uint64_t accesses, size_t rows,
                                        Value lo, Value hi,
                                        std::vector<Value> candidates = {}) {
  RepartitionPolicy::PartitionInput in;
  in.accesses = accesses;
  in.live_rows = rows;
  in.cover_lo = lo;
  in.cover_hi = hi;
  in.split_candidates = std::move(candidates);
  return in;
}

TEST(RepartitionPolicyTest, BelowMinAccessesDoesNothing) {
  RepartitionPolicy policy(TestConfig());
  std::vector<RepartitionPolicy::PartitionInput> in = {
      Input(5, 1000, 1, 500), Input(0, 1000, 501, 1000)};
  EXPECT_EQ(policy.Tick(in).kind, RepartitionDecision::Kind::kNone);
}

TEST(RepartitionPolicyTest, HotSplitAtMedianOfObservedBoundaries) {
  RepartitionPolicy policy(TestConfig());
  std::vector<RepartitionPolicy::PartitionInput> in = {
      Input(90, 1000, 1, 500, {200, 250, 300, 9999 /* outside: ignored */}),
      Input(10, 1000, 501, 1000)};
  const RepartitionDecision d = policy.Tick(in);
  ASSERT_EQ(d.kind, RepartitionDecision::Kind::kSplit);
  EXPECT_EQ(d.partition, 0u);
  EXPECT_EQ(d.split_value, 250);
}

TEST(RepartitionPolicyTest, HotSplitFallsBackToMidpoint) {
  RepartitionPolicy policy(TestConfig());
  std::vector<RepartitionPolicy::PartitionInput> in = {
      Input(90, 1000, 1, 500), Input(10, 1000, 501, 1000)};
  const RepartitionDecision d = policy.Tick(in);
  ASSERT_EQ(d.kind, RepartitionDecision::Kind::kSplit);
  EXPECT_EQ(d.partition, 0u);
  EXPECT_EQ(d.split_value, 251);  // 1 + 500/2
  EXPECT_GT(d.split_value, in[0].cover_lo);
  EXPECT_LE(d.split_value, in[0].cover_hi);
}

TEST(RepartitionPolicyTest, RespectsMinPartitionRowsAndSliceWidth) {
  RepartitionPolicy policy(TestConfig());
  // Hot but tiny: not splittable.
  std::vector<RepartitionPolicy::PartitionInput> in = {
      Input(90, 50, 1, 500), Input(10, 1000, 501, 1000)};
  EXPECT_EQ(policy.Tick(in).kind, RepartitionDecision::Kind::kNone);
  // Hot but the slice covers a single value: nothing to cut.
  in = {Input(90, 1000, 7, 7), Input(10, 1000, 8, 1000)};
  EXPECT_EQ(policy.Tick(in).kind, RepartitionDecision::Kind::kNone);
}

TEST(RepartitionPolicyTest, RespectsMaxPartitions) {
  AdaptiveConfig cfg = TestConfig();
  cfg.max_partitions = 2;
  RepartitionPolicy policy(cfg);
  std::vector<RepartitionPolicy::PartitionInput> in = {
      Input(90, 1000, 1, 500), Input(10, 1000, 501, 1000)};
  EXPECT_EQ(policy.Tick(in).kind, RepartitionDecision::Kind::kNone);
}

TEST(RepartitionPolicyTest, ColdMergePicksColdestAdjacentPair) {
  AdaptiveConfig cfg = TestConfig();
  cfg.cold_share = 0.10;
  RepartitionPolicy policy(cfg);
  // No partition is hot enough to split (max share 24% < 45%); the
  // coldest adjacent pair is (2,3) with 3/83 of the traffic.
  std::vector<RepartitionPolicy::PartitionInput> in = {
      Input(20, 1000, 1, 150),   Input(20, 1000, 151, 300),
      Input(2, 1000, 301, 450),  Input(1, 1000, 451, 600),
      Input(20, 1000, 601, 750), Input(20, 1000, 751, 1000)};
  const RepartitionDecision d = policy.Tick(in);
  ASSERT_EQ(d.kind, RepartitionDecision::Kind::kMerge);
  EXPECT_EQ(d.partition, 2u);
}

TEST(RepartitionPolicyTest, MergeRespectsMinPartitions) {
  AdaptiveConfig cfg = TestConfig();
  cfg.min_partitions = 2;
  cfg.cold_share = 0.5;
  RepartitionPolicy policy(cfg);
  // Both partitions are below min_partition_rows, so no split either:
  // at n == min_partitions the cold pair must survive.
  std::vector<RepartitionPolicy::PartitionInput> in = {
      Input(20, 50, 1, 500), Input(1, 50, 501, 1000)};
  EXPECT_EQ(policy.Tick(in).kind, RepartitionDecision::Kind::kNone);
}

TEST(RepartitionPolicyTest, CooldownBlocksFollowupActions) {
  RepartitionPolicy policy(TestConfig());  // cooldown_ticks = 2
  std::vector<RepartitionPolicy::PartitionInput> in = {
      Input(90, 1000, 1, 500), Input(10, 1000, 501, 1000)};
  const RepartitionDecision d = policy.Tick(in);
  ASSERT_EQ(d.kind, RepartitionDecision::Kind::kSplit);
  policy.NoteExecuted(d);
  EXPECT_EQ(policy.Tick(in).kind, RepartitionDecision::Kind::kNone);
  EXPECT_EQ(policy.Tick(in).kind, RepartitionDecision::Kind::kNone);
  // Cooldown served; the (still hot) input fires again.
  EXPECT_EQ(policy.Tick(in).kind, RepartitionDecision::Kind::kSplit);
}

TEST(RepartitionPolicyTest, NoThrashAfterSplitOrMerge) {
  RepartitionPolicy policy(TestConfig());  // hot 0.45, cold 0.05
  // Post-split shape: the hot partition's traffic divided over its two
  // halves. Neither half re-splits (below hot_share) and the pair is far
  // too warm to re-merge: the map is stable.
  std::vector<RepartitionPolicy::PartitionInput> post_split = {
      Input(30, 600, 1, 250), Input(30, 600, 251, 500),
      Input(40, 1000, 501, 1000)};
  for (int tick = 0; tick < 10; ++tick) {
    EXPECT_EQ(policy.Tick(post_split).kind, RepartitionDecision::Kind::kNone);
  }
  // Post-merge shape: the merged cold pair stays one partition — its
  // share is far below hot_share, so it cannot immediately re-split.
  std::vector<RepartitionPolicy::PartitionInput> post_merge = {
      Input(45, 1000, 1, 400), Input(10, 2000, 401, 600),
      Input(45, 1000, 601, 1000)};
  for (int tick = 0; tick < 10; ++tick) {
    EXPECT_EQ(policy.Tick(post_merge).kind, RepartitionDecision::Kind::kNone);
  }
}

// ---------------------------------------------------------------------------
// End to end: online splits/merges vs a static oracle, per engine kind
// ---------------------------------------------------------------------------

constexpr Value kDomain = 4'000;
constexpr size_t kRows = 4'000;

class AdaptiveRepartitionTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    Rng rng(2026);
    source_ = &bench::CreateUniformRelation(&catalog_, "R", 4, kRows, kDomain,
                                            &rng);
  }

  PartitionSpec RangeSpec(size_t partitions) const {
    PartitionSpec spec;
    spec.kind = PartitionSpec::Kind::kRange;
    spec.num_partitions = partitions;
    spec.column = AttrName(1);
    spec.domain_lo = 1;
    spec.domain_hi = kDomain;
    return spec;
  }

  /// Aggressive knobs so a handful of queries suffices to trigger actions.
  AdaptiveConfig Aggressive() const {
    AdaptiveConfig cfg;
    cfg.enabled = true;
    cfg.min_accesses = 8;
    cfg.hot_share = 0.30;
    cfg.cold_share = 0.02;  // effectively merge-free unless raised
    cfg.min_partition_rows = 32;
    cfg.max_partitions = 16;
    cfg.min_partitions = 2;
    cfg.cooldown_ticks = 0;
    cfg.sketch_capacity = 32;
    return cfg;
  }

  /// db answers == plain scan of the mirror, for the given spec.
  void ExpectMatches(Database* db, const QuerySpec& spec,
                     const std::string& context) {
    PlainEngine reference(*source_);
    ASSERT_EQ(ZipRows(db->Execute({"R", spec})->rows),
              ZipRows(reference.Run(spec)))
        << context;
  }

  QuerySpec HotQuery(Rng* rng, Value lo, Value hi) const {
    QuerySpec spec;
    spec.selections = {
        {AttrName(1), bench::RandomRange(rng, lo, hi, 0.05)},
        {AttrName(2), bench::RandomRange(rng, 1, kDomain, 0.6)}};
    spec.projections = {AttrName(3), AttrName(4)};
    return spec;
  }

  Catalog catalog_;
  Relation* source_ = nullptr;
};

TEST_P(AdaptiveRepartitionTest, HotSplitsPreserveAnswersKeysAndWrites) {
  Database db;
  db.RegisterSharded("R", *source_, RangeSpec(4), GetParam(), Aggressive());

  Rng rng(7);
  std::vector<Key> inserted_keys;
  size_t ticks_acted = 0;
  for (int round = 0; round < 12; ++round) {
    // Hot traffic on the low domain quarter (partition 0's slice).
    for (int q = 0; q < 6; ++q) {
      ExpectMatches(&db, HotQuery(&rng, 1, kDomain / 4),
                    "round " + std::to_string(round));
    }
    // Mixed writes, mirrored into the oracle relation: global keys equal
    // mirror keys because both sides apply the same ops in order.
    std::vector<Value> row(4);
    for (Value& v : row) v = rng.Uniform(1, kDomain / 3);
    const Key key = db.Insert("R", row);
    ASSERT_EQ(key, source_->AppendRow(row));
    inserted_keys.push_back(key);
    if (round % 3 == 2) {
      // Delete a row inserted *before* earlier splits: the rewritten
      // global-key router must still resolve it.
      const Key victim = inserted_keys.front();
      inserted_keys.erase(inserted_keys.begin());
      ASSERT_TRUE(db.Delete("R", victim)) << "round " << round;
      source_->DeleteRow(victim);
      EXPECT_FALSE(db.Delete("R", victim));  // already dead
    }
    if (db.MaybeRepartition("R")) ++ticks_acted;
  }

  const TableStats stats = db.Stats("R");
  EXPECT_GT(stats.splits, 0u);
  EXPECT_GT(stats.partitions, 4u);
  EXPECT_GT(ticks_acted, 0u);
  EXPECT_EQ(stats.rows, source_->num_rows());
  EXPECT_EQ(stats.live_rows, source_->num_live_rows());
  ASSERT_EQ(stats.per_partition.size(), stats.partitions);
  size_t per_partition_rows = 0;
  for (const PartitionStats& ps : stats.per_partition) {
    per_partition_rows += ps.rows;
  }
  EXPECT_EQ(per_partition_rows, stats.rows);

  // Full-table answer still identical after all the surgery.
  QuerySpec full_scan;
  full_scan.projections = {AttrName(1), AttrName(2), AttrName(3), AttrName(4)};
  ExpectMatches(&db, full_scan, "final full scan");
}

TEST_P(AdaptiveRepartitionTest, ColdMergesPreserveAnswers) {
  AdaptiveConfig cfg = Aggressive();
  cfg.hot_share = 2.0;    // splits can never fire
  cfg.cold_share = 0.25;  // cold pairs merge readily
  cfg.min_partitions = 2;
  Database db;
  db.RegisterSharded("R", *source_, RangeSpec(8), GetParam(), cfg);

  Rng rng(11);
  size_t merges_fired = 0;
  for (int round = 0; round < 10; ++round) {
    // All traffic on the top slice; the other seven partitions are cold.
    for (int q = 0; q < 6; ++q) {
      ExpectMatches(&db, HotQuery(&rng, kDomain - kDomain / 8, kDomain),
                    "merge round " + std::to_string(round));
    }
    if (db.MaybeRepartition("R")) ++merges_fired;
  }
  const TableStats stats = db.Stats("R");
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GT(merges_fired, 0u);
  EXPECT_LT(stats.partitions, 8u);
  EXPECT_GE(stats.partitions, cfg.min_partitions);

  QuerySpec full_scan;
  full_scan.projections = {AttrName(1), AttrName(2), AttrName(3), AttrName(4)};
  ExpectMatches(&db, full_scan, "final full scan after merges");
}

TEST_P(AdaptiveRepartitionTest, BackgroundTriggerRepartitions) {
  AdaptiveConfig cfg = Aggressive();
  cfg.trigger_interval = 16;  // automatic ticks from the serving paths
  DatabaseOptions options;
  options.pool_threads = 2;
  Database db(options);
  db.RegisterSharded("R", *source_, RangeSpec(4), GetParam(), cfg);

  Rng rng(23);
  for (int q = 0; q < 400; ++q) {
    ExpectMatches(&db, HotQuery(&rng, 1, kDomain / 4),
                  "background q " + std::to_string(q));
    if (db.Stats("R").splits > 0) break;
  }
  // The background thread may still be mid-tick; one manual tick bounds
  // the wait (it no-ops if one is in flight, so loop briefly).
  for (int i = 0; i < 50 && db.Stats("R").splits == 0; ++i) {
    (void)db.MaybeRepartition("R");
    for (int q = 0; q < 8; ++q) {
      (void)db.Execute({"R", HotQuery(&rng, 1, kDomain / 4)});
    }
  }
  EXPECT_GT(db.Stats("R").splits, 0u);
}

TEST_P(AdaptiveRepartitionTest, DegenerateTinyDomainNeverAborts) {
  // More partitions than domain values: the load-time map contains
  // zero-width and beyond-domain slices (a geometry PartitionOf and
  // MayContain support). The policy's cold-merge will pick exactly those
  // slices; the repartitioner must decline inexecutable decisions
  // gracefully instead of dying in the splice validation.
  Catalog tiny_catalog;
  Rng rng(5);
  Relation& tiny = bench::CreateUniformRelation(&tiny_catalog, "T", 2, 300,
                                                /*domain=*/4, &rng);
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = 8;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = 4;
  AdaptiveConfig cfg = Aggressive();
  cfg.cold_share = 0.5;  // aim the policy straight at the empty slices
  cfg.min_partition_rows = 8;
  Database db;
  db.RegisterSharded("T", tiny, spec, GetParam(), cfg);

  PlainEngine reference(tiny);
  for (int round = 0; round < 8; ++round) {
    QuerySpec spec_q;
    spec_q.selections = {{AttrName(1), RangePredicate::Point(1 + round % 4)}};
    spec_q.projections = {AttrName(2)};
    for (int q = 0; q < 4; ++q) {
      ASSERT_EQ(ZipRows(db.Execute({"T", spec_q})->rows),
                ZipRows(reference.Run(spec_q)))
          << "tiny domain round " << round;
    }
    (void)db.MaybeRepartition("T");  // must never abort
  }
  const TableStats stats = db.Stats("T");
  EXPECT_GE(stats.partitions, 2u);
}

TEST_P(AdaptiveRepartitionTest, HashShardingAndDisabledAreNoOps) {
  // Separate Databases: each shards the same source, and the shard
  // relations' names derive from the source name.
  // Hash sharding: adaptivity requested but structurally inapplicable.
  PartitionSpec hash;
  hash.kind = PartitionSpec::Kind::kHash;
  hash.num_partitions = 4;
  hash.column = AttrName(1);
  Database hashed_db;
  hashed_db.RegisterSharded("R", *source_, hash, GetParam(), Aggressive());
  // Disabled: the default config.
  Database static_db;
  static_db.RegisterSharded("R", *source_, RangeSpec(4), GetParam());

  Rng rng(3);
  for (int q = 0; q < 30; ++q) {
    (void)hashed_db.Execute({"R", HotQuery(&rng, 1, kDomain / 4)});
    (void)static_db.Execute({"R", HotQuery(&rng, 1, kDomain / 4)});
  }
  EXPECT_FALSE(hashed_db.MaybeRepartition("R"));
  EXPECT_FALSE(static_db.MaybeRepartition("R"));
  EXPECT_EQ(hashed_db.Stats("R").partitions, 4u);
  EXPECT_EQ(hashed_db.Stats("R").splits, 0u);
  EXPECT_EQ(static_db.Stats("R").partitions, 4u);
  EXPECT_EQ(static_db.Stats("R").splits, 0u);
}

INSTANTIATE_TEST_SUITE_P(EngineKinds, AdaptiveRepartitionTest,
                         ::testing::Values("plain", "presorted",
                                           "selection-cracking", "sideways",
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
