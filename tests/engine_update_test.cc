#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bench_util/workload.h"
#include "common/rng.h"
#include "engine/partial_engine.h"
#include "engine/plain_engine.h"
#include "engine/selection_cracking_engine.h"
#include "engine/sideways_engine.h"
#include "storage/catalog.h"
#include "updates/pending.h"

namespace crackdb {
namespace {

using bench::AttrName;

using bench::ZipRows;

/// Invariant 3 under updates: the self-organizing engines keep answering
/// exactly like a fresh scan while inserts and deletes stream in — the
/// paper's Exp6 correctness requirement.
struct UpdateParam {
  uint64_t seed;
  size_t updates_per_batch;
  size_t queries_per_batch;
};

class EngineUpdateTest : public ::testing::TestWithParam<UpdateParam> {};

TEST_P(EngineUpdateTest, CrackingEnginesTrackUpdates) {
  const UpdateParam p = GetParam();
  Catalog catalog;
  Rng data_rng(p.seed);
  const Value domain = 3000;
  Relation& rel = bench::CreateUniformRelation(&catalog, "R", 4, 3000,
                                               domain, &data_rng);
  PlainEngine reference(rel);
  SelectionCrackingEngine cracking(rel);
  SidewaysEngine sideways(rel);
  PartialSidewaysEngine partial(rel);

  Rng rng(p.seed + 1);
  for (int batch = 0; batch < 12; ++batch) {
    bench::ApplyRandomUpdates(&rel, domain, p.updates_per_batch, &rng);
    for (size_t q = 0; q < p.queries_per_batch; ++q) {
      QuerySpec spec;
      spec.selections = {
          {AttrName(1), bench::RandomRange(&rng, 1, domain, 0.15)}};
      spec.projections = {AttrName(2), AttrName(3)};
      const auto expected = ZipRows(reference.Run(spec));
      ASSERT_EQ(ZipRows(cracking.Run(spec)), expected)
          << "selection-cracking batch " << batch << " query " << q;
      ASSERT_EQ(ZipRows(sideways.Run(spec)), expected)
          << "sideways batch " << batch << " query " << q;
      ASSERT_EQ(ZipRows(partial.Run(spec)), expected)
          << "partial batch " << batch << " query " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, EngineUpdateTest,
    ::testing::Values(UpdateParam{1, 10, 10},   // HFLV-like
                      UpdateParam{2, 100, 3},   // LFHV-like
                      UpdateParam{3, 1, 1},     // singleton interleave
                      UpdateParam{4, 50, 5}));

TEST(EngineUpdateTest, MultiSelectionUnderUpdates) {
  Catalog catalog;
  Rng data_rng(77);
  const Value domain = 2000;
  Relation& rel = bench::CreateUniformRelation(&catalog, "R", 4, 2000,
                                               domain, &data_rng);
  PlainEngine reference(rel);
  SidewaysEngine sideways(rel);
  Rng rng(78);
  for (int step = 0; step < 40; ++step) {
    bench::ApplyRandomUpdates(&rel, domain, 5, &rng);
    QuerySpec spec;
    spec.selections = {
        {AttrName(1), bench::RandomRange(&rng, 1, domain, 0.2)},
        {AttrName(2), bench::RandomRange(&rng, 1, domain, 0.5)}};
    spec.projections = {AttrName(3), AttrName(4)};
    ASSERT_EQ(ZipRows(sideways.Run(spec)), ZipRows(reference.Run(spec)))
        << "step " << step;
  }
}

TEST(EngineUpdateTest, DeleteEverythingInRange) {
  Catalog catalog;
  Rng data_rng(88);
  Relation& rel = bench::CreateUniformRelation(&catalog, "R", 2, 500, 100,
                                               &data_rng);
  SidewaysEngine sideways(rel);
  QuerySpec spec;
  spec.selections = {{AttrName(1), RangePredicate::Closed(40, 60)}};
  spec.projections = {AttrName(2)};
  sideways.Run(spec);  // maps exist and are cracked
  // Tombstone every matching row.
  const Column& a = rel.column(AttrName(1));
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] >= 40 && a[i] <= 60) rel.DeleteRow(static_cast<Key>(i));
  }
  EXPECT_EQ(sideways.Run(spec).num_rows, 0u);
}

TEST(EngineUpdateTest, InsertVisibleToLateCreatedMap) {
  Catalog catalog;
  Rng data_rng(89);
  Relation& rel = bench::CreateUniformRelation(&catalog, "R", 3, 500, 100,
                                               &data_rng);
  PlainEngine reference(rel);
  SidewaysEngine sideways(rel);
  QuerySpec spec_b;
  spec_b.selections = {{AttrName(1), RangePredicate::Closed(20, 80)}};
  spec_b.projections = {AttrName(2)};
  sideways.Run(spec_b);  // set and M_{A1,A2} exist
  const Value row[] = {50, 7777, 8888};
  rel.AppendRow(row);
  sideways.Run(spec_b);  // update flows through the tape
  // Now a *new* map is created after the update was tape-logged.
  QuerySpec spec_c = spec_b;
  spec_c.projections = {AttrName(3)};
  ASSERT_EQ(ZipRows(sideways.Run(spec_c)), ZipRows(reference.Run(spec_c)));
}

TEST(PendingQueueTest, ExtractMatchingKeepsArrivalOrderOnBothSides) {
  Catalog catalog;
  Rng data_rng(90);
  Relation& rel = bench::CreateUniformRelation(&catalog, "R", 2, 100, 100,
                                               &data_rng);
  PendingQueue queue(rel, 0);
  const Value heads[] = {10, 500, 20, 600, 30};
  std::vector<Key> keys;
  for (Value h : heads) {
    const Value row[] = {h, h + 1};
    keys.push_back(rel.AppendRow(row));
  }
  rel.DeleteRow(keys[1]);
  queue.Pull();
  ASSERT_EQ(queue.pending_count(), 6u);

  // Nothing matches: nothing moves.
  EXPECT_TRUE(
      queue.ExtractMatching(RangePredicate::Closed(1000, 2000)).empty());
  EXPECT_EQ(queue.pending_count(), 6u);

  // The insert and later delete of the 500 row leave together, in order.
  const auto hot = queue.ExtractMatching(RangePredicate::Closed(400, 700));
  ASSERT_EQ(hot.size(), 3u);
  EXPECT_EQ(hot[0].key, keys[1]);
  EXPECT_EQ(hot[0].kind, UpdateEvent::Kind::kInsert);
  EXPECT_EQ(hot[1].key, keys[3]);
  EXPECT_EQ(hot[2].key, keys[1]);
  EXPECT_EQ(hot[2].kind, UpdateEvent::Kind::kDelete);

  const auto rest = queue.ExtractMatching(RangePredicate{});
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0].head_value, 10);
  EXPECT_EQ(rest[1].head_value, 20);
  EXPECT_EQ(rest[2].head_value, 30);
  EXPECT_EQ(queue.pending_count(), 0u);
}

TEST(EngineUpdateTest, UpdatesOutsideEveryQueryStayPendingThenMerge) {
  Catalog catalog;
  Rng data_rng(91);
  const Value domain = 1000;
  Relation& rel = bench::CreateUniformRelation(&catalog, "R", 3, 2000,
                                               domain, &data_rng);
  PlainEngine reference(rel);
  SelectionCrackingEngine cracking(rel);
  SidewaysEngine sideways(rel);
  Rng rng(92);
  QuerySpec cold;
  cold.projections = {AttrName(2), AttrName(3)};
  for (int round = 0; round < 20; ++round) {
    // Writes land above the domain every query reads.
    for (int i = 0; i < 10; ++i) {
      const Value row[] = {domain + rng.Uniform(1, 500), rng.Uniform(1, 9),
                           rng.Uniform(1, 9)};
      rel.AppendRow(row);
    }
    cold.selections = {
        {AttrName(1), bench::RandomRange(&rng, 1, domain, 0.2)}};
    const auto expected = ZipRows(reference.Run(cold));
    ASSERT_EQ(ZipRows(cracking.Run(cold)), expected) << "round " << round;
    ASSERT_EQ(ZipRows(sideways.Run(cold)), expected) << "round " << round;
  }
  const RangePredicate upper_half = RangePredicate::Closed(domain / 2, 2000);
  QuerySpec hot = cold;
  hot.selections = {{AttrName(1), upper_half}};
  const auto expected = ZipRows(reference.Run(hot));
  EXPECT_EQ(ZipRows(cracking.Run(hot)), expected);
  EXPECT_EQ(ZipRows(sideways.Run(hot)), expected);
}

}  // namespace
}  // namespace crackdb
