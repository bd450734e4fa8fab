#include "core/partial_map.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

Relation& BuildRelation(Catalog* catalog, size_t rows, Value domain,
                        uint64_t seed) {
  Relation& rel = catalog->CreateRelation("R");
  rel.AddColumn("A");
  rel.AddColumn("B");
  rel.AddColumn("C");
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const Value row[] = {rng.Uniform(1, domain), rng.Uniform(1, domain),
                         rng.Uniform(1, domain)};
    rel.BulkLoadRow(row);
  }
  return rel;
}

/// Fixture: a chunk map with one resolved area and the matching partial
/// map M_AB.
class PartialMapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rel_ = &BuildRelation(&catalog_, 2000, 1000, 42);
    cm_ = std::make_unique<ChunkMap>(*rel_, "A");
    map_ = std::make_unique<PartialMap>(*rel_, "A", "B");
  }

  ChunkMapArea& ResolveOne(Value lo, Value hi) {
    auto cover = cm_->ResolveAreas(RangePredicate::Closed(lo, hi));
    EXPECT_EQ(cover.size(), 1u);
    return *cover[0].area;
  }

  Catalog catalog_;
  Relation* rel_ = nullptr;
  std::unique_ptr<ChunkMap> cm_;
  std::unique_ptr<PartialMap> map_;
};

TEST_F(PartialMapTest, CreateChunkCopiesAreaWithTailValues) {
  ChunkMapArea& area = ResolveOne(100, 300);
  cm_->FetchArea(area);
  MapChunk& chunk = map_->CreateChunk(area);
  ASSERT_EQ(chunk.size(), area.size());
  const Column& b = rel_->column("B");
  for (size_t i = 0; i < chunk.size(); ++i) {
    EXPECT_EQ(chunk.store.head[i], area.store.head[i]);
    EXPECT_EQ(chunk.store.tail[i],
              b[static_cast<Key>(area.store.tail[i])]);
  }
  EXPECT_EQ(chunk.cursor, area.tape.size());
  EXPECT_NE(map_->FindChunk(area.start), nullptr);
}

TEST_F(PartialMapTest, SiblingChunksAlignAfterCracks) {
  PartialMap map_c(*rel_, "A", "C");
  ChunkMapArea& area = ResolveOne(100, 500);
  cm_->FetchArea(area);
  MapChunk& cb = map_->CreateChunk(area);
  // Crack via the tape; the B chunk replays first.
  area.tape.AppendCrackBound(Bound{250, true});
  map_->AlignChunk(cb, area, area.tape.size());
  // The C chunk is created later from the (lagging) H store, then aligned.
  cm_->FetchArea(area);
  MapChunk& cc = map_c.CreateChunk(area);
  map_c.AlignChunk(cc, area, area.tape.size());
  map_->AlignChunk(cb, area, area.tape.size());
  ASSERT_EQ(cb.store.head, cc.store.head);
  EXPECT_TRUE(CheckCrackInvariant(cb.store, cb.index));
  EXPECT_TRUE(CheckCrackInvariant(cc.store, cc.index));
}

TEST_F(PartialMapTest, PartialAlignmentStopsAtTarget) {
  ChunkMapArea& area = ResolveOne(100, 500);
  cm_->FetchArea(area);
  MapChunk& chunk = map_->CreateChunk(area);
  area.tape.AppendCrackBound(Bound{200, true});
  area.tape.AppendCrackBound(Bound{300, true});
  area.tape.AppendCrackBound(Bound{400, true});
  map_->AlignChunk(chunk, area, 2);
  EXPECT_EQ(chunk.cursor, 2u);
  EXPECT_TRUE(chunk.index.FindSplit(Bound{200, true}).has_value());
  EXPECT_TRUE(chunk.index.FindSplit(Bound{300, true}).has_value());
  EXPECT_FALSE(chunk.index.FindSplit(Bound{400, true}).has_value());
  map_->AlignChunk(chunk, area, area.tape.size());
  EXPECT_TRUE(chunk.index.FindSplit(Bound{400, true}).has_value());
}

TEST_F(PartialMapTest, HeadDropHalvesStorageAndRecovers) {
  ChunkMapArea& area = ResolveOne(100, 400);
  cm_->FetchArea(area);
  MapChunk& chunk = map_->CreateChunk(area);
  area.tape.AppendCrackBound(Bound{250, true});
  map_->AlignChunk(chunk, area, area.tape.size());
  const std::vector<Value> head_before = chunk.store.head;
  const size_t full_cost = chunk.StorageHalfTuples();
  map_->DropHead(chunk);
  EXPECT_TRUE(chunk.store.head_dropped);
  EXPECT_EQ(chunk.StorageHalfTuples(), full_cost / 2);
  map_->RecoverHead(chunk, area);
  EXPECT_FALSE(chunk.store.head_dropped);
  EXPECT_EQ(chunk.store.head, head_before);
}

TEST_F(PartialMapTest, HeadRecoveryViaScratchReplayWhenHLags) {
  ChunkMapArea& area = ResolveOne(100, 400);
  cm_->FetchArea(area);
  MapChunk& chunk = map_->CreateChunk(area);
  // Chunk replays a crack; H's store stays behind (h_cursor lags).
  area.tape.AppendCrackBound(Bound{250, true});
  map_->AlignChunk(chunk, area, area.tape.size());
  ASSERT_LT(area.h_cursor, chunk.cursor);
  const std::vector<Value> head_before = chunk.store.head;
  map_->DropHead(chunk);
  map_->RecoverHead(chunk, area);
  EXPECT_EQ(chunk.store.head, head_before);
}

TEST_F(PartialMapTest, HeadRecoveryRebuildsWhenHIsAhead) {
  ChunkMapArea& area = ResolveOne(100, 400);
  cm_->FetchArea(area);
  MapChunk& chunk = map_->CreateChunk(area);
  map_->DropHead(chunk);
  // H races ahead of the chunk.
  area.tape.AppendCrackBound(Bound{250, true});
  cm_->AlignArea(area);
  ASSERT_GT(area.h_cursor, chunk.cursor);
  map_->RecoverHead(chunk, area);
  EXPECT_FALSE(chunk.store.head_dropped);
  EXPECT_EQ(chunk.cursor, area.h_cursor);
  EXPECT_EQ(chunk.store.head, area.store.head);
  // Tail values refetched from base stay row-aligned with the head.
  const Column& b = rel_->column("B");
  for (size_t i = 0; i < chunk.size(); ++i) {
    EXPECT_EQ(chunk.store.tail[i], b[static_cast<Key>(area.store.tail[i])]);
  }
}

TEST_F(PartialMapTest, AlignRecoversDroppedHeadAutomatically) {
  ChunkMapArea& area = ResolveOne(100, 400);
  cm_->FetchArea(area);
  MapChunk& chunk = map_->CreateChunk(area);
  map_->DropHead(chunk);
  area.tape.AppendCrackBound(Bound{300, false});
  map_->AlignChunk(chunk, area, area.tape.size());
  EXPECT_FALSE(chunk.store.head_dropped);
  EXPECT_TRUE(chunk.index.FindSplit(Bound{300, false}).has_value());
  EXPECT_TRUE(CheckCrackInvariant(chunk.store, chunk.index));
}

TEST_F(PartialMapTest, InsertReplayFetchesTailFromBase) {
  ChunkMapArea& area = ResolveOne(100, 400);
  cm_->FetchArea(area);
  MapChunk& chunk = map_->CreateChunk(area);
  const Value row[] = {222, 31337, 1};
  const Key k = rel_->AppendRow(row);
  cm_->PullUpdates(RangePredicate::Closed(100, 400));
  ASSERT_EQ(area.tape.size(), 1u);
  map_->AlignChunk(chunk, area, area.tape.size());
  bool found = false;
  for (size_t i = 0; i < chunk.size(); ++i) {
    if (chunk.store.head[i] == 222 && chunk.store.tail[i] == 31337) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  (void)k;
}

TEST_F(PartialMapTest, DropChunkForgetsChunkOnly) {
  ChunkMapArea& area = ResolveOne(100, 400);
  cm_->FetchArea(area);
  map_->CreateChunk(area);
  EXPECT_EQ(map_->StorageHalfTuples(), 2 * area.size());
  map_->DropChunk(area.start);
  EXPECT_EQ(map_->FindChunk(area.start), nullptr);
  EXPECT_EQ(map_->StorageHalfTuples(), 0u);
}

}  // namespace
}  // namespace crackdb
