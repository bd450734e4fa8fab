// Replica identity across random histories (paper Section 3.2, and
// Section 4.1 for partial maps): every replica of a set that sits at the
// same tape point holds the same layout — the same head column, the same
// live splits, and tails that name the same rows position by position.
// Tuple reconstruction by position is only correct while this holds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/map_set.h"
#include "core/partial_sideways.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

constexpr Value kDomain = 1000;
const std::vector<std::string> kTails = {"B", "C", "D"};

Relation& BuildRelation(Catalog* catalog, size_t rows, uint64_t seed) {
  Relation& rel = catalog->CreateRelation("R");
  rel.AddColumn("A");
  for (const std::string& tail : kTails) rel.AddColumn(tail);
  Rng rng(seed);
  std::vector<Value> row(1 + kTails.size());
  for (size_t i = 0; i < rows; ++i) {
    for (Value& v : row) v = rng.Uniform(1, kDomain);
    rel.BulkLoadRow(row);
  }
  return rel;
}

RangePredicate RandomRange(Rng& rng) {
  const Value lo = rng.Uniform(1, kDomain);
  const Value hi = lo + rng.Uniform(0, kDomain / 8);
  switch (rng.Uniform(0, 2)) {
    case 0:
      return RangePredicate::Closed(lo, hi);
    case 1:
      return RangePredicate::HalfOpen(lo, hi);
    default:
      return RangePredicate::Open(lo, hi);
  }
}

const std::string& RandomTail(Rng& rng) {
  return kTails[static_cast<size_t>(
      rng.Uniform(0, static_cast<Value>(kTails.size()) - 1))];
}

/// Appends a fresh random row or tombstones a random live one, through the
/// relation log that every cracked structure pulls from.
void RandomUpdate(Relation& rel, Rng& rng) {
  if (rel.num_live_rows() == 0 || rng.Bernoulli(0.5)) {
    std::vector<Value> row(rel.num_columns());
    for (Value& v : row) v = rng.Uniform(1, kDomain);
    rel.AppendRow(row);
    return;
  }
  Key key;
  do {
    key = static_cast<Key>(
        rng.Uniform(0, static_cast<Value>(rel.num_rows()) - 1));
  } while (rel.IsDeleted(key));
  rel.DeleteRow(key);
}

/// `tail` holds, position by position, the `base` values of the rows whose
/// keys `keys` holds.
void ExpectTailsNameKeys(const std::vector<Value>& tail,
                         const std::vector<Value>& keys, const Column& base) {
  std::vector<Value> expected;
  expected.reserve(keys.size());
  for (Value key : keys) expected.push_back(base[static_cast<size_t>(key)]);
  EXPECT_EQ(tail, expected);
}

// ---------------------------------------------------------------------------
// Full maps: a set of maps M_AB plus a key-tailed replica. The replica is
// built under the deletion map's tail name, so it is created and replayed
// exactly as M_A,key is.
// ---------------------------------------------------------------------------

/// Compares every map that sits at the tape end with the key-tailed
/// replica (aligned here). Returns how many maps were compared.
size_t CheckMapsAtTapeEnd(MapSet& set, CrackerMap& keys, const Relation& rel) {
  set.Align(keys);
  size_t compared = 0;
  for (const std::string& name : set.MapNames()) {
    if (name == kKeyMapAttr) continue;
    CrackerMap& map = set.GetOrCreateMap(name);
    if (map.cursor() != set.tape().size()) continue;
    ++compared;
    SCOPED_TRACE("map " + name);
    EXPECT_EQ(map.store().head, keys.store().head);
    EXPECT_EQ(map.index().LiveSplits(), keys.index().LiveSplits());
    ExpectTailsNameKeys(map.store().tail, keys.store().tail,
                        rel.column(name));
  }
  return compared;
}

void RunMapSetHistory(uint64_t seed) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 2000, seed);
  MapSet set(rel, "A");
  CrackerMap& keys = set.GetOrCreateMap(kKeyMapAttr);
  Rng rng(seed * 7919 + 1);
  size_t compared = 0;
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const double r = rng.NextDouble();
    if (r < 0.45) {
      CrackerMap& map = set.GetOrCreateMap(RandomTail(rng));
      set.SidewaysSelect(map, RandomRange(rng));
    } else if (r < 0.8) {
      RandomUpdate(rel, rng);
    } else if (r < 0.9) {
      set.DropMap(RandomTail(rng));  // re-created later from the snapshot
    } else {
      // Partial alignment: a map stops somewhere inside the tape.
      CrackerMap& map = set.GetOrCreateMap(RandomTail(rng));
      const size_t target = static_cast<size_t>(rng.Uniform(
          static_cast<Value>(map.cursor()),
          static_cast<Value>(set.tape().size())));
      set.AlignTo(map, target);
    }
    compared += CheckMapsAtTapeEnd(set, keys, rel);
  }
  for (const std::string& tail : kTails) set.Align(set.GetOrCreateMap(tail));
  EXPECT_EQ(CheckMapsAtTapeEnd(set, keys, rel), kTails.size());
  EXPECT_GT(compared, 0u);
}

TEST(ReplicaAlignmentTest, MapSetReplicasMatchTheKeyMap) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunMapSetHistory(seed);
  }
}

// ---------------------------------------------------------------------------
// Partial maps: chunks of every map, the chunk-map areas they were copied
// from, head drops and recoveries, and budget evictions with re-creation.
// ---------------------------------------------------------------------------

void ExpectChunkMatchesArea(const MapChunk& chunk, const ChunkMapArea& area,
                            const Column& base) {
  if (!chunk.store.head_dropped) {
    EXPECT_EQ(chunk.store.head, area.store.head);
  }
  EXPECT_EQ(chunk.index.LiveSplits(), area.index.LiveSplits());
  ExpectTailsNameKeys(chunk.store.tail, area.store.tail, base);
}

/// Compares every chunk whose cursor equals its area's `h_cursor` with the
/// area store. Returns how many chunks were compared.
size_t CheckChunksAtAreaCursor(PartialMapSet& set, const Relation& rel) {
  size_t compared = 0;
  for (const std::string& tail : kTails) {
    if (!set.HasMap(tail)) continue;
    for (auto& [start, chunk] : set.GetOrCreateMap(tail).chunks()) {
      const ChunkMapArea* area = set.chunk_map().AreaByStart(start);
      EXPECT_NE(area, nullptr) << "chunk without an area";
      if (area == nullptr || chunk.cursor != area->h_cursor) continue;
      ++compared;
      SCOPED_TRACE("map " + tail);
      ExpectChunkMatchesArea(chunk, *area, rel.column(tail));
    }
  }
  return compared;
}

/// Recovers every dropped head, then aligns every chunk and its area to the
/// area's tape end.
void AlignEverything(PartialMapSet& set) {
  for (const std::string& tail : kTails) {
    if (!set.HasMap(tail)) continue;
    PartialMap& map = set.GetOrCreateMap(tail);
    for (auto& [start, chunk] : map.chunks()) {
      ChunkMapArea& area = *set.chunk_map().AreaByStart(start);
      map.RecoverHead(chunk, area);
      map.AlignChunk(chunk, area, area.tape.size());
      set.chunk_map().AlignArea(area);
    }
  }
}

PartialQueryRequest RandomRequest(Rng& rng) {
  PartialQueryRequest req;
  req.head_pred = RandomRange(rng);
  if (rng.Bernoulli(0.15)) {
    req.projections = {"A"};  // head-only: the areas answer it
    return req;
  }
  const std::string& sel = RandomTail(rng);
  std::string proj = RandomTail(rng);
  if (proj == sel) proj = sel == kTails[0] ? kTails[1] : kTails[0];
  if (rng.Bernoulli(0.6)) {
    req.tail_selections = {{sel, RandomRange(rng)}};
  }
  req.projections = {proj, sel};
  if (rng.Bernoulli(0.3)) req.projections.push_back("A");
  return req;
}

void RunPartialHistory(uint64_t seed) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 3000, seed);
  // A budget far below the ~3 maps x 2 x 3000 half-tuples a fully
  // materialized set needs: chunks are evicted and re-created.
  StorageManager manager(2500);
  PartialConfig config;
  config.sort_piece_threshold = 48;
  config.enable_head_drop = true;
  config.head_drop_idle_accesses = 3;
  PartialMapSet set(rel, "A", &manager, &config);
  Rng rng(seed * 104729 + 5);
  size_t compared = 0;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (rng.Bernoulli(0.65)) {
      set.Execute(RandomRequest(rng));
    } else {
      RandomUpdate(rel, rng);
    }
    compared += CheckChunksAtAreaCursor(set, rel);
  }
  AlignEverything(set);
  size_t chunks = 0;
  for (const std::string& tail : kTails) {
    if (!set.HasMap(tail)) continue;
    for (const auto& [start, chunk] : set.GetOrCreateMap(tail).chunks()) {
      const ChunkMapArea& area = *set.chunk_map().AreaByStart(start);
      ++chunks;
      EXPECT_FALSE(chunk.store.head_dropped);
      EXPECT_EQ(chunk.cursor, area.h_cursor);
      EXPECT_EQ(area.h_cursor, area.tape.size());
    }
  }
  EXPECT_EQ(CheckChunksAtAreaCursor(set, rel), chunks);
  EXPECT_GT(compared, 0u);
  EXPECT_GT(manager.eviction_count(), 0u);
}

TEST(ReplicaAlignmentTest, ChunksMatchTheirAreas) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunPartialHistory(seed);
  }
}

}  // namespace
}  // namespace crackdb
