#include "core/partial_map.h"

#include <cassert>

namespace crackdb {

PartialMap::PartialMap(const Relation& relation, std::string head_attr,
                       std::string tail_attr)
    : relation_(&relation),
      head_attr_(std::move(head_attr)),
      tail_attr_(std::move(tail_attr)),
      tail_column_(&relation.column(tail_attr_)) {}

MapChunk* PartialMap::FindChunk(const AreaStart& start) {
  auto it = chunks_.find(start);
  return it == chunks_.end() ? nullptr : &it->second;
}

MapChunk PartialMap::ChunkFromArea(const ChunkMapArea& area) const {
  MapChunk chunk;
  chunk.area_start = area.start;
  chunk.store = ResolveTails(area.store, tail_column_);
  chunk.index = area.index.CloneLive();
  chunk.cursor = area.h_cursor;
  return chunk;
}

MapChunk& PartialMap::CreateChunk(ChunkMapArea& area) {
  assert(area.h_cursor == area.tape.size() && "area must be aligned");
  auto [it, inserted] =
      chunks_.insert_or_assign(area.start, ChunkFromArea(area));
  (void)inserted;
  return it->second;
}

void PartialMap::DropChunk(const AreaStart& start) { chunks_.erase(start); }

void PartialMap::AlignChunk(MapChunk& chunk, ChunkMapArea& area,
                            size_t target_cursor) {
  if (chunk.cursor >= target_cursor) return;
  if (chunk.store.head_dropped) RecoverHead(chunk, area);
  chunk.cursor = Replay(area.tape, chunk.cursor, target_cursor, chunk.store,
                        chunk.index, tail_column_);
}

void PartialMap::DropHead(MapChunk& chunk) {
  if (chunk.store.head_dropped) return;
  chunk.store.DropHead();
}

void PartialMap::RecoverHead(MapChunk& chunk, ChunkMapArea& area) {
  if (!chunk.store.head_dropped) return;
  if (area.h_cursor <= chunk.cursor) {
    // Scratch replay (the paper's head-recovery from a less-aligned source;
    // here the chunk map's own area store is that source): copy the area's
    // (A,key) state, replay forward to the chunk's cursor — determinism
    // makes the resulting head column exactly the chunk's layout.
    CrackPairs scratch = area.store;
    CrackerIndex scratch_index = area.index.CloneLive();
    Replay(area.tape, area.h_cursor, chunk.cursor, scratch, scratch_index,
           /*tail=*/nullptr);
    assert(scratch.head.size() == chunk.store.tail.size());
    chunk.store.RestoreHead(std::move(scratch.head));
    return;
  }
  // The area has replayed past this chunk — rebuild the chunk from the
  // area's current state instead (tail values refetched from base).
  MapChunk rebuilt = ChunkFromArea(area);
  rebuilt.accesses = chunk.accesses;
  rebuilt.last_crack_access = chunk.last_crack_access;
  rebuilt.sm_id = chunk.sm_id;  // keep the storage-manager identity
  chunk = std::move(rebuilt);
}

size_t PartialMap::StorageHalfTuples() const {
  size_t total = 0;
  for (const auto& [start, chunk] : chunks_) {
    total += chunk.StorageHalfTuples();
  }
  return total;
}

}  // namespace crackdb
