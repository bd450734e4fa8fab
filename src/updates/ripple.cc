#include "updates/ripple.h"

#include <cassert>

namespace crackdb {

void RippleInsert(CrackPairs& store, CrackerIndex& index, Value head_value,
                  Value tail_value) {
  assert(!store.head_dropped);
  store.PushBack(0, 0);  // the hole
  // Bound-based walk: splits of empty pieces can sit at the insertion
  // position with bounds the new value satisfies; only splits strictly
  // above the value move.
  const size_t hole = index.RippleUp(store, Bound{head_value, true});
  store.SetEntry(hole, head_value, tail_value);
}

void RippleDeleteAt(CrackPairs& store, CrackerIndex& index, size_t pos) {
  assert(!store.head_dropped);
  assert(pos < store.size());
  // The entry's value names its piece: the one FindEntry searched.
  [[maybe_unused]] const size_t hole =
      index.RippleDown(store, Bound{store.head[pos], true}, pos);
  assert(hole == store.size() - 1);
  store.PopBack();
}

std::optional<size_t> FindEntry(const CrackPairs& store,
                                const CrackerIndex& index, Value head_value,
                                Value tail_value) {
  const CrackerIndex::Piece piece =
      index.FindPiece(Bound{head_value, true}, store.size());
  for (size_t i = piece.begin; i < piece.end; ++i) {
    if (store.tail[i] == tail_value && store.head[i] == head_value) return i;
  }
  return std::nullopt;
}

void MergeUpdate(CrackPairs& store, CrackerIndex& index,
                 const PendingUpdate& update) {
  const Value key = static_cast<Value>(update.key);
  if (update.kind == UpdateEvent::Kind::kInsert) {
    RippleInsert(store, index, update.head_value, key);
  } else if (auto pos = FindEntry(store, index, update.head_value, key)) {
    RippleDeleteAt(store, index, *pos);
  }
}

}  // namespace crackdb
