#include "core/tape.h"

#include <algorithm>
#include <cassert>

#include "storage/column.h"
#include "updates/ripple.h"

namespace crackdb {

size_t Replay(const CrackerTape& tape, size_t from, size_t to,
              CrackPairs& store, CrackerIndex& index, const Column* tail) {
  assert(to <= tape.size());
  for (size_t c = from; c < to; ++c) {
    const TapeEntry& entry = tape.at(c);
    switch (entry.kind) {
      case TapeEntry::Kind::kCrack:
        CrackOnPredicate(store, index, entry.pred);
        break;
      case TapeEntry::Kind::kCrackBound:
        EnsureSplit(store, index, entry.bound);
        break;
      case TapeEntry::Kind::kInsert:
        RippleInsert(store, index, entry.head_value,
                     tail != nullptr ? (*tail)[entry.key]
                                     : static_cast<Value>(entry.key));
        break;
      case TapeEntry::Kind::kDelete:
        RippleDeleteAt(store, index, entry.pos);
        break;
      case TapeEntry::Kind::kSort:
        SortPiece(store, index, entry.piece_lower);
        break;
    }
  }
  return std::max(from, to);
}

CrackPairs ResolveTails(const CrackPairs& keyed, const Column* tail) {
  CrackPairs out = keyed;
  if (tail != nullptr) {
    for (Value& v : out.tail) v = (*tail)[static_cast<size_t>(v)];
  }
  return out;
}

}  // namespace crackdb
