#ifndef CRACKDB_CORE_TAPE_H_
#define CRACKDB_CORE_TAPE_H_

#include <optional>
#include <vector>

#include "common/types.h"
#include "cracking/crack.h"
#include "cracking/cracker_index.h"

namespace crackdb {

class Column;

/// One replayable event in a cracker tape. Alignment (paper Section 3.2)
/// works because every entry is applied through deterministic operations:
/// two structures that replay the same entry prefix from the same initial
/// state are byte-identical.
struct TapeEntry {
  enum class Kind {
    /// Physical reorganization on a selection predicate
    /// (full-map tapes log whole predicates).
    kCrack,
    /// Physical reorganization at a single bound (area-local tapes of
    /// partial maps log one bound per boundary crack).
    kCrackBound,
    /// Ripple-insert of the row `key` with organizing value `head_value`;
    /// each map resolves its own tail value through the base columns.
    kInsert,
    /// Ripple-delete at position `pos` (a position in the aligned layout at
    /// this tape point); `key` is kept so a chunk map can drain the entry
    /// physically by key when a tape is removed.
    kDelete,
    /// Stable sort of the piece whose lower split is `piece_lower`
    /// (absent = first piece); logged when a head column is dropped after
    /// full cracking (paper Section 4.1).
    kSort,
  };

  Kind kind = Kind::kCrack;
  RangePredicate pred;                 // kCrack
  Bound bound;                         // kCrackBound
  Key key = kInvalidKey;               // kInsert, kDelete
  Value head_value = 0;                // kInsert, kDelete
  size_t pos = 0;                      // kDelete
  std::optional<Bound> piece_lower;    // kSort
};

/// The cracker tape T_A of a map set S_A (or of one chunk-map area): an
/// append-only log of every crack/update/sort applied to any structure of
/// the set, in occurrence order. Every structure keeps a cursor into the
/// tape; aligning a structure means replaying entries from its cursor to
/// the end (paper Section 3.2).
class CrackerTape {
 public:
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const TapeEntry& at(size_t i) const { return entries_[i]; }

  void AppendCrack(const RangePredicate& pred) {
    TapeEntry e;
    e.kind = TapeEntry::Kind::kCrack;
    e.pred = pred;
    entries_.push_back(e);
  }

  void AppendCrackBound(const Bound& bound) {
    TapeEntry e;
    e.kind = TapeEntry::Kind::kCrackBound;
    e.bound = bound;
    entries_.push_back(e);
  }

  void AppendInsert(Key key, Value head_value) {
    TapeEntry e;
    e.kind = TapeEntry::Kind::kInsert;
    e.key = key;
    e.head_value = head_value;
    entries_.push_back(e);
  }

  void AppendDelete(size_t pos, Key key, Value head_value) {
    TapeEntry e;
    e.kind = TapeEntry::Kind::kDelete;
    e.pos = pos;
    e.key = key;
    e.head_value = head_value;
    entries_.push_back(e);
  }

  void AppendSort(const std::optional<Bound>& piece_lower) {
    TapeEntry e;
    e.kind = TapeEntry::Kind::kSort;
    e.piece_lower = piece_lower;
    entries_.push_back(e);
  }

  void Clear() { entries_.clear(); }

 private:
  std::vector<TapeEntry> entries_;
};

/// Replays tape entries [from, to) onto one replica — a store plus its
/// cracker index — and returns the replica's new cursor, max(from, to).
/// This is the only implementation of alignment (paper Section 3.2, and
/// Section 4.1 for partial maps): full maps M_AB, the deletion map
/// M_A,key, chunk-map areas, chunks, and head-recovery scratch copies all
/// advance through it, so replicas that replay the same entries from the
/// same state end up byte-identical.
///
/// `tail` resolves an inserted row's tail value: the base column of a map
/// or chunk, or null for key-tailed stores (M_A,key, areas, scratch
/// copies), whose tail value is the row key itself.
size_t Replay(const CrackerTape& tape, size_t from, size_t to,
              CrackPairs& store, CrackerIndex& index, const Column* tail);

/// A copy of the key-tailed store `keyed` with every key resolved through
/// `tail` (kept as is when `tail` is null) — how a map or chunk is born
/// from a key-tailed replica at the same tape point. The caller copies
/// the index alongside.
CrackPairs ResolveTails(const CrackPairs& keyed, const Column* tail);

}  // namespace crackdb

#endif  // CRACKDB_CORE_TAPE_H_
