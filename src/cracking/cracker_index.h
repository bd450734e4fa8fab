#ifndef CRACKDB_CRACKING_CRACKER_INDEX_H_
#define CRACKDB_CRACKING_CRACKER_INDEX_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"

namespace crackdb {

struct CrackPairs;

/// Comparison over split bounds. A bound `b` names the *threshold of an
/// upper piece*: entries at and beyond the split position satisfy
/// `v >= b.value` when `b.inclusive`, else `v > b.value`. Consequently
/// (v, inclusive) orders before (v, exclusive) at equal values.
inline bool BoundLess(const Bound& a, const Bound& b) {
  if (a.value != b.value) return a.value < b.value;
  return a.inclusive && !b.inclusive;
}

/// Whether `v` belongs to the upper side of split bound `b`.
inline bool SatisfiesBound(const Bound& b, Value v) {
  return b.inclusive ? v >= b.value : v > b.value;
}

/// The cracker index: an AVL tree over split bounds, each node recording
/// the position where the corresponding upper piece starts in the cracked
/// store (paper Section 2.2). Between two adjacent splits lies one *piece*
/// whose value range is known exactly — which is why the paper can read the
/// index as a self-organizing histogram (Section 3.3).
///
/// Nodes support *lazy deletion* (Section 4.1, "Storage Management"): when
/// a chunk or map is dropped its splits are only marked deleted, so that a
/// later recreation replaying the same crack history revives them without
/// re-allocating tree structure.
class CrackerIndex {
 public:
  /// One piece of the cracked store: positions [begin, end). `lower` /
  /// `upper` are the split bounds delimiting it; when `has_lower` is false
  /// the piece extends from the start of the store (no lower split), and
  /// likewise for `has_upper`.
  struct Piece {
    size_t begin = 0;
    size_t end = 0;
    Bound lower;  // valid iff has_lower; entries satisfy this bound
    Bound upper;  // valid iff has_upper; entries do NOT satisfy it
    bool has_lower = false;
    bool has_upper = false;
  };

  /// Result-size estimate derived from the index (self-organizing
  /// histogram): [lower_bound, upper_bound] plus an interpolated estimate.
  struct Estimate {
    size_t lower_bound = 0;
    size_t upper_bound = 0;
    double interpolated = 0;
  };

  CrackerIndex();
  ~CrackerIndex();

  CrackerIndex(CrackerIndex&&) noexcept;
  CrackerIndex& operator=(CrackerIndex&&) noexcept;
  CrackerIndex(const CrackerIndex&) = delete;
  CrackerIndex& operator=(const CrackerIndex&) = delete;

  bool empty() const { return num_live_ == 0; }

  /// Number of live (non-lazily-deleted) splits.
  size_t num_splits() const { return num_live_; }

  /// Registers that the upper piece for `bound` starts at `pos`. If a
  /// lazily-deleted node with this bound exists it is revived in place.
  void AddSplit(const Bound& bound, size_t pos);

  /// Position of the live split with exactly this bound, if present.
  std::optional<size_t> FindSplit(const Bound& bound) const;

  /// The piece into which `bound` falls, i.e., the gap between the greatest
  /// live split <= bound and the smallest live split > bound.
  /// `store_size` caps the final piece.
  Piece FindPiece(const Bound& bound, size_t store_size) const;

  /// Contiguous area of pieces that can contain values matching `pred`.
  /// (Values strictly below pred.low's bound are excluded on the left,
  /// values beyond pred.high's on the right, to split precision.)
  PositionRange FindArea(const RangePredicate& pred, size_t store_size) const;

  /// All pieces, in value order. Deleted splits are invisible.
  std::vector<Piece> Pieces(size_t store_size) const;

  /// Self-organizing histogram: bounds and an interpolated estimate of the
  /// number of tuples matching `pred` (paper Section 3.3, including the
  /// boundary-piece interpolation refinement).
  Estimate EstimateMatches(const RangePredicate& pred, size_t store_size) const;

  /// Ripple walks (paper [8]; src/updates/ripple.h builds insert and
  /// delete from them). Each visits only the live splits strictly above
  /// `cut`, moving one entry per non-empty piece and shifting each split by
  /// one position in the same pass: O(log n + splits above `cut`), no
  /// allocation.
  ///
  /// RippleUp: the last position of `store` is a hole. From the top down,
  /// every non-empty piece above `cut` moves its first entry into the hole
  /// at its end, which then becomes the hole, and every split above `cut`
  /// shifts by +1. Returns the final hole: the end of the piece holding
  /// `cut`.
  size_t RippleUp(CrackPairs& store, const Bound& cut);

  /// RippleDown: `hole` lies in the piece holding `cut`. From the bottom
  /// up, that piece and every non-empty piece above it move their last
  /// entry into the hole, which moves to that entry's old position, and
  /// every split above `cut` shifts by -1. Returns the final hole:
  /// `store.size() - 1`.
  size_t RippleDown(CrackPairs& store, const Bound& cut, size_t hole);

  /// All live splits in cut order as (bound, position) pairs. Chunk
  /// creation clones an area's index through this so that replayed cracks
  /// see identical index states (the precondition for layout determinism).
  std::vector<std::pair<Bound, size_t>> LiveSplits() const;

  /// Exact deep copy of the live splits (lazily-deleted nodes are not
  /// carried over).
  CrackerIndex CloneLive() const;

  /// Lazily deletes every split (dropping a chunk/map). The structure is
  /// retained; AddSplit revives matching nodes.
  void MarkAllDeleted();

  /// Total node count including lazily deleted ones (for tests/metrics).
  size_t num_nodes() const { return num_nodes_; }

  /// AVL node; public only so implementation helpers can name it.
  struct Node;

 private:
  std::unique_ptr<Node> root_;
  size_t num_live_ = 0;
  size_t num_nodes_ = 0;
};

}  // namespace crackdb

#endif  // CRACKDB_CRACKING_CRACKER_INDEX_H_
