#include "cracking/cracker_index.h"

#include <algorithm>
#include <cassert>

#include "cracking/crack.h"

namespace crackdb {

struct CrackerIndex::Node {
  Bound bound;
  // Dead data while `deleted`: AddSplit overwrites it on revival and no
  // lookup reads it before, so the Ripple walks leave it alone.
  size_t pos = 0;
  bool deleted = false;
  int height = 1;
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;

  Node(const Bound& b, size_t p) : bound(b), pos(p) {}
};

namespace {

using Node = CrackerIndex::Node;

int HeightOf(const std::unique_ptr<Node>& n) { return n ? n->height : 0; }

void UpdateHeight(Node* n) {
  n->height = 1 + std::max(HeightOf(n->left), HeightOf(n->right));
}

void RotateRight(std::unique_ptr<Node>& n) {
  std::unique_ptr<Node> l = std::move(n->left);
  n->left = std::move(l->right);
  UpdateHeight(n.get());
  l->right = std::move(n);
  n = std::move(l);
  UpdateHeight(n.get());
}

void RotateLeft(std::unique_ptr<Node>& n) {
  std::unique_ptr<Node> r = std::move(n->right);
  n->right = std::move(r->left);
  UpdateHeight(n.get());
  r->left = std::move(n);
  n = std::move(r);
  UpdateHeight(n.get());
}

void Rebalance(std::unique_ptr<Node>& n) {
  UpdateHeight(n.get());
  const int balance = HeightOf(n->left) - HeightOf(n->right);
  if (balance > 1) {
    if (HeightOf(n->left->left) < HeightOf(n->left->right)) {
      RotateLeft(n->left);
    }
    RotateRight(n);
  } else if (balance < -1) {
    if (HeightOf(n->right->right) < HeightOf(n->right->left)) {
      RotateRight(n->right);
    }
    RotateLeft(n);
  }
}

/// Inserts (or revives/updates) `bound` -> `pos`. Returns true if a new
/// node was allocated.
bool Insert(std::unique_ptr<Node>& n, const Bound& bound, size_t pos,
            bool* revived) {
  if (!n) {
    n = std::make_unique<Node>(bound, pos);
    return true;
  }
  bool allocated = false;
  if (BoundLess(bound, n->bound)) {
    allocated = Insert(n->left, bound, pos, revived);
  } else if (BoundLess(n->bound, bound)) {
    allocated = Insert(n->right, bound, pos, revived);
  } else {
    *revived = n->deleted;
    n->deleted = false;
    n->pos = pos;
    return false;
  }
  Rebalance(n);
  return allocated;
}

const Node* Find(const Node* n, const Bound& bound) {
  while (n != nullptr) {
    if (BoundLess(bound, n->bound)) {
      n = n->left.get();
    } else if (BoundLess(n->bound, bound)) {
      n = n->right.get();
    } else {
      return n;
    }
  }
  return nullptr;
}

// The lookups below want the nearest *live* node. A lazily-deleted node on
// the search path can hide it in the subtree the plain descent skips, so
// each falls back to the nearest live node of that subtree.

const Node* FirstLive(const Node* n) {
  if (n == nullptr) return nullptr;
  if (const Node* l = FirstLive(n->left.get())) return l;
  return n->deleted ? FirstLive(n->right.get()) : n;
}

const Node* LastLive(const Node* n) {
  if (n == nullptr) return nullptr;
  if (const Node* r = LastLive(n->right.get())) return r;
  return n->deleted ? LastLive(n->left.get()) : n;
}

/// Greatest live node with node->bound <= bound (i.e., not greater).
const Node* FloorNode(const Node* n, const Bound& bound) {
  if (n == nullptr) return nullptr;
  if (BoundLess(bound, n->bound)) return FloorNode(n->left.get(), bound);
  if (const Node* r = FloorNode(n->right.get(), bound)) return r;
  return n->deleted ? LastLive(n->left.get()) : n;
}

/// Smallest live node with bound < node->bound (strictly greater).
const Node* CeilAboveNode(const Node* n, const Bound& bound) {
  if (n == nullptr) return nullptr;
  if (!BoundLess(bound, n->bound)) return CeilAboveNode(n->right.get(), bound);
  if (const Node* l = CeilAboveNode(n->left.get(), bound)) return l;
  return n->deleted ? FirstLive(n->right.get()) : n;
}

template <typename NodeT, typename Fn>
void InOrder(NodeT* n, Fn& fn) {
  if (n == nullptr) return;
  InOrder<NodeT>(n->left.get(), fn);
  fn(n);
  InOrder<NodeT>(n->right.get(), fn);
}

template <typename Fn>
void ReverseInOrder(Node* n, Fn& fn) {
  if (n == nullptr) return;
  ReverseInOrder(n->right.get(), fn);
  fn(n);
  ReverseInOrder(n->left.get(), fn);
}

/// Nodes strictly above `cut`, in ascending cut order. A node at or below
/// the cut prunes its left subtree and one above it brings its whole right
/// subtree, so the walk costs O(height + nodes visited).
template <typename Fn>
void AscendAbove(Node* n, const Bound& cut, Fn& fn) {
  while (n != nullptr && !BoundLess(cut, n->bound)) n = n->right.get();
  if (n == nullptr) return;
  AscendAbove(n->left.get(), cut, fn);
  fn(n);
  InOrder<Node>(n->right.get(), fn);
}

/// The nodes of AscendAbove, in descending cut order.
template <typename Fn>
void DescendAbove(Node* n, const Bound& cut, Fn& fn) {
  while (n != nullptr) {
    if (BoundLess(cut, n->bound)) {
      ReverseInOrder(n->right.get(), fn);
      fn(n);
      n = n->left.get();
    } else {
      n = n->right.get();
    }
  }
}

/// Calls `fn` on every piece in value order; deleted splits are invisible.
template <typename Fn>
void ForEachPiece(const Node* root, size_t store_size, Fn fn) {
  CrackerIndex::Piece current;
  auto visit = [&](const Node* n) {
    if (n->deleted) return;
    current.end = n->pos;
    current.upper = n->bound;
    current.has_upper = true;
    fn(current);
    current = CrackerIndex::Piece{};
    current.begin = n->pos;
    current.lower = n->bound;
    current.has_lower = true;
  };
  InOrder<const Node>(root, visit);
  current.end = store_size;
  fn(current);
}

void MarkDeletedRec(Node* n) {
  if (n == nullptr) return;
  MarkDeletedRec(n->left.get());
  n->deleted = true;
  MarkDeletedRec(n->right.get());
}

}  // namespace

CrackerIndex::CrackerIndex() = default;
CrackerIndex::~CrackerIndex() {
  // Iterative teardown: deep trees would overflow the stack with the
  // default recursive unique_ptr destruction on adversarial histories.
  std::vector<std::unique_ptr<Node>> stack;
  if (root_) stack.push_back(std::move(root_));
  while (!stack.empty()) {
    std::unique_ptr<Node> n = std::move(stack.back());
    stack.pop_back();
    if (n->left) stack.push_back(std::move(n->left));
    if (n->right) stack.push_back(std::move(n->right));
  }
}

CrackerIndex::CrackerIndex(CrackerIndex&&) noexcept = default;
CrackerIndex& CrackerIndex::operator=(CrackerIndex&&) noexcept = default;

void CrackerIndex::AddSplit(const Bound& bound, size_t pos) {
  bool revived = false;
  const bool allocated = Insert(root_, bound, pos, &revived);
  if (allocated) {
    ++num_nodes_;
    ++num_live_;
  } else if (revived) {
    ++num_live_;
  }
}

std::optional<size_t> CrackerIndex::FindSplit(const Bound& bound) const {
  const Node* n = Find(root_.get(), bound);
  if (n == nullptr || n->deleted) return std::nullopt;
  return n->pos;
}

CrackerIndex::Piece CrackerIndex::FindPiece(const Bound& bound,
                                            size_t store_size) const {
  Piece piece;
  piece.end = store_size;
  const Node* lo = FloorNode(root_.get(), bound);
  if (lo != nullptr) {
    piece.begin = lo->pos;
    piece.lower = lo->bound;
    piece.has_lower = true;
  }
  const Node* hi = CeilAboveNode(root_.get(), bound);
  if (hi != nullptr) {
    piece.end = hi->pos;
    piece.upper = hi->bound;
    piece.has_upper = true;
  }
  return piece;
}

PositionRange CrackerIndex::FindArea(const RangePredicate& pred,
                                     size_t store_size) const {
  // Lower edge: pieces entirely below the predicate start are excluded.
  // The tightest known start is the greatest split bound that admits no
  // value below pred's lower edge, i.e., floor of Bound{low, low_inclusive}.
  size_t begin = 0;
  if (pred.low != kMinValue) {
    const Bound b{pred.low, pred.low_inclusive};
    const Node* lo = FloorNode(root_.get(), b);
    if (lo != nullptr) begin = lo->pos;
  }
  size_t end = store_size;
  if (pred.high != kMaxValue) {
    const Bound b{pred.high, !pred.high_inclusive};
    const Node* hi = Find(root_.get(), b);
    if (hi == nullptr || hi->deleted) hi = CeilAboveNode(root_.get(), b);
    if (hi != nullptr) end = hi->pos;
  }
  if (begin > end) begin = end;
  return {begin, end};
}

std::vector<CrackerIndex::Piece> CrackerIndex::Pieces(
    size_t store_size) const {
  std::vector<Piece> pieces;
  pieces.reserve(num_live_ + 1);
  ForEachPiece(root_.get(), store_size,
               [&](const Piece& p) { pieces.push_back(p); });
  return pieces;
}

CrackerIndex::Estimate CrackerIndex::EstimateMatches(
    const RangePredicate& pred, size_t store_size) const {
  // Every split bound is a *cut point* in value space: Bound{v, inclusive}
  // cuts just below v, Bound{v, exclusive} just above it (BoundLess is the
  // cut order). A piece spans the half-open cut interval
  // [cut(lower), cut(upper)); the predicate spans
  // [cut{low, low_inclusive}, cut{high, !high_inclusive}).
  Estimate est;
  const Bound pred_lo{pred.low, pred.low_inclusive};
  const Bound pred_hi{pred.high, !pred.high_inclusive};
  const bool lo_unbounded = pred.low == kMinValue && pred.low_inclusive;
  const bool hi_unbounded = pred.high == kMaxValue && pred.high_inclusive;
  auto cut_leq = [](const Bound& a, const Bound& b) {
    return !BoundLess(b, a);
  };

  ForEachPiece(root_.get(), store_size, [&](const Piece& p) {
    if (p.begin >= p.end) return;
    // Disjoint: piece entirely below pred (upper cut <= pred lower cut) or
    // entirely above (pred upper cut <= piece lower cut).
    if (!lo_unbounded && p.has_upper && cut_leq(p.upper, pred_lo)) return;
    if (!hi_unbounded && p.has_lower && cut_leq(pred_hi, p.lower)) return;
    const size_t sz = p.end - p.begin;
    est.upper_bound += sz;

    const bool low_inside =
        lo_unbounded || (p.has_lower && cut_leq(pred_lo, p.lower));
    const bool high_inside =
        hi_unbounded || (p.has_upper && cut_leq(p.upper, pred_hi));
    if (low_inside && high_inside) {
      est.lower_bound += sz;
      est.interpolated += static_cast<double>(sz);
      return;
    }
    // Boundary piece: interpolate the matching fraction assuming uniform
    // values within the piece's known value interval (Section 3.3 suggests
    // exactly this tightening).
    const double piece_lo = p.has_lower ? static_cast<double>(p.lower.value)
                                        : static_cast<double>(pred.low);
    const double piece_hi = p.has_upper ? static_cast<double>(p.upper.value)
                                        : static_cast<double>(pred.high);
    const double sel_lo = std::max(piece_lo, static_cast<double>(pred.low));
    const double sel_hi = std::min(piece_hi, static_cast<double>(pred.high));
    const double width = piece_hi - piece_lo;
    const double frac =
        width > 0 ? std::clamp((sel_hi - sel_lo) / width, 0.0, 1.0) : 0.5;
    est.interpolated += frac * static_cast<double>(sz);
  });
  return est;
}

size_t CrackerIndex::RippleUp(CrackPairs& store, const Bound& cut) {
  // The hole sits at the end of each visited piece: a non-empty piece
  // hands it its first entry, an empty one leaves it in place.
  size_t hole = store.size() - 1;
  auto step = [&](Node* n) {
    if (n->deleted) return;
    if (n->pos < hole) store.MoveEntry(n->pos, hole);
    hole = n->pos++;
  };
  DescendAbove(root_.get(), cut, step);
  return hole;
}

size_t CrackerIndex::RippleDown(CrackPairs& store, const Bound& cut,
                                size_t hole) {
  // The hole sits just below each piece being closed (inside the first):
  // a non-empty piece hands it its last entry, an empty one leaves it.
  auto close_piece = [&](size_t end) {
    if (end - 1 > hole) store.MoveEntry(end - 1, hole);
    hole = end - 1;
  };
  auto step = [&](Node* n) {
    if (!n->deleted) close_piece(n->pos--);
  };
  AscendAbove(root_.get(), cut, step);
  close_piece(store.size());
  return hole;
}

std::vector<std::pair<Bound, size_t>> CrackerIndex::LiveSplits() const {
  std::vector<std::pair<Bound, size_t>> splits;
  splits.reserve(num_live_);
  auto visit = [&](const Node* n) {
    if (!n->deleted) splits.emplace_back(n->bound, n->pos);
  };
  InOrder<const Node>(root_.get(), visit);
  return splits;
}

CrackerIndex CrackerIndex::CloneLive() const {
  CrackerIndex clone;
  for (const auto& [bound, pos] : LiveSplits()) clone.AddSplit(bound, pos);
  return clone;
}

void CrackerIndex::MarkAllDeleted() {
  MarkDeletedRec(root_.get());
  num_live_ = 0;
}

}  // namespace crackdb
