#include "cracking/cracker_index.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "cracking/crack.h"

namespace crackdb {
namespace {

TEST(BoundTest, CutOrder) {
  // (v, inclusive) cuts just below v, (v, exclusive) just above it.
  EXPECT_TRUE(BoundLess(Bound{5, true}, Bound{5, false}));
  EXPECT_FALSE(BoundLess(Bound{5, false}, Bound{5, true}));
  EXPECT_TRUE(BoundLess(Bound{4, false}, Bound{5, true}));
  EXPECT_FALSE(BoundLess(Bound{5, true}, Bound{5, true}));
}

TEST(BoundTest, SatisfiesBound) {
  EXPECT_TRUE(SatisfiesBound(Bound{5, true}, 5));
  EXPECT_FALSE(SatisfiesBound(Bound{5, false}, 5));
  EXPECT_TRUE(SatisfiesBound(Bound{5, false}, 6));
  EXPECT_FALSE(SatisfiesBound(Bound{5, true}, 4));
}

TEST(CrackerIndexTest, EmptyIndex) {
  CrackerIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.num_splits(), 0u);
  const auto piece = index.FindPiece(Bound{10, true}, 100);
  EXPECT_EQ(piece.begin, 0u);
  EXPECT_EQ(piece.end, 100u);
  EXPECT_FALSE(piece.has_lower);
  EXPECT_FALSE(piece.has_upper);
  const auto pieces = index.Pieces(100);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].begin, 0u);
  EXPECT_EQ(pieces[0].end, 100u);
}

TEST(CrackerIndexTest, AddAndFindSplit) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 40);
  index.AddSplit(Bound{20, false}, 70);
  EXPECT_EQ(index.num_splits(), 2u);
  EXPECT_EQ(index.FindSplit(Bound{10, true}).value(), 40u);
  EXPECT_EQ(index.FindSplit(Bound{20, false}).value(), 70u);
  EXPECT_FALSE(index.FindSplit(Bound{10, false}).has_value());
  EXPECT_FALSE(index.FindSplit(Bound{15, true}).has_value());
}

TEST(CrackerIndexTest, FindPieceBetweenSplits) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 40);
  index.AddSplit(Bound{20, true}, 70);
  const auto piece = index.FindPiece(Bound{15, true}, 100);
  EXPECT_EQ(piece.begin, 40u);
  EXPECT_EQ(piece.end, 70u);
  ASSERT_TRUE(piece.has_lower);
  ASSERT_TRUE(piece.has_upper);
  EXPECT_EQ(piece.lower.value, 10);
  EXPECT_EQ(piece.upper.value, 20);
}

TEST(CrackerIndexTest, FindPieceAtExactSplit) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 40);
  // The cut (10, true) is itself a split: floor is that split, the piece
  // starts there.
  const auto piece = index.FindPiece(Bound{10, true}, 100);
  EXPECT_EQ(piece.begin, 40u);
  EXPECT_EQ(piece.end, 100u);
}

TEST(CrackerIndexTest, PiecesEnumeration) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, false}, 60);
  index.AddSplit(Bound{30, true}, 80);
  const auto pieces = index.Pieces(100);
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0].begin, 0u);
  EXPECT_EQ(pieces[0].end, 30u);
  EXPECT_EQ(pieces[1].begin, 30u);
  EXPECT_EQ(pieces[1].end, 60u);
  EXPECT_EQ(pieces[2].begin, 60u);
  EXPECT_EQ(pieces[2].end, 80u);
  EXPECT_EQ(pieces[3].begin, 80u);
  EXPECT_EQ(pieces[3].end, 100u);
  EXPECT_FALSE(pieces[0].has_lower);
  EXPECT_TRUE(pieces[3].has_lower);
  EXPECT_FALSE(pieces[3].has_upper);
}

TEST(CrackerIndexTest, FindAreaCoversPredicate) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, false}, 60);
  // Predicate [10, 20] matches splits exactly: area = [30, 60).
  const PositionRange area =
      index.FindArea(RangePredicate::Closed(10, 20), 100);
  EXPECT_EQ(area.begin, 30u);
  EXPECT_EQ(area.end, 60u);
  // Wider predicate extends into neighbouring pieces.
  const PositionRange wide = index.FindArea(RangePredicate::Closed(5, 25), 100);
  EXPECT_EQ(wide.begin, 0u);
  EXPECT_EQ(wide.end, 100u);
}

/// Store heads {1, 2 | 12, 13 | (15) | 17 | 25}: the piece for exactly 15
/// is empty, so splits (15, inclusive) and (15, exclusive) share position 4.
void MakeRippleFixture(CrackPairs* store, CrackerIndex* index) {
  for (Value v : {1, 2, 12, 13, 17, 25}) store->PushBack(v, v * 10);
  index->AddSplit(Bound{10, true}, 2);
  index->AddSplit(Bound{15, true}, 4);
  index->AddSplit(Bound{15, false}, 4);
  index->AddSplit(Bound{20, true}, 5);
}

TEST(CrackerIndexTest, RippleUpMovesOnlyPiecesAboveTheCut) {
  CrackPairs store;
  CrackerIndex index;
  MakeRippleFixture(&store, &index);
  store.PushBack(0, 0);  // the hole
  // Inserting 15: the empty piece's lower split (15, inclusive) stays, the
  // two non-empty pieces above donate their first entries.
  const size_t hole = index.RippleUp(store, Bound{15, true});
  EXPECT_EQ(hole, 4u);
  store.SetEntry(hole, 15, 150);
  EXPECT_EQ(store.head, (std::vector<Value>{1, 2, 12, 13, 15, 17, 25}));
  EXPECT_EQ(store.tail, (std::vector<Value>{10, 20, 120, 130, 150, 170, 250}));
  EXPECT_EQ(index.FindSplit(Bound{10, true}).value(), 2u);
  EXPECT_EQ(index.FindSplit(Bound{15, true}).value(), 4u);
  EXPECT_EQ(index.FindSplit(Bound{15, false}).value(), 5u);
  EXPECT_EQ(index.FindSplit(Bound{20, true}).value(), 6u);
}

TEST(CrackerIndexTest, RippleDownClosesTheHoleUpward) {
  CrackPairs store;
  CrackerIndex index;
  MakeRippleFixture(&store, &index);
  // Deleting the 2 at position 1: every piece from its own upward gives
  // its last entry, and every split above (2, inclusive) shifts down.
  EXPECT_EQ(index.RippleDown(store, Bound{2, true}, 1), 5u);
  store.PopBack();
  EXPECT_EQ(store.head, (std::vector<Value>{1, 13, 12, 17, 25}));
  EXPECT_EQ(index.FindSplit(Bound{10, true}).value(), 1u);
  EXPECT_EQ(index.FindSplit(Bound{15, true}).value(), 3u);
  EXPECT_EQ(index.FindSplit(Bound{15, false}).value(), 3u);
  EXPECT_EQ(index.FindSplit(Bound{20, true}).value(), 4u);
}

TEST(CrackerIndexTest, RippleWalksSkipDeletedSplitsAndRevivalResetsThem) {
  CrackPairs store;
  CrackerIndex index;
  MakeRippleFixture(&store, &index);
  index.MarkAllDeleted();
  // With every split deleted the store is one piece: nothing moves.
  store.PushBack(0, 0);
  EXPECT_EQ(index.RippleUp(store, Bound{3, true}), 6u);
  store.SetEntry(6, 3, 30);
  EXPECT_EQ(index.RippleDown(store, Bound{2, true}, 1), 6u);
  store.PopBack();
  EXPECT_EQ(store.head, (std::vector<Value>{1, 3, 12, 13, 17, 25}));
  // Revival takes the caller's position; the walks then move it.
  index.AddSplit(Bound{15, true}, 4);
  EXPECT_EQ(index.num_nodes(), 4u);
  store.PushBack(0, 0);
  EXPECT_EQ(index.RippleUp(store, Bound{5, true}), 4u);
  EXPECT_EQ(index.FindSplit(Bound{15, true}).value(), 5u);
  EXPECT_FALSE(index.FindSplit(Bound{20, true}).has_value());
}

TEST(CrackerIndexTest, LazyDeletionAndRevival) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, true}, 60);
  index.MarkAllDeleted();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.num_nodes(), 2u);
  EXPECT_FALSE(index.FindSplit(Bound{10, true}).has_value());
  // Deleted splits are invisible to piece queries.
  const auto piece = index.FindPiece(Bound{15, true}, 100);
  EXPECT_EQ(piece.begin, 0u);
  EXPECT_EQ(piece.end, 100u);
  // Re-adding revives in place without allocating.
  index.AddSplit(Bound{10, true}, 35);
  EXPECT_EQ(index.num_nodes(), 2u);
  EXPECT_EQ(index.num_splits(), 1u);
  EXPECT_EQ(index.FindSplit(Bound{10, true}).value(), 35u);
}

TEST(CrackerIndexTest, LookupsSeeLiveSplitsUnderDeletedNodes) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, true}, 60);  // the AVL root
  index.AddSplit(Bound{30, true}, 80);
  index.MarkAllDeleted();
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{30, true}, 80);
  // The deleted root sits between the two live splits on either descent.
  const auto above = index.FindPiece(Bound{25, true}, 100);
  EXPECT_EQ(above.begin, 30u);
  EXPECT_EQ(above.end, 80u);
  const auto below = index.FindPiece(Bound{15, true}, 100);
  EXPECT_EQ(below.begin, 30u);
  EXPECT_EQ(below.end, 80u);
  const PositionRange area =
      index.FindArea(RangePredicate::Closed(12, 18), 100);
  EXPECT_EQ(area.begin, 30u);
  EXPECT_EQ(area.end, 80u);
}

TEST(CrackerIndexTest, LiveSplitsAndClone) {
  CrackerIndex index;
  index.AddSplit(Bound{20, false}, 60);
  index.AddSplit(Bound{10, true}, 30);
  const auto splits = index.LiveSplits();
  ASSERT_EQ(splits.size(), 2u);
  EXPECT_EQ(splits[0].first.value, 10);
  EXPECT_EQ(splits[1].first.value, 20);
  const CrackerIndex clone = index.CloneLive();
  EXPECT_EQ(clone.num_splits(), 2u);
  EXPECT_EQ(clone.FindSplit(Bound{20, false}).value(), 60u);
}

TEST(CrackerIndexTest, EstimateExactOnBoundaryMatch) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, false}, 60);
  const auto est = index.EstimateMatches(RangePredicate::Closed(10, 20), 100);
  EXPECT_EQ(est.lower_bound, 30u);
  EXPECT_EQ(est.upper_bound, 30u);
  EXPECT_DOUBLE_EQ(est.interpolated, 30.0);
}

TEST(CrackerIndexTest, EstimateBoundsBoundaryPieces) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, true}, 60);
  index.AddSplit(Bound{30, true}, 80);
  // Predicate [15, 25]: middle piece [10,20)@[30,60) and piece [20,30)@
  // [60,80) are boundary pieces; nothing is fully inside.
  const auto est = index.EstimateMatches(RangePredicate::Closed(15, 25), 100);
  EXPECT_EQ(est.lower_bound, 0u);
  EXPECT_EQ(est.upper_bound, 50u);
  EXPECT_GT(est.interpolated, 0.0);
  EXPECT_LT(est.interpolated, 50.0);
}

/// Property: the AVL index agrees with a std::map reference under random
/// insertion orders; structural queries match on every prefix.
class CrackerIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrackerIndexPropertyTest, MatchesOrderedMapReference) {
  Rng rng(GetParam());
  CrackerIndex index;
  auto cmp = [](const Bound& a, const Bound& b) { return BoundLess(a, b); };
  std::map<Bound, size_t, decltype(cmp)> reference(cmp);
  const size_t store_size = 10000;

  for (int step = 0; step < 300; ++step) {
    const Bound b{rng.Uniform(0, 1000), rng.Bernoulli(0.5)};
    const size_t pos = static_cast<size_t>(rng.Uniform(0, 9999));
    index.AddSplit(b, pos);
    reference[b] = pos;

    EXPECT_EQ(index.num_splits(), reference.size());
    // Probe a random bound.
    const Bound probe{rng.Uniform(0, 1000), rng.Bernoulli(0.5)};
    auto it = reference.find(probe);
    const auto found = index.FindSplit(probe);
    EXPECT_EQ(found.has_value(), it != reference.end());
    if (found.has_value()) {
      EXPECT_EQ(*found, it->second);
    }

    // Piece around the probe must match floor/ceil of the reference.
    const auto piece = index.FindPiece(probe, store_size);
    auto ub = reference.upper_bound(probe);
    if (ub == reference.end()) {
      EXPECT_FALSE(piece.has_upper);
      EXPECT_EQ(piece.end, store_size);
    } else {
      ASSERT_TRUE(piece.has_upper);
      EXPECT_EQ(piece.end, ub->second);
      EXPECT_EQ(piece.upper, ub->first);
    }
    if (ub == reference.begin()) {
      EXPECT_FALSE(piece.has_lower);
      EXPECT_EQ(piece.begin, 0u);
    } else {
      ASSERT_TRUE(piece.has_lower);
      --ub;
      EXPECT_EQ(piece.begin, ub->second);
      EXPECT_EQ(piece.lower, ub->first);
    }
  }
  // The in-order split dump must match the reference exactly.
  const auto splits = index.LiveSplits();
  ASSERT_EQ(splits.size(), reference.size());
  size_t i = 0;
  for (const auto& [bound, pos] : reference) {
    EXPECT_EQ(splits[i].first, bound);
    EXPECT_EQ(splits[i].second, pos);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrackerIndexPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

}  // namespace
}  // namespace crackdb
