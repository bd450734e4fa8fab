#include "updates/ripple.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <set>
#include <vector>

#include "common/rng.h"

namespace crackdb {
namespace {

CrackPairs RandomStore(Rng* rng, size_t n, Value domain) {
  CrackPairs store;
  for (size_t i = 0; i < n; ++i) {
    store.PushBack(rng->Uniform(1, domain), static_cast<Value>(i));
  }
  return store;
}

std::multiset<std::pair<Value, Value>> Contents(const CrackPairs& s) {
  std::multiset<std::pair<Value, Value>> out;
  for (size_t i = 0; i < s.size(); ++i) out.insert({s.head[i], s.tail[i]});
  return out;
}

TEST(RippleInsertTest, InsertIntoUncrackedStore) {
  CrackPairs store;
  CrackerIndex index;
  RippleInsert(store, index, 5, 100);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.head[0], 5);
  EXPECT_EQ(store.tail[0], 100);
}

TEST(RippleInsertTest, InsertLandsInCorrectPiece) {
  Rng rng(3);
  CrackPairs store = RandomStore(&rng, 200, 100);
  CrackerIndex index;
  CrackOnPredicate(store, index, RangePredicate::Closed(30, 60));
  for (Value v : {1, 30, 45, 60, 61, 99}) {
    RippleInsert(store, index, v, 9000 + v);
    EXPECT_TRUE(CheckCrackInvariant(store, index)) << "inserting " << v;
    const auto pos = FindEntry(store, index, v, 9000 + v);
    ASSERT_TRUE(pos.has_value()) << "inserting " << v;
    EXPECT_EQ(store.head[*pos], v);
  }
}

TEST(RippleInsertTest, PieceBoundariesShiftCorrectly) {
  CrackPairs store;
  for (Value v : {1, 2, 8, 9, 5, 4}) store.PushBack(v, v * 10);
  CrackerIndex index;
  CrackOnPredicate(store, index, RangePredicate::Closed(4, 5));
  const PositionRange before = index.FindArea(RangePredicate::Closed(4, 5), 6);
  RippleInsert(store, index, 3, 30);  // below the area: shifts it right
  const PositionRange after = index.FindArea(RangePredicate::Closed(4, 5), 7);
  EXPECT_EQ(after.begin, before.begin + 1);
  EXPECT_EQ(after.end, before.end + 1);
  EXPECT_TRUE(CheckCrackInvariant(store, index));
}

TEST(RippleDeleteTest, DeleteMaintainsInvariant) {
  Rng rng(5);
  CrackPairs store = RandomStore(&rng, 200, 100);
  CrackerIndex index;
  CrackOnPredicate(store, index, RangePredicate::Closed(20, 40));
  CrackOnPredicate(store, index, RangePredicate::Closed(60, 80));
  while (store.size() > 150) {
    const size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<Value>(store.size()) - 1));
    const Value head = store.head[pos];
    const Value tail = store.tail[pos];
    RippleDeleteAt(store, index, pos);
    ASSERT_TRUE(CheckCrackInvariant(store, index));
    EXPECT_EQ(Contents(store).count({head, tail}), 0u);
  }
}

TEST(RippleDeleteTest, DeleteLastEntry) {
  CrackPairs store;
  store.PushBack(5, 50);
  CrackerIndex index;
  RippleDeleteAt(store, index, 0);
  EXPECT_EQ(store.size(), 0u);
}

TEST(FindEntryTest, FindsOnlyWithinPiece) {
  CrackPairs store;
  for (Value v : {1, 2, 8, 9, 5, 4}) store.PushBack(v, v * 10);
  CrackerIndex index;
  CrackOnPredicate(store, index, RangePredicate::Closed(4, 5));
  EXPECT_TRUE(FindEntry(store, index, 5, 50).has_value());
  EXPECT_TRUE(FindEntry(store, index, 9, 90).has_value());
  EXPECT_FALSE(FindEntry(store, index, 5, 51).has_value());
  EXPECT_FALSE(FindEntry(store, index, 7, 70).has_value());
}

/// Property: interleaved cracks, inserts and deletes preserve content and
/// the crack invariant, and two identical histories stay byte-identical
/// (the update-replay determinism the tapes depend on).
class RipplePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RipplePropertyTest, InterleavedOperationsStayConsistent) {
  Rng rng(GetParam());
  const Value domain = 1000;
  CrackPairs store = RandomStore(&rng, 500, domain);
  CrackPairs twin;
  twin.head = store.head;
  twin.tail = store.tail;
  CrackerIndex index;
  CrackerIndex twin_index;
  auto expected = Contents(store);
  Value next_tail = 100000;

  for (int step = 0; step < 400; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.4) {
      const Value lo = rng.Uniform(1, domain - 50);
      const RangePredicate pred = RangePredicate::Closed(lo, lo + 50);
      CrackOnPredicate(store, index, pred);
      CrackOnPredicate(twin, twin_index, pred);
    } else if (dice < 0.75) {
      const Value v = rng.Uniform(1, domain);
      const Value t = next_tail++;
      RippleInsert(store, index, v, t);
      RippleInsert(twin, twin_index, v, t);
      expected.insert({v, t});
    } else if (!store.empty()) {
      const size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<Value>(store.size()) - 1));
      expected.erase(expected.find({store.head[pos], store.tail[pos]}));
      RippleDeleteAt(store, index, pos);
      // Twin deletes the same logical position.
      RippleDeleteAt(twin, twin_index, pos);
    }
    ASSERT_TRUE(CheckCrackInvariant(store, index)) << "step " << step;
    ASSERT_EQ(store.head, twin.head) << "step " << step;
    ASSERT_EQ(store.tail, twin.tail) << "step " << step;
  }
  EXPECT_EQ(Contents(store), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RipplePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Differential test against the Pieces()-based Ripple that the pruned index
// walk replaced. The reference bodies are verbatim; only the index shifts
// they called (no longer part of CrackerIndex) are re-expressed as a
// rebuild from LiveSplits(), which is all the comparison observes.

template <typename Moves>
void ShiftLiveSplits(CrackerIndex& index, ptrdiff_t delta, Moves moves) {
  CrackerIndex shifted;
  for (auto [bound, pos] : index.LiveSplits()) {
    if (moves(bound, pos)) {
      pos = static_cast<size_t>(static_cast<ptrdiff_t>(pos) + delta);
    }
    shifted.AddSplit(bound, pos);
  }
  index = std::move(shifted);
}

void ReferenceShiftPositions(CrackerIndex& index, size_t from_pos,
                             ptrdiff_t delta) {
  ShiftLiveSplits(index, delta,
                  [&](const Bound&, size_t pos) { return pos >= from_pos; });
}

void ReferenceShiftPositionsAfterBound(CrackerIndex& index,
                                       const Bound& threshold,
                                       ptrdiff_t delta) {
  ShiftLiveSplits(index, delta, [&](const Bound& bound, size_t) {
    return BoundLess(threshold, bound);
  });
}

void ReferenceRippleInsert(CrackPairs& store, CrackerIndex& index,
                           Value head_value, Value tail_value) {
  assert(!store.head_dropped);
  const size_t old_size = store.size();
  const CrackerIndex::Piece target =
      index.FindPiece(Bound{head_value, true}, old_size);
  store.PushBack(0, 0);  // hole at position old_size
  size_t hole = old_size;
  // Walk the pieces after the target from the back; each donates its first
  // entry to the hole at its end, effectively shifting by one.
  const std::vector<CrackerIndex::Piece> pieces = index.Pieces(old_size);
  for (auto it = pieces.rbegin(); it != pieces.rend(); ++it) {
    if (it->begin < target.end) break;  // reached the target piece
    if (it->begin == it->end) continue;  // empty piece: hole passes through
    store.MoveEntry(it->begin, hole);
    hole = it->begin;
  }
  assert(hole == target.end);
  store.SetEntry(hole, head_value, tail_value);
  // Bound-based shift: splits of empty pieces can sit at `target.end` with
  // bounds the new value satisfies; only splits strictly above the value
  // move.
  ReferenceShiftPositionsAfterBound(index, Bound{head_value, true}, +1);
}

void ReferenceRippleDeleteAt(CrackPairs& store, CrackerIndex& index,
                             size_t pos) {
  assert(!store.head_dropped);
  const size_t old_size = store.size();
  assert(pos < old_size);
  const std::vector<CrackerIndex::Piece> pieces = index.Pieces(old_size);
  // Find the piece containing pos.
  size_t target_idx = pieces.size();
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (pos >= pieces[i].begin && pos < pieces[i].end) {
      target_idx = i;
      break;
    }
  }
  assert(target_idx < pieces.size());
  const CrackerIndex::Piece& target = pieces[target_idx];
  // Fill the hole with the target piece's last entry, then let every later
  // piece donate its last entry to the hole at its (new) start.
  store.MoveEntry(target.end - 1, pos);
  size_t hole = target.end - 1;
  for (size_t i = target_idx + 1; i < pieces.size(); ++i) {
    const CrackerIndex::Piece& p = pieces[i];
    if (p.begin == p.end) continue;
    store.MoveEntry(p.end - 1, hole);
    hole = p.end - 1;
  }
  assert(hole == old_size - 1);
  store.PopBack();
  ReferenceShiftPositions(index, target.end, -1);
}

/// Random histories of cracks, inserts and deletes on a ~6k-entry store,
/// about half of the ripples running over >=1k splits. Heads are even, so
/// cuts at odd values leave empty pieces (adjacent splits at one position);
/// 2k distinct heads over 6k entries give many duplicates.
class RippleDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RippleDifferentialTest, MatchesReferenceAfterEveryStep) {
  Rng rng(GetParam());
  const Value domain = 4000;
  CrackPairs store;
  for (size_t i = 0; i < 6000; ++i) {
    store.PushBack(2 * rng.Uniform(1, domain / 2), static_cast<Value>(i));
  }
  CrackPairs ref = store;
  CrackerIndex index;
  CrackerIndex ref_index;
  std::vector<RangePredicate> history;
  auto crack = [&](const RangePredicate& pred) {
    CrackOnPredicate(store, index, pred);
    CrackOnPredicate(ref, ref_index, pred);
  };
  auto random_pred = [&] {
    const Value lo = rng.Uniform(0, domain);
    history.push_back({lo, lo + rng.Uniform(0, 40), rng.Bernoulli(0.5),
                       rng.Bernoulli(0.5)});
    return history.back();
  };
  while (index.num_splits() < 2000) crack(random_pred());

  Value next_tail = 100000;
  size_t inserts = 0, deletes = 0, edge_deletes = 0, ripples_over_1k = 0;
  for (int step = 0; step < 3000; ++step) {
    const bool ripple_over_1k = index.num_splits() >= 1000;
    const double dice = rng.NextDouble();
    if (dice < 0.40) {
      // Any value, odd ones included, so inserts land in empty pieces too.
      const Value v = rng.Uniform(0, domain + 1);
      RippleInsert(store, index, v, next_tail);
      ReferenceRippleInsert(ref, ref_index, v, next_tail);
      ++next_tail;
      ++inserts;
    } else if (dice < 0.80) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<Value>(store.size()) - 1));
      if (rng.Bernoulli(0.1)) {
        pos = rng.Bernoulli(0.5) ? 0 : store.size() - 1;
        ++edge_deletes;
      }
      RippleDeleteAt(store, index, pos);
      ReferenceRippleDeleteAt(ref, ref_index, pos);
      ++deletes;
    } else {
      // Replaying an old predicate re-cracks pieces the ripples reshaped.
      const size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<Value>(history.size()) - 1));
      crack(rng.Bernoulli(0.6) ? history[pick] : random_pred());
    }
    if (dice < 0.80) ripples_over_1k += ripple_over_1k;
    ASSERT_EQ(store.head, ref.head) << "step " << step;
    ASSERT_EQ(store.tail, ref.tail) << "step " << step;
    ASSERT_EQ(index.LiveSplits(), ref_index.LiveSplits()) << "step " << step;
    if (step % 100 == 0) {
      ASSERT_TRUE(CheckCrackInvariant(store, index)) << "step " << step;
    }
  }
  // The history really exercised what it claims to.
  EXPECT_GE(store.size(), 5000u);
  EXPECT_GT(inserts, 500u);
  EXPECT_GT(deletes, 500u);
  EXPECT_GT(edge_deletes, 20u);
  EXPECT_GT(ripples_over_1k, 1000u);
  EXPECT_TRUE(CheckCrackInvariant(store, index));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RippleDifferentialTest,
                         ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace crackdb
