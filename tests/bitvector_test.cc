#include "common/bitvector.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace crackdb {
namespace {

TEST(BitVectorTest, EmptyVector) {
  BitVector bv;
  EXPECT_EQ(bv.size(), 0u);
  EXPECT_TRUE(bv.empty());
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVectorTest, ConstructAllClear) {
  BitVector bv(100);
  EXPECT_EQ(bv.size(), 100u);
  EXPECT_EQ(bv.Count(), 0u);
  for (size_t i = 0; i < 100; ++i) EXPECT_FALSE(bv.Get(i));
}

TEST(BitVectorTest, ConstructAllSetKeepsTailClear) {
  // 70 bits spans two words; the unused high bits of the last word must
  // stay clear so Count() is exact.
  BitVector bv(70, true);
  EXPECT_EQ(bv.Count(), 70u);
  for (size_t i = 0; i < 70; ++i) EXPECT_TRUE(bv.Get(i));
}

TEST(BitVectorTest, SetAndClear) {
  BitVector bv(130);
  bv.Set(0);
  bv.Set(64);
  bv.Set(129);
  EXPECT_EQ(bv.Count(), 3u);
  EXPECT_TRUE(bv.Get(64));
  bv.Clear(64);
  EXPECT_FALSE(bv.Get(64));
  EXPECT_EQ(bv.Count(), 2u);
}

TEST(BitVectorTest, FillTrueThenFalse) {
  BitVector bv(100);
  bv.Fill(true);
  EXPECT_EQ(bv.Count(), 100u);
  bv.Fill(false);
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVectorTest, And) {
  BitVector a(128);
  BitVector b(128);
  a.Set(1);
  a.Set(80);
  b.Set(80);
  b.Set(100);
  BitVector both = a;
  both.And(b);
  EXPECT_EQ(both.Count(), 1u);
  EXPECT_TRUE(both.Get(80));
}

TEST(BitVectorTest, AppendSetPositionsWithBase) {
  BitVector bv(70);
  bv.Set(0);
  bv.Set(65);
  std::vector<uint32_t> positions;
  bv.AppendSetPositions(&positions, 1000);
  ASSERT_EQ(positions.size(), 2u);
  EXPECT_EQ(positions[0], 1000u);
  EXPECT_EQ(positions[1], 1065u);
}

TEST(BitVectorTest, Equality) {
  BitVector a(10);
  BitVector b(10);
  EXPECT_TRUE(a == b);
  a.Set(3);
  EXPECT_FALSE(a == b);
  b.Set(3);
  EXPECT_TRUE(a == b);
}

class BitVectorRandomTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitVectorRandomTest, CountMatchesReference) {
  const size_t n = GetParam();
  Rng rng(n * 7919 + 1);
  BitVector bv(n);
  std::vector<bool> reference(n, false);
  for (size_t step = 0; step < 3 * n; ++step) {
    const size_t i = static_cast<size_t>(
        rng.Uniform(0, static_cast<Value>(n) - 1));
    const bool set = rng.Bernoulli(0.5);
    if (set) {
      bv.Set(i);
    } else {
      bv.Clear(i);
    }
    reference[i] = set;
  }
  size_t expected = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bv.Get(i), reference[i]) << "bit " << i;
    expected += reference[i] ? 1 : 0;
  }
  EXPECT_EQ(bv.Count(), expected);
  std::vector<uint32_t> positions;
  bv.AppendSetPositions(&positions);
  EXPECT_EQ(positions.size(), expected);
  for (uint32_t p : positions) EXPECT_TRUE(reference[p]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorRandomTest,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 1000));

}  // namespace
}  // namespace crackdb
