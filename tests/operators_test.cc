#include "engine/operators.h"

#include <gtest/gtest.h>

namespace crackdb {
namespace {

TEST(HashJoinTest, MatchesAllPairs) {
  const std::vector<Value> left = {1, 2, 3, 2};
  const std::vector<Value> right = {2, 4, 2};
  const JoinPairs jp = HashJoin(left, right);
  // left ordinals 1 and 3 each match right ordinals 0 and 2: 4 pairs.
  EXPECT_EQ(jp.size(), 4u);
  for (size_t i = 0; i < jp.size(); ++i) {
    EXPECT_EQ(left[jp.left[i]], right[jp.right[i]]);
  }
}

TEST(HashJoinTest, EmptyInputs) {
  EXPECT_EQ(HashJoin({}, {}).size(), 0u);
  const std::vector<Value> some = {1, 2};
  EXPECT_EQ(HashJoin(some, {}).size(), 0u);
  EXPECT_EQ(HashJoin({}, some).size(), 0u);
}

TEST(SemiAntiJoinTest, PartitionLeftSide) {
  const std::vector<Value> left = {1, 2, 3, 4};
  const std::vector<Value> right = {2, 4, 9};
  EXPECT_EQ(SemiJoin(left, right), (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(AntiJoin(left, right), (std::vector<uint32_t>{0, 2}));
}

TEST(GroupByTest, SingleColumn) {
  const std::vector<std::vector<Value>> keys = {{7, 8, 7, 9, 8}};
  const Groups g = GroupBy(keys);
  EXPECT_EQ(g.num_groups(), 3u);
  EXPECT_EQ(g.group_of_row[0], g.group_of_row[2]);
  EXPECT_EQ(g.group_of_row[1], g.group_of_row[4]);
  EXPECT_NE(g.group_of_row[0], g.group_of_row[3]);
  EXPECT_EQ(g.keys[0][0], 7);  // first-seen order
}

TEST(GroupByTest, MultiColumnKeys) {
  const std::vector<std::vector<Value>> keys = {{1, 1, 2, 1}, {5, 6, 5, 5}};
  const Groups g = GroupBy(keys);
  EXPECT_EQ(g.num_groups(), 3u);
  EXPECT_EQ(g.group_of_row[0], g.group_of_row[3]);
}

TEST(GroupedAggregatesTest, SumAndCount) {
  const std::vector<std::vector<Value>> keys = {{1, 2, 1, 2}};
  const Groups g = GroupBy(keys);
  const std::vector<Value> values = {10, 20, 30, 40};
  EXPECT_EQ(GroupedSum(g, values), (std::vector<Value>{40, 60}));
  EXPECT_EQ(GroupedCount(g), (std::vector<Value>{2, 2}));
}

TEST(AggregateTest, WholeColumn) {
  const std::vector<Value> values = {3, -1, 7, 0};
  EXPECT_EQ(MaxOf(values), 7);
  EXPECT_EQ(MaxOf({}), kMinValue);
}

TEST(SortRowsTest, MultiColumnMixedDirections) {
  const std::vector<std::vector<Value>> cols = {{2, 1, 2, 1}, {9, 8, 7, 6}};
  const std::vector<bool> asc = {true, false};
  const std::vector<uint32_t> order = SortRows(cols, asc);
  // col0 asc, col1 desc: (1,8) < (1,6)? no: (1,8) then (1,6), then (2,9),(2,7)
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 3, 0, 2}));
}

TEST(TopKRowsTest, TruncatesAfterSort) {
  const std::vector<std::vector<Value>> cols = {{5, 3, 9, 1}};
  const std::vector<bool> asc = {true};
  EXPECT_EQ(TopKRows(cols, asc, 2), (std::vector<uint32_t>{3, 1}));
  EXPECT_EQ(TopKRows(cols, asc, 10).size(), 4u);
}

}  // namespace
}  // namespace crackdb
