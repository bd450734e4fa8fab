#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/relation.h"

namespace crackdb {
namespace {

TEST(ColumnTest, SelectReturnsAscendingKeys) {
  Column c("A");
  for (Value v : {5, 1, 7, 3, 7, 2}) c.Append(v);
  const std::vector<Key> keys = c.Select(RangePredicate::Closed(3, 7));
  EXPECT_EQ(keys, (std::vector<Key>{0, 2, 3, 4}));
}

TEST(ColumnTest, SelectRespectsBoundInclusivity) {
  Column c("A");
  for (Value v : {1, 2, 3, 4, 5}) c.Append(v);
  EXPECT_EQ(c.Select(RangePredicate::Open(2, 4)).size(), 1u);       // {3}
  EXPECT_EQ(c.Select(RangePredicate::HalfOpen(2, 4)).size(), 2u);   // {2,3}
  EXPECT_EQ(c.Select(RangePredicate::Closed(2, 4)).size(), 3u);
  EXPECT_EQ(c.Select(RangePredicate::Point(3)).size(), 1u);
}

TEST(ColumnTest, SelectSkipsTombstones) {
  Column c("A");
  for (Value v : {5, 6, 7}) c.Append(v);
  std::vector<bool> deleted = {false, true, false};
  const std::vector<Key> keys = c.Select(RangePredicate{}, &deleted);
  EXPECT_EQ(keys, (std::vector<Key>{0, 2}));
}

TEST(ColumnTest, ReconstructGathersPositions) {
  Column c("A");
  for (Value v : {10, 20, 30, 40}) c.Append(v);
  const std::vector<Key> pos = {3, 0, 2};
  EXPECT_EQ(c.Reconstruct(pos), (std::vector<Value>{40, 10, 30}));
}

TEST(RelationTest, AppendAndColumnAccess) {
  Relation rel("R");
  rel.AddColumn("A");
  rel.AddColumn("B");
  const Value r0[] = {1, 10};
  const Value r1[] = {2, 20};
  EXPECT_EQ(rel.BulkLoadRow(r0), 0u);
  EXPECT_EQ(rel.BulkLoadRow(r1), 1u);
  EXPECT_EQ(rel.num_rows(), 2u);
  EXPECT_EQ(rel.column("B")[1], 20);
  EXPECT_EQ(rel.ColumnOrdinal("B"), 1u);
  EXPECT_TRUE(rel.HasColumn("A"));
  EXPECT_FALSE(rel.HasColumn("C"));
}

TEST(RelationTest, BulkLoadDoesNotLog) {
  Relation rel("R");
  rel.AddColumn("A");
  const Value row[] = {1};
  rel.BulkLoadRow(row);
  EXPECT_EQ(rel.log_version(), 0u);
}

TEST(RelationTest, AppendRowLogsInsertEvent) {
  Relation rel("R");
  rel.AddColumn("A");
  const Value row[] = {1};
  const Key k = rel.AppendRow(row);
  ASSERT_EQ(rel.log_version(), 1u);
  EXPECT_EQ(rel.log_entry(0).kind, UpdateEvent::Kind::kInsert);
  EXPECT_EQ(rel.log_entry(0).key, k);
}

TEST(RelationTest, DeleteRowTombstonesAndLogs) {
  Relation rel("R");
  rel.AddColumn("A");
  const Value row[] = {1};
  const Key k = rel.AppendRow(row);
  rel.DeleteRow(k);
  EXPECT_TRUE(rel.IsDeleted(k));
  EXPECT_EQ(rel.num_live_rows(), 0u);
  EXPECT_EQ(rel.num_rows(), 1u);
  ASSERT_EQ(rel.log_version(), 2u);
  EXPECT_EQ(rel.log_entry(1).kind, UpdateEvent::Kind::kDelete);
  // Idempotent: a second delete does not log again.
  rel.DeleteRow(k);
  EXPECT_EQ(rel.log_version(), 2u);
}

TEST(CatalogTest, CreateAndLookup) {
  Catalog catalog;
  Relation& r = catalog.CreateRelation("R");
  r.AddColumn("A");
  EXPECT_TRUE(catalog.HasRelation("R"));
  EXPECT_FALSE(catalog.HasRelation("S"));
  EXPECT_EQ(&catalog.relation("R"), &r);
  EXPECT_EQ(catalog.relation_names().size(), 1u);
}

TEST(DictionaryTest, EncodeDecodeRoundTrip) {
  Dictionary dict;
  const Value a = dict.Encode("apple");
  const Value b = dict.Encode("banana");
  EXPECT_EQ(dict.Encode("apple"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Decode(a), "apple");
  EXPECT_EQ(dict.CodeOf("banana"), b);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, RegisterSortedAssignsLexicographicCodes) {
  Dictionary dict;
  dict.RegisterSorted({"pear", "apple", "mango", "apple"});
  EXPECT_EQ(dict.size(), 3u);  // deduplicated
  EXPECT_EQ(dict.CodeOf("apple"), 0);
  EXPECT_EQ(dict.CodeOf("mango"), 1);
  EXPECT_EQ(dict.CodeOf("pear"), 2);
}

TEST(RangePredicateTest, ToStringFormats) {
  EXPECT_EQ(RangePredicate::Open(1, 5).ToString(), "(1, 5)");
  EXPECT_EQ(RangePredicate::Closed(1, 5).ToString(), "[1, 5]");
  EXPECT_EQ(RangePredicate{}.ToString(), "[-inf, +inf]");
}

}  // namespace
}  // namespace crackdb
