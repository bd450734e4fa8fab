// Build-level sanity: every engine kind the bench factory knows must
// construct and answer the same range query with identical rows. Guards the
// bench/ <-> src/ seam the paper-figure driver stands on.

#include "bench_common.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/workload.h"
#include "common/rng.h"
#include "storage/catalog.h"

namespace crackdb::bench {
namespace {

class BuildSanityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1234);
    relation_ = &CreateUniformRelation(&catalog_, "R", 5, 2'000, 100'000,
                                       &rng);
  }

  Catalog catalog_;
  Relation* relation_ = nullptr;
};

TEST_F(BuildSanityTest, EveryKindConstructs) {
  for (const EngineKindEntry& entry : kEngineKinds) {
    std::unique_ptr<Engine> engine = MakeEngine(entry.name, *relation_);
    ASSERT_NE(engine, nullptr) << entry.name;
    EXPECT_FALSE(engine->name().empty()) << entry.name;
  }
}

TEST_F(BuildSanityTest, UnknownKindReturnsNull) {
  EXPECT_EQ(MakeEngine("no-such-engine", *relation_), nullptr);
}

TEST_F(BuildSanityTest, EveryKindAnswersIdentically) {
  QuerySpec spec;
  spec.selections = {{AttrName(1), RangePredicate::Closed(20'000, 60'000)},
                     {AttrName(2), RangePredicate::Closed(1, 80'000)}};
  spec.projections = {AttrName(3), AttrName(4)};

  // Engines may return qualifying tuples in different physical orders, so
  // compare whole rows as a sorted multiset: zipping the columns preserves
  // the cross-column pairing, which catches tuple-misalignment bugs that
  // per-column comparison would miss.
  auto sorted_rows = [&](Engine* engine) {
    const QueryResult result = engine->Run(spec);
    std::vector<std::vector<Value>> rows(result.num_rows);
    for (size_t r = 0; r < result.num_rows; ++r) {
      rows[r].reserve(result.columns.size());
      for (const std::vector<Value>& col : result.columns) {
        rows[r].push_back(col[r]);
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  std::unique_ptr<Engine> plain = MakeEngine("plain", *relation_);
  ASSERT_NE(plain, nullptr);
  const std::vector<std::vector<Value>> expected = sorted_rows(plain.get());
  ASSERT_GT(expected.size(), 0u) << "selection selected nothing; the "
                                    "comparison would be vacuous";

  for (const EngineKindEntry& entry : kEngineKinds) {
    std::unique_ptr<Engine> engine = MakeEngine(entry.name, *relation_);
    ASSERT_NE(engine, nullptr) << entry.name;
    EXPECT_EQ(sorted_rows(engine.get()), expected) << entry.name;
  }
}

}  // namespace
}  // namespace crackdb::bench
