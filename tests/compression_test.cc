// The compression layer end to end (docs/ARCHITECTURE.md, "Compression &
// layouts"): a compress-on-load database answers every query shape
// bit-for-bit like its raw twin across all engine kinds; encoded-servable
// queries stay in the encoded domain while tuple reconstruction and
// writes crack-on-touch (decompress the touched partition only); and a
// compressed partition that turns hot splits exactly. Stats must expose
// all of it.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/workload.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/engine_factory.h"
#include "engine/plain_engine.h"
#include "engine/query.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

using bench::AttrName;
using bench::ZipRows;

class CompressionTest : public ::testing::Test {
 protected:
  static constexpr Value kDomain = 1'000;
  static constexpr size_t kRows = 6'000;
  static constexpr size_t kPartitions = 3;

  void SetUp() override {
    Rng rng(997);
    source_ =
        &bench::CreateUniformRelation(&catalog_, "R", 3, kRows, kDomain, &rng);
    // T: t_key ascends with load order (a timestamp: FOR with `sorted`),
    // t_cat draws from 16 widely spaced values (dictionary), t_run repeats
    // a value over runs of 8..24 rows (RLE). Range sharding on t_key keeps
    // load order within each partition.
    ascending_ = &catalog_.CreateRelation("T");
    for (const char* name : {"t_key", "t_cat", "t_run"}) {
      ascending_->AddColumn(name);
    }
    Value run_value = 0;
    size_t run_left = 0;
    for (size_t i = 0; i < kRows; ++i) {
      if (run_left == 0) {
        run_value = rng.Uniform(0, 1'000'000);
        run_left = static_cast<size_t>(rng.Uniform(8, 24));
      }
      --run_left;
      const Value row[3] = {4 * static_cast<Value>(i) + rng.Uniform(0, 3),
                            rng.Uniform(0, 15) * (Value{1} << 34),
                            run_value};
      ascending_->BulkLoadRow(row);
    }
  }

  PartitionSpec RangeSpec() const {
    PartitionSpec spec;
    spec.kind = PartitionSpec::Kind::kRange;
    spec.num_partitions = kPartitions;
    spec.column = AttrName(1);
    spec.domain_lo = 1;
    spec.domain_hi = kDomain;
    return spec;
  }

  /// Compression on, adaptation off — the compress-on-load configuration.
  static AdaptiveConfig CompressOnLoad() {
    AdaptiveConfig adaptive;
    adaptive.compression.enabled = true;
    adaptive.compression.compress_on_load = true;
    return adaptive;
  }

  std::unique_ptr<Database> MakeDb(const std::string& kind,
                                   const PartitionSpec& spec,
                                   const AdaptiveConfig& adaptive) {
    DatabaseOptions options;
    options.pool_threads = 2;
    auto db = std::make_unique<Database>(options);
    db->RegisterSharded("R", *source_, spec, kind, adaptive);
    return db;
  }

  /// T registered under `kind`, range-sharded on t_key. `compress` turns
  /// on compress-on-load with a dictionary bound below t_key's cardinality,
  /// so t_key is FOR-coded (and sorted), t_cat dictionary, t_run RLE.
  std::unique_ptr<Database> MakeAscendingDb(const std::string& kind,
                                            bool compress) {
    PartitionSpec spec;
    spec.kind = PartitionSpec::Kind::kRange;
    spec.num_partitions = kPartitions;
    spec.column = "t_key";
    spec.domain_lo = 0;
    spec.domain_hi = 4 * static_cast<Value>(kRows);
    AdaptiveConfig adaptive;
    if (compress) {
      adaptive = CompressOnLoad();
      adaptive.compression.max_dict_card = 64;
    }
    DatabaseOptions options;
    options.pool_threads = 2;
    auto db = std::make_unique<Database>(options);
    db->RegisterSharded("T", *ascending_, spec, kind, adaptive);
    return db;
  }

  Catalog catalog_;
  Relation* source_ = nullptr;
  Relation* ascending_ = nullptr;
};

/// Flattened answers of the oracle query matrix: encoded-servable shapes
/// (counts, same-column and cross-column aggregates, unfiltered folds)
/// plus materializations, which force crack-on-touch on compressed arms.
struct Answers {
  std::vector<size_t> counts;
  std::vector<Value> aggregates;
  std::vector<std::multiset<std::vector<Value>>> rows;
};

/// Runs the matrix into *a (void so ASSERT_* can abort on query errors).
void RunMatrix(Database* db, Answers* a) {
  const std::vector<std::pair<Value, Value>> ranges = {
      {1, 1'000}, {10, 500}, {400, 420}, {900, 1'000}};
  for (const auto& [lo, hi] : ranges) {
    auto count = db->From("R").Where(AttrName(1), lo, hi).Count().Execute();
    ASSERT_TRUE(count.ok()) << count.error();
    a->counts.push_back(count->count);
    for (AggregateOp op :
         {AggregateOp::kSum, AggregateOp::kMin, AggregateOp::kMax}) {
      // Same-column filter (the EncodedFoldFiltered path) ...
      auto same = db->From("R")
                      .Where(AttrName(1), lo, hi)
                      .Aggregate(op, AttrName(1))
                      .Execute();
      ASSERT_TRUE(same.ok()) << same.error();
      a->aggregates.push_back(same->aggregate_valid ? same->aggregate : -1);
      // ... and cross-column (EncodedSelect + gather-fold).
      auto cross = db->From("R")
                       .Where(AttrName(1), lo, hi)
                       .Aggregate(op, AttrName(2))
                       .Execute();
      ASSERT_TRUE(cross.ok()) << cross.error();
      a->aggregates.push_back(cross->aggregate_valid ? cross->aggregate : -1);
    }
  }
  // Unfiltered shapes: whole-table count and fold.
  auto all = db->From("R").Count().Execute();
  ASSERT_TRUE(all.ok()) << all.error();
  a->counts.push_back(all->count);
  auto max = db->From("R").Aggregate(AggregateOp::kMax, AttrName(3)).Execute();
  ASSERT_TRUE(max.ok()) << max.error();
  a->aggregates.push_back(max->aggregate_valid ? max->aggregate : -1);
  // Materializations last: on a compressed arm these crack-on-touch.
  for (const auto& [lo, hi] : ranges) {
    auto rows = db->From("R")
                    .Where(AttrName(1), lo, hi)
                    .Project(AttrName(2), AttrName(3))
                    .Execute();
    ASSERT_TRUE(rows.ok()) << rows.error();
    a->rows.push_back(ZipRows(rows->rows));
  }
}

/// Encoded-servable queries on T, chosen to reach every span path:
/// covering ranges ([0, n) spans: frame metadata, code_hist, all runs),
/// sub-frame t_key ranges (one binary-searched span folded over RLE runs,
/// a dictionary histogram and FOR codes), t_run ranges (coalesced RLE run
/// spans), t_cat ranges (dictionary positions gathered), and empty ones.
void RunAscendingMatrix(Database* db, Answers* a) {
  const Value cat = Value{1} << 34;
  const struct {
    const char* attr;
    Value lo;
    Value hi;
  } selections[] = {
      {"t_key", kMinValue, kMaxValue},   // covers every frame
      {"t_key", 0, 24'000},              // covers each partition's frame
      {"t_key", 100, 9'000},             // sub-frame spans in two partitions
      {"t_key", 5'000, 5'003},           // a span of about one row
      {"t_key", 4'001, 4'001},           // a point that may miss
      {"t_key", -50, -1},                // empty
      {"t_run", 0, 1'000'000},           // covers: one span per partition
      {"t_run", 200'000, 450'000},       // run spans, some adjacent
      {"t_run", 1'000'001, kMaxValue},   // empty
      {"t_cat", 0, 15 * cat},            // covers the dictionary
      {"t_cat", 3 * cat, 9 * cat},       // dictionary positions
  };
  for (const auto& sel : selections) {
    auto count =
        db->From("T").Where(sel.attr, sel.lo, sel.hi).Count().Execute();
    ASSERT_TRUE(count.ok()) << count.error();
    a->counts.push_back(count->count);
    for (const char* agg : {"t_key", "t_cat", "t_run"}) {
      for (AggregateOp op :
           {AggregateOp::kSum, AggregateOp::kMin, AggregateOp::kMax}) {
        auto r = db->From("T")
                     .Where(sel.attr, sel.lo, sel.hi)
                     .Aggregate(op, agg)
                     .Execute();
        ASSERT_TRUE(r.ok()) << r.error();
        a->aggregates.push_back(r->aggregate_valid ? r->aggregate : -1);
      }
    }
  }
}

TEST_F(CompressionTest, CompressedEqualsRawAcrossAllEngineKinds) {
  for (const EngineKindEntry& entry : kEngineKinds) {
    auto raw = MakeDb(entry.name, RangeSpec(), {});
    auto compressed = MakeDb(entry.name, RangeSpec(), CompressOnLoad());

    const TableStats before = compressed->Stats("R");
    EXPECT_EQ(before.compressed_partitions, kPartitions) << entry.name;
    EXPECT_GT(before.compressions, 0u) << entry.name;

    Answers want, got;
    ASSERT_NO_FATAL_FAILURE(RunMatrix(raw.get(), &want)) << entry.name;
    ASSERT_NO_FATAL_FAILURE(RunMatrix(compressed.get(), &got)) << entry.name;
    EXPECT_EQ(got.counts, want.counts) << entry.name;
    EXPECT_EQ(got.aggregates, want.aggregates) << entry.name;
    ASSERT_EQ(got.rows.size(), want.rows.size()) << entry.name;
    for (size_t i = 0; i < want.rows.size(); ++i) {
      EXPECT_EQ(got.rows[i], want.rows[i]) << entry.name << " query " << i;
    }

    const TableStats after = compressed->Stats("R");
    EXPECT_GT(after.encoded_queries, 0u) << entry.name;
    // The materializations cracked-on-touch every partition open.
    EXPECT_GT(after.decompressions, 0u) << entry.name;
    EXPECT_EQ(after.compressed_partitions, 0u) << entry.name;

    // The ascending-key table: every answer off the span paths equals the
    // raw twin's, and all of them stay in the encoded domain.
    auto raw_t = MakeAscendingDb(entry.name, false);
    auto compressed_t = MakeAscendingDb(entry.name, true);
    for (const PartitionStats& ps : compressed_t->Stats("T").per_partition) {
      EXPECT_EQ(ps.codec, "for+dict+rle") << entry.name;
    }
    Answers want_t, got_t;
    ASSERT_NO_FATAL_FAILURE(RunAscendingMatrix(raw_t.get(), &want_t))
        << entry.name;
    ASSERT_NO_FATAL_FAILURE(RunAscendingMatrix(compressed_t.get(), &got_t))
        << entry.name;
    EXPECT_EQ(got_t.counts, want_t.counts) << entry.name;
    EXPECT_EQ(got_t.aggregates, want_t.aggregates) << entry.name;
    const TableStats t_stats = compressed_t->Stats("T");
    EXPECT_EQ(t_stats.compressed_partitions, kPartitions) << entry.name;
    EXPECT_EQ(t_stats.decompressions, 0u) << entry.name;
    EXPECT_GT(t_stats.encoded_queries, 0u) << entry.name;
  }
}

TEST_F(CompressionTest, EncodedQueriesDoNotDecompress) {
  auto db = MakeDb("selection-cracking", RangeSpec(), CompressOnLoad());
  for (int q = 0; q < 10; ++q) {
    auto count = db->From("R")
                     .Where(AttrName(1), 1 + q * 50, 400 + q * 50)
                     .Count()
                     .Execute();
    ASSERT_TRUE(count.ok()) << count.error();
    auto sum = db->From("R")
                   .Where(AttrName(1), 1 + q * 50, 400 + q * 50)
                   .Aggregate(AggregateOp::kSum, AttrName(2))
                   .Execute();
    ASSERT_TRUE(sum.ok()) << sum.error();
  }
  const TableStats stats = db->Stats("R");
  EXPECT_EQ(stats.compressed_partitions, kPartitions);
  EXPECT_EQ(stats.decompressions, 0u);
  EXPECT_GT(stats.encoded_queries, 0u);
  for (const PartitionStats& ps : stats.per_partition) {
    EXPECT_NE(ps.codec, "raw");
    EXPECT_FALSE(ps.engine.empty());
  }
}

TEST_F(CompressionTest, MaterializationCracksOnlyTouchedPartitions) {
  auto db = MakeDb("selection-cracking", RangeSpec(), CompressOnLoad());
  // A range inside partition 0's cover: range pruning sends the sub-query
  // only there, so only that partition decompresses.
  auto rows = db->From("R")
                  .Where(AttrName(1), 1, 50)
                  .Project(AttrName(2))
                  .Execute();
  ASSERT_TRUE(rows.ok()) << rows.error();
  const TableStats stats = db->Stats("R");
  EXPECT_EQ(stats.compressed_partitions, kPartitions - 1);
  EXPECT_EQ(stats.decompressions, 1u);
  EXPECT_EQ(stats.per_partition[0].codec, "raw");
  EXPECT_NE(stats.per_partition[kPartitions - 1].codec, "raw");
}

TEST_F(CompressionTest, WritesDecompressTheTargetPartition) {
  auto db = MakeDb("selection-cracking", RangeSpec(), CompressOnLoad());
  ASSERT_EQ(db->Stats("R").compressed_partitions, kPartitions);

  // Tombstoning an original row needs the raw layout: exactly its home
  // partition decompresses.
  EXPECT_TRUE(db->Delete("R", 0));
  TableStats stats = db->Stats("R");
  EXPECT_EQ(stats.compressed_partitions, kPartitions - 1);
  EXPECT_GT(stats.decompressions, 0u);

  // Inserts route by the organizing value (10 -> partition 0) and
  // decompress their target the same way.
  const Key key = db->Insert("R", std::vector<Value>{10, 7, 7});
  EXPECT_NE(key, kInvalidKey);
  stats = db->Stats("R");
  EXPECT_EQ(stats.per_partition[0].codec, "raw");
  EXPECT_GE(stats.decompressions, 1u);

  // The inserted row is queryable immediately, and deletable again.
  auto count = db->From("R").Where(AttrName(1), 10, 10).Count().Execute();
  ASSERT_TRUE(count.ok()) << count.error();
  EXPECT_GT(count->count, 0u);
  EXPECT_TRUE(db->Delete("R", key));
  auto after = db->From("R").Where(AttrName(1), 10, 10).Count().Execute();
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_EQ(after->count, count->count - 1);
}

TEST_F(CompressionTest, CompressedPartitionThatTurnsHotSplitsExactly) {
  // Compress-on-load plus adaptation: encoded-servable counts keep the hot
  // partition compressed, so the split must take the repartitioner's
  // decompress-first snapshot path.
  AdaptiveConfig adaptive = CompressOnLoad();
  adaptive.enabled = true;
  adaptive.min_accesses = 8;
  adaptive.hot_share = 0.5;
  adaptive.cold_share = 0.0;  // no merges: the split is the only action
  adaptive.min_partition_rows = 256;
  adaptive.cooldown_ticks = 0;
  for (const char* kind : {"selection-cracking", "sideways", "partial"}) {
    auto db = MakeDb(kind, RangeSpec(), adaptive);
    const TableStats before = db->Stats("R");
    ASSERT_EQ(before.compressed_partitions, kPartitions) << kind;
    const Value hot_hi = before.per_partition[0].cover_hi;

    bool split = false;
    for (int round = 0; round < 8 && !split; ++round) {
      for (int q = 0; q < 16; ++q) {
        auto count = db->From("R")
                         .Where(AttrName(1), 1 + q, hot_hi - q)
                         .Count()
                         .Execute();
        ASSERT_TRUE(count.ok()) << count.error();
      }
      ASSERT_NE(db->Stats("R").per_partition[0].codec, "raw") << kind;
      split = db->MaybeRepartition("R");
    }
    ASSERT_TRUE(split) << kind;
    const TableStats after = db->Stats("R");
    EXPECT_EQ(after.splits, 1u) << kind;
    EXPECT_EQ(after.partitions, kPartitions + 1) << kind;
    EXPECT_EQ(after.compressed_partitions, kPartitions - 1) << kind;
    EXPECT_EQ(after.rows, kRows) << kind;

    PlainEngine reference(*source_);
    QuerySpec full_scan;
    full_scan.projections = {AttrName(1), AttrName(2), AttrName(3)};
    EXPECT_EQ(ZipRows(db->Execute({"R", full_scan})->rows),
              ZipRows(reference.Run(full_scan)))
        << kind;
    for (const auto& [lo, hi] : std::vector<std::pair<Value, Value>>{
             {1, kDomain}, {1, hot_hi / 2}, {hot_hi / 2, hot_hi + 50}}) {
      QuerySpec range;
      range.selections = {{AttrName(1), {lo, hi}}};
      range.projections = {AttrName(2), AttrName(3)};
      const QueryResult want = reference.Run(range);
      EXPECT_EQ(ZipRows(db->Execute({"R", range})->rows), ZipRows(want))
          << kind << " [" << lo << ", " << hi << "]";
      auto count = db->From("R").Where(AttrName(1), lo, hi).Count().Execute();
      ASSERT_TRUE(count.ok()) << count.error();
      EXPECT_EQ(count->count, want.num_rows) << kind;
    }

    // Global keys issued before the split still resolve: every original
    // row of the split slice can be deleted once, and only once.
    size_t deleted = 0;
    for (Key k = 0; k < kRows && deleted < 8; ++k) {
      if (source_->column(0)[k] > hot_hi) continue;
      EXPECT_TRUE(db->Delete("R", k)) << kind << " key " << k;
      EXPECT_FALSE(db->Delete("R", k)) << kind << " key " << k;
      ++deleted;
    }
    EXPECT_EQ(deleted, 8u) << kind;
    EXPECT_EQ(db->Stats("R").live_rows, kRows - deleted) << kind;
  }
}

TEST_F(CompressionTest, HashShardedTablesCompressOnLoadOnly) {
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kHash;
  spec.num_partitions = kPartitions;
  spec.column = AttrName(1);
  AdaptiveConfig adaptive = CompressOnLoad();
  adaptive.enabled = true;  // requested, but hash sharding cannot adapt
  auto db = MakeDb("selection-cracking", spec, adaptive);

  const TableStats before = db->Stats("R");
  EXPECT_EQ(before.compressed_partitions, kPartitions);
  EXPECT_FALSE(db->MaybeRepartition("R"));

  // Encoded counts agree with a raw twin; crack-on-touch still works.
  auto raw = MakeDb("selection-cracking", spec, {});
  for (const auto& [lo, hi] : std::vector<std::pair<Value, Value>>{
           {1, kDomain}, {100, 400}, {700, 710}}) {
    auto got = db->From("R").Where(AttrName(1), lo, hi).Count().Execute();
    auto want = raw->From("R").Where(AttrName(1), lo, hi).Count().Execute();
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got->count, want->count);
    auto grows = db->From("R")
                     .Where(AttrName(1), lo, hi)
                     .Project(AttrName(2))
                     .Execute();
    auto wrows = raw->From("R")
                     .Where(AttrName(1), lo, hi)
                     .Project(AttrName(2))
                     .Execute();
    ASSERT_TRUE(grows.ok() && wrows.ok());
    EXPECT_EQ(ZipRows(grows->rows), ZipRows(wrows->rows));
  }
  EXPECT_GT(db->Stats("R").decompressions, 0u);
}

TEST_F(CompressionTest, StatsReportFootprintAndLayout) {
  auto raw = MakeDb("selection-cracking", RangeSpec(), {});
  auto compressed =
      MakeDb("selection-cracking", RangeSpec(), CompressOnLoad());
  const TableStats r = raw->Stats("R");
  const TableStats c = compressed->Stats("R");

  // Raw layout: 3 columns of 8 bytes per row slot.
  EXPECT_EQ(r.resident_column_bytes, kRows * 3 * sizeof(Value));
  EXPECT_DOUBLE_EQ(r.bytes_per_row, 24.0);
  EXPECT_EQ(r.compressed_partitions, 0u);
  for (const PartitionStats& ps : r.per_partition) {
    EXPECT_EQ(ps.codec, "raw");
    EXPECT_EQ(ps.resident_bytes, ps.rows * 3 * sizeof(Value));
  }

  // Compressed: the narrow uniform domain packs into far fewer bits.
  EXPECT_LT(c.resident_column_bytes * 2, r.resident_column_bytes)
      << "expected at least 2x footprint reduction";
  EXPECT_LT(c.bytes_per_row, r.bytes_per_row / 2);
  size_t rollup = 0;
  for (const PartitionStats& ps : c.per_partition) {
    EXPECT_NE(ps.codec, "raw");
    rollup += ps.resident_bytes;
  }
  EXPECT_EQ(rollup, c.resident_column_bytes);
}

}  // namespace
}  // namespace crackdb
