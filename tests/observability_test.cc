// The observability layer end to end:
//  - Trace() yields a span tree with the documented shape (root "query",
//    per-partition children with queue_wait/lock_wait/select/fold leaves,
//    a merge span), children nested strictly within their parents;
//  - the tree accounts for >= 95% of the measured wall time when the
//    partitions run inline (pool_threads = 0);
//  - scalar consumption modes show zero reconstruction *through the
//    trace*, not just through the CostBreakdown;
//  - system.tables / system.partitions / system.metrics /
//    system.query_log answer through the normal fluent path, with the
//    same validated-attribute Expected errors as user tables;
//  - the registry agrees with the engine's own CostBreakdown at the
//    documented sync points (flush-on-snapshot semantics);
//  - RenderMetricsText emits Prometheus-style exposition;
//  - the metrics kill switch really silences the per-query epilogue.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/workload.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/database.h"
#include "engine/query.h"
#include "obs/trace.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

using bench::AttrName;

constexpr Value kDomain = 100'000;
constexpr size_t kRows = 50'000;
constexpr size_t kPartitions = 4;

PartitionSpec RangeShards(size_t partitions) {
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = partitions;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = kDomain;
  return spec;
}

// Value of a counter/gauge in the global registry snapshot, 0 if absent.
double MetricValue(const std::string& name) {
  for (const obs::MetricSample& s : obs::MetricsRegistry::Global().Snapshot()) {
    if (s.name == name) return s.value;
  }
  return 0.0;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetMetricsEnabled(true);
    Rng rng(20090629);  // the paper's publication date, why not
    source_ =
        &bench::CreateUniformRelation(&catalog_, "R", 4, kRows, kDomain, &rng);
  }

  void TearDown() override { obs::SetMetricsEnabled(true); }

  // Partitions run inline on the caller (pool_threads = 0): traces are
  // deterministic and queue_wait is structurally near zero, which the
  // wall-coverage test depends on.
  std::unique_ptr<Database> MakeDb(const std::string& kind = "sideways") {
    DatabaseOptions options;
    options.pool_threads = 0;
    auto db = std::make_unique<Database>(options);
    db->RegisterSharded("R", *source_, RangeShards(kPartitions), kind);
    return db;
  }

  Catalog catalog_;
  Relation* source_ = nullptr;
};

// ---------------------------------------------------------------------------
// Span trees
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, TracedQueryYieldsTheDocumentedSpanShape) {
  auto db = MakeDb();
  auto result = db->From("R")
                    .Where(AttrName(1), 1, kDomain / 2)
                    .Count()
                    .Trace()
                    .Execute();
  ASSERT_TRUE(result.ok()) << result.error();
  ASSERT_NE(result->trace, nullptr);
  const std::vector<obs::TraceSpan> spans = result->trace->Spans();
  ASSERT_FALSE(spans.empty());

  // Root: id 0, named "query", no parent.
  EXPECT_EQ(spans[0].id, obs::QueryTrace::kRootSpan);
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, obs::TraceSpan::kNoParent);
  EXPECT_GT(spans[0].duration_micros, 0.0);

  size_t partition_spans = 0, merge_spans = 0, select_spans = 0;
  for (const obs::TraceSpan& s : spans) {
    if (s.id == obs::QueryTrace::kRootSpan) continue;
    if (s.parent == obs::QueryTrace::kRootSpan) {
      if (s.name == "merge") {
        ++merge_spans;
      } else if (s.name != "admission") {
        // Direct children of the root other than the admission and merge
        // bookends are partition spans and carry their partition index.
        ++partition_spans;
        EXPECT_EQ(s.name, "partition");
        EXPECT_GE(s.partition, 0) << s.name;
      }
    }
    if (s.name.rfind("select", 0) == 0) ++select_spans;
  }
  // The half-domain predicate touches at least two of the four range
  // partitions; each ran a select kernel.
  EXPECT_GE(partition_spans, 2u);
  EXPECT_GE(select_spans, 2u);
  EXPECT_EQ(merge_spans, 1u);

  // Explain() renders the same tree.
  const std::string rendered = result->Explain();
  EXPECT_NE(rendered.find("query"), std::string::npos);
  EXPECT_NE(rendered.find("partition"), std::string::npos);

  // An untraced run points the caller at Trace() instead.
  auto untraced =
      db->From("R").Where(AttrName(1), 1, kDomain / 2).Count().Execute();
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->trace, nullptr);
  EXPECT_NE(untraced->Explain().find("Trace()"), std::string::npos);
}

TEST_F(ObservabilityTest, ChildSpansNestWithinTheirParents) {
  auto db = MakeDb();
  auto result = db->From("R")
                    .Where(AttrName(1), 1, kDomain)
                    .Project(AttrName(2), AttrName(3))
                    .Trace()
                    .Execute();
  ASSERT_TRUE(result.ok()) << result.error();
  ASSERT_NE(result->trace, nullptr);
  const std::vector<obs::TraceSpan> spans = result->trace->Spans();

  std::map<uint32_t, const obs::TraceSpan*> by_id;
  for (const obs::TraceSpan& s : spans) by_id[s.id] = &s;
  std::map<uint32_t, double> child_micros;  // summed durations per parent

  // Inline execution is sequential, so nesting is exact: every span
  // starts no earlier than its parent and the children of one parent
  // cannot overlap, hence their durations sum to within the parent's.
  // (A small epsilon absorbs clock-read granularity at span edges.)
  constexpr double kEdgeEps = 1.0;
  for (const obs::TraceSpan& s : spans) {
    EXPECT_GE(s.duration_micros, 0.0) << s.name;
    if (s.parent == obs::TraceSpan::kNoParent) continue;
    ASSERT_TRUE(by_id.count(s.parent)) << s.name << " has unknown parent";
    const obs::TraceSpan& parent = *by_id[s.parent];
    EXPECT_GE(s.start_micros, parent.start_micros - kEdgeEps)
        << s.name << " starts before its parent " << parent.name;
    EXPECT_LE(s.start_micros + s.duration_micros,
              parent.start_micros + parent.duration_micros + kEdgeEps)
        << s.name << " ends after its parent " << parent.name;
    child_micros[s.parent] += s.duration_micros;
  }
  for (const auto& [parent_id, total] : child_micros) {
    const obs::TraceSpan& parent = *by_id[parent_id];
    // Durations sum within the parent only where children are sequential
    // by construction — inside one partition's affine task. The root's
    // children deliberately overlap (each partition span opens at
    // fan-out), so only interval containment holds there.
    if (parent.partition >= 0) {
      EXPECT_LE(total, parent.duration_micros + kEdgeEps)
          << "children of partition " << parent.partition
          << " overflow the parent";
      // A partition span is not an empty shell: its kernels account for
      // real time within it.
      EXPECT_GT(total, 0.0) << "partition " << parent.partition;
    }
  }
}

TEST_F(ObservabilityTest, SpanTreeAccountsForTheMeasuredWallTime) {
  auto db = MakeDb();
  // Warm once so the first-touch cracking cost does not dominate.
  (void)db->From("R").Where(AttrName(1), 1, kDomain).Count().Execute();

  // A materialize over the whole domain: enough kernel work that the
  // fixed per-query bookkeeping outside the spans is well under 5%. The
  // box is noisy, so take the best coverage over a few attempts — noise
  // only ever lengthens the wall clock relative to the spans.
  double best_coverage = 0.0;
  for (int attempt = 0; attempt < 5 && best_coverage < 0.95; ++attempt) {
    Timer wall;
    auto result = db->From("R")
                      .Where(AttrName(1), 1, kDomain)
                      .Project(AttrName(2), AttrName(3))
                      .Trace()
                      .Execute();
    const double wall_micros = wall.ElapsedMicros();
    ASSERT_TRUE(result.ok()) << result.error();
    ASSERT_NE(result->trace, nullptr);
    // Direct children of the root (partitions + merge) against the wall
    // time measured around the whole Execute call.
    best_coverage =
        std::max(best_coverage, result->trace->ChildMicros() / wall_micros);
  }
  EXPECT_GE(best_coverage, 0.95);
}

TEST_F(ObservabilityTest, ScalarModesShowZeroReconstructionThroughTheTrace) {
  for (const char* kind : {"sideways", "partial", "selection-cracking"}) {
    auto db = MakeDb(kind);
    auto count = db->From("R")
                     .Where(AttrName(1), 1, kDomain / 3)
                     .Count()
                     .Trace()
                     .Execute();
    ASSERT_TRUE(count.ok()) << count.error();
    auto sum = db->From("R")
                   .Where(AttrName(1), 1, kDomain / 3)
                   .Aggregate(AggregateOp::kSum, AttrName(2))
                   .Trace()
                   .Execute();
    ASSERT_TRUE(sum.ok()) << sum.error();
    for (const auto* result : {&*count, &*sum}) {
      EXPECT_EQ(result->cost.reconstruct_micros, 0.0) << kind;
      ASSERT_NE(result->trace, nullptr);
      // The trace agrees with the CostBreakdown: folds happen in place,
      // so no span in the tree is a tuple-reconstruction ("fetch") span.
      for (const obs::TraceSpan& s : result->trace->Spans()) {
        EXPECT_NE(s.name, "fetch") << kind;
      }
    }
    // The control: a materialize does reconstruct, and says so.
    auto rows = db->From("R")
                    .Where(AttrName(1), 1, kDomain / 3)
                    .Project(AttrName(2))
                    .Trace()
                    .Execute();
    ASSERT_TRUE(rows.ok()) << rows.error();
    EXPECT_GT(rows->cost.reconstruct_micros, 0.0) << kind;
    const std::vector<obs::TraceSpan> spans = rows->trace->Spans();
    EXPECT_TRUE(std::any_of(spans.begin(), spans.end(),
                            [](const obs::TraceSpan& s) {
                              return s.name == "fetch";
                            }))
        << kind;
  }
}

// ---------------------------------------------------------------------------
// system.* virtual tables through the fluent path
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, SystemTablesDescribeTheRegisteredTables) {
  auto db = MakeDb();
  (void)db->From("R").Where(AttrName(1), 1, kDomain / 2).Count().Execute();

  auto tables = db->From("system.tables")
                    .Where("rows", 1, static_cast<Value>(kRows))
                    .Project("name", "partitions", "rows", "queries")
                    .Execute();
  ASSERT_TRUE(tables.ok()) << tables.error();
  ASSERT_EQ(tables->rows.num_rows, 1u);
  EXPECT_EQ(db->SystemName(tables->rows.columns[0][0]), "R");
  EXPECT_EQ(tables->rows.columns[1][0], static_cast<Value>(kPartitions));
  EXPECT_EQ(tables->rows.columns[2][0], static_cast<Value>(kRows));
  EXPECT_GE(tables->rows.columns[3][0], 1);

  // system.partitions: one row per shard; their tuples sum to the table.
  auto parts = db->From("system.partitions")
                   .Where("partition", 0, static_cast<Value>(kPartitions))
                   .Project("table", "partition", "rows")
                   .Execute();
  ASSERT_TRUE(parts.ok()) << parts.error();
  ASSERT_EQ(parts->rows.num_rows, kPartitions);
  Value tuple_sum = 0;
  for (size_t i = 0; i < parts->rows.num_rows; ++i) {
    EXPECT_EQ(db->SystemName(parts->rows.columns[0][i]), "R");
    tuple_sum += parts->rows.columns[2][i];
  }
  EXPECT_EQ(tuple_sum, static_cast<Value>(kRows));
}

TEST_F(ObservabilityTest, SystemMetricsReflectsTheWorkDone) {
  auto db = MakeDb();
  constexpr int kQueries = 8;
  size_t touched = 0;
  for (int q = 0; q < kQueries; ++q) {
    auto r = db->From("R")
                 .Where(AttrName(1), 1 + q * 100, kDomain / 2)
                 .Count()
                 .Execute();
    ASSERT_TRUE(r.ok());
    touched += r->partitions_touched;
  }
  // The fluent read: every row of system.metrics, name + value. The fill
  // itself is the documented flush point, so the engine's batched tallies
  // are all visible by the time the snapshot materializes.
  auto metrics = db->From("system.metrics")
                     .Where("value", std::numeric_limits<Value>::min(),
                            std::numeric_limits<Value>::max())
                     .Project("name", "value")
                     .Execute();
  ASSERT_TRUE(metrics.ok()) << metrics.error();
  ASSERT_GT(metrics->rows.num_rows, 0u);
  std::map<std::string, Value> by_name;
  for (size_t i = 0; i < metrics->rows.num_rows; ++i) {
    by_name[db->SystemName(metrics->rows.columns[0][i])] =
        metrics->rows.columns[1][i];
  }
  // The registry is process-global and other suites in this binary run
  // first, so assert lower bounds, not equalities.
  EXPECT_GE(by_name["engine_batches_total"], kQueries);
  EXPECT_GE(by_name["engine_subqueries_total"],
            static_cast<Value>(touched));
  EXPECT_GE(by_name["db_queries_total"], kQueries);
  EXPECT_GT(by_name["engine_select_micros_total"], 0);
}

TEST_F(ObservabilityTest, SystemQueryLogRecordsTracedQueries) {
  auto db = MakeDb();
  auto traced = db->From("R")
                    .Where(AttrName(1), 1, kDomain / 4)
                    .Count()
                    .Trace()
                    .Execute();
  ASSERT_TRUE(traced.ok()) << traced.error();

  // Traced queries bypass the log sampling, so the entry is guaranteed.
  auto log = db->From("system.query_log")
                 .Where("traced", 1, 1)
                 .Project("table", "rows", "engine_micros",
                          "partitions_touched")
                 .Execute();
  ASSERT_TRUE(log.ok()) << log.error();
  ASSERT_GE(log->rows.num_rows, 1u);
  const size_t last = log->rows.num_rows - 1;
  EXPECT_EQ(db->SystemName(log->rows.columns[0][last]), "R");
  EXPECT_EQ(log->rows.columns[1][last],
            static_cast<Value>(traced->count));
  EXPECT_EQ(log->rows.columns[3][last],
            static_cast<Value>(traced->partitions_touched));

  // The engine-attributed micros column matches the CostBreakdown the
  // caller saw (the log is clock-free by design).
  const double engine_micros = traced->cost.select_micros +
                               traced->cost.reconstruct_micros +
                               traced->cost.prepare_micros;
  EXPECT_NEAR(static_cast<double>(log->rows.columns[2][last]), engine_micros,
              1.0);
}

TEST_F(ObservabilityTest, SystemTablesValidateLikeUserTables) {
  auto db = MakeDb();
  // Unknown system table.
  auto unknown = db->From("system.nope").Count().Execute();
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().find("unknown system table"), std::string::npos)
      << unknown.error();
  // Unknown attribute in a selection, against the virtual schema.
  auto bad_sel = db->From("system.metrics").Where("bogus", 1, 2).Count()
                     .Execute();
  ASSERT_FALSE(bad_sel.ok());
  EXPECT_NE(bad_sel.error().find("unknown attribute 'bogus'"),
            std::string::npos)
      << bad_sel.error();
  // Unknown attribute in a projection.
  auto bad_proj = db->From("system.tables")
                      .Where("rows", 0, std::numeric_limits<Value>::max())
                      .Project("ghost")
                      .Execute();
  ASSERT_FALSE(bad_proj.ok());
  EXPECT_NE(bad_proj.error().find("unknown attribute 'ghost'"),
            std::string::npos)
      << bad_proj.error();
  // Terminal validation applies too: materialize needs a projection.
  auto no_proj = db->From("system.metrics")
                     .Where("value", 0, std::numeric_limits<Value>::max())
                     .Execute();
  ASSERT_FALSE(no_proj.ok());
  EXPECT_NE(no_proj.error().find("Materialize()"), std::string::npos)
      << no_proj.error();
  // The schemas are discoverable through the normal catalog surface.
  const std::vector<std::string>& schema =
      db->catalog().relation("system.metrics").column_names();
  EXPECT_NE(std::find(schema.begin(), schema.end(), "value"), schema.end());
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, RegistryAgreesWithTheEngineCostSnapshot) {
  auto db = MakeDb();
  // Deltas, not absolutes: the registry is process-global.
  const double base_sub = MetricValue("engine_subqueries_total");
  const double base_select = MetricValue("engine_select_micros_total");
  const double base_reconstruct =
      MetricValue("engine_reconstruct_micros_total");
  const double base_merge = MetricValue("engine_merge_micros_total");
  const CostBreakdown base_cost = db->engine("R").CostSnapshot();

  size_t touched = 0;
  double reconstruct = 0.0;  // summed per-query attribution
  double merge = 0.0;        // per query: reconstruction minus its fetches
  Rng rng(77);
  for (int q = 0; q < 24; ++q) {
    const Value lo = rng.Uniform(1, kDomain - 500);
    auto r = db->From("R").Where(AttrName(1), lo, lo + 500).Count().Execute();
    ASSERT_TRUE(r.ok());
    touched += r->partitions_touched;
    // Materialize and ForEach merge the partitions' rows on the caller
    // thread. Traced, so the fetch spans (one per partition, each exactly
    // that partition's reconstruct charge) split a query's reconstruction
    // into the in-lock fetches and the merge.
    for (const bool for_each : {false, true}) {
      QueryBuilder builder = db->From("R")
                                 .Where(AttrName(1), lo, lo + 500)
                                 .Project(AttrName(2), AttrName(3))
                                 .Trace();
      if (for_each) builder.ForEach([](std::span<const Value>) {});
      auto rows = builder.Execute();
      ASSERT_TRUE(rows.ok()) << rows.error();
      touched += rows->partitions_touched;
      reconstruct += rows->cost.reconstruct_micros;
      double fetches = 0.0;
      for (const obs::TraceSpan& s : rows->trace->Spans()) {
        if (s.name == "fetch") fetches += s.duration_micros;
      }
      merge += rows->cost.reconstruct_micros - fetches;
    }
  }
  // CostSnapshot is a documented flush point: after it returns, every
  // batched registry increment from this engine has landed.
  const CostBreakdown cost = db->engine("R").CostSnapshot();
  EXPECT_EQ(MetricValue("engine_subqueries_total") - base_sub,
            static_cast<double>(touched));
  EXPECT_NEAR(MetricValue("engine_select_micros_total") - base_select,
              cost.select_micros - base_cost.select_micros, 0.5);
  // The merges are timed once and charged once: registry, engine
  // snapshot, and the per-query costs hold the very same numbers.
  EXPECT_GT(merge, 0.0);
  EXPECT_NEAR(MetricValue("engine_reconstruct_micros_total") -
                  base_reconstruct,
              reconstruct, 1e-6);
  EXPECT_NEAR(cost.reconstruct_micros - base_cost.reconstruct_micros,
              reconstruct, 1e-6);
  EXPECT_NEAR(MetricValue("engine_merge_micros_total") - base_merge, merge,
              1e-6);
}

TEST_F(ObservabilityTest, DisablingMetricsSilencesTheEpilogue) {
  auto db = MakeDb();
  // Flush whatever registration traffic left behind, then freeze.
  (void)db->Stats("R");
  obs::SetMetricsEnabled(false);
  const double base_sub = MetricValue("engine_subqueries_total");
  const double base_queries = MetricValue("db_queries_total");
  for (int q = 0; q < 16; ++q) {
    auto r =
        db->From("R").Where(AttrName(1), 1, kDomain / 2).Count().Execute();
    ASSERT_TRUE(r.ok());
    // The per-query cost surface still works — it predates the registry.
    EXPECT_GT(r->cost.select_micros, 0.0);
  }
  (void)db->Stats("R");  // would flush, if anything had accumulated
  EXPECT_EQ(MetricValue("engine_subqueries_total"), base_sub);
  EXPECT_EQ(MetricValue("db_queries_total"), base_queries);
  obs::SetMetricsEnabled(true);
}

TEST_F(ObservabilityTest, RenderMetricsTextSpeaksPrometheus) {
  auto db = MakeDb();
  (void)db->From("R").Where(AttrName(1), 1, kDomain).Count().Execute();
  (void)db->Stats("R");  // flush so the families below are present
  const std::string text = obs::RenderMetricsText();
  EXPECT_NE(text.find("# TYPE engine_subqueries_total counter"),
            std::string::npos)
      << text.substr(0, 400);
  EXPECT_NE(text.find("engine_partition_subqueries_total{table=\"R\""),
            std::string::npos);
  EXPECT_NE(text.find("db_query_micros_count"), std::string::npos);
  // Histogram exposition carries cumulative buckets with an +Inf bound.
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

}  // namespace
}  // namespace crackdb
