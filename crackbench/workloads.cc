#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <utility>

#include "engine/database.h"
#include "engine/partial_engine.h"
#include "engine/plain_engine.h"
#include "engine/query.h"
#include "engine/sideways_engine.h"
#include "harness.h"
#include "storage/relation.h"
#include "workload.h"

namespace crackbench {

using crackdb::AggregateOp;
using crackdb::ConsumeKind;
using crackdb::Database;
using crackdb::DatabaseOptions;
using crackdb::ExecuteResult;
using crackdb::Key;
using crackdb::PartitionSpec;
using crackdb::PlainEngine;
using crackdb::Query;
using crackdb::QueryResult;
using crackdb::Relation;
using crackdb::Value;

namespace {

using Rng = std::mt19937_64;

Value Uniform(Rng& rng, Value lo, Value hi) {
  return std::uniform_int_distribution<Value>(lo, hi)(rng);
}

/// A closed range of `width` values placed uniformly inside [lo, hi].
std::pair<Value, Value> RangeOfWidth(Rng& rng, Value lo, Value hi,
                                     Value width) {
  const Value start = Uniform(rng, lo, std::max(lo, hi - width + 1));
  return {start, std::min(hi, start + width - 1)};
}

std::unique_ptr<Relation> NewRelation(const std::string& name,
                                      const std::vector<std::string>& cols) {
  auto r = std::make_unique<Relation>(name);
  for (const std::string& c : cols) r->AddColumn(c);
  return r;
}

/// Rows of a result as a sorted list: the order-insensitive multiset form
/// (engines legitimately return rows in different physical orders).
std::vector<std::vector<Value>> SortedRows(const QueryResult& r) {
  std::vector<std::vector<Value>> rows(r.num_rows);
  for (size_t i = 0; i < r.num_rows; ++i) {
    for (const std::vector<Value>& col : r.columns) rows[i].push_back(col[i]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

QueryStat Stat(const ExecuteResult& r) {
  return {r.trace, r.cost, r.partitions_touched, r.partitions_pruned};
}

/// Executes one fluent query, timed around Database::Execute. The answer
/// is kept in `*keep` when the caller samples it.
OpOutcome ExecuteTimed(Database& db, Query query,
                       std::optional<ExecuteResult>* keep) {
  OpOutcome out;
  const auto t0 = Clock::now();
  auto result = db.Execute(std::move(query));
  out.micros = MicrosBetween(t0, Clock::now());
  if (!result.ok()) {
    out.failed = 1;
    return out;
  }
  out.queries.push_back(Stat(result.value()));
  if (keep != nullptr) *keep = std::move(result.value());
  return out;
}

/// Checks one answer against a plain scan of the oracle relation: rows as
/// multisets, scalars exactly, grouped answers against a std::map fold.
/// `corrupt` perturbs the oracle's answer (the self-test of the check).
bool MatchesOracle(const Relation& oracle_rel, const Query& q,
                   const ExecuteResult& got, bool corrupt) {
  PlainEngine oracle(oracle_rel);
  switch (q.consume.kind) {
    case ConsumeKind::kMaterialize:
    case ConsumeKind::kForEach: {
      QueryResult want = oracle.Run(q.spec);
      if (corrupt) {
        for (std::vector<Value>& col : want.columns) col.push_back(-1);
        ++want.num_rows;
      }
      return SortedRows(want) == SortedRows(got.rows);
    }
    case ConsumeKind::kCount: {
      const ExecuteResult want = oracle.Execute(q.spec, q.consume);
      return want.count + (corrupt ? 1 : 0) == got.count;
    }
    case ConsumeKind::kAggregate: {
      const ExecuteResult want = oracle.Execute(q.spec, q.consume);
      const Value agg = want.aggregate + (corrupt ? 1 : 0);
      return want.aggregate_valid == got.aggregate_valid &&
             (!want.aggregate_valid || agg == got.aggregate);
    }
    case ConsumeKind::kGroupBy: {
      // Fold the plain scan's (group, value) rows into an ordered map and
      // compare group by group with the per-group sum and count.
      crackdb::QuerySpec spec = q.spec;
      spec.projections = {q.consume.group_attr, q.consume.group_aggs[0].attr};
      const QueryResult rows = oracle.Run(spec);
      std::map<Value, std::pair<uint64_t, uint64_t>> want;
      for (size_t i = 0; i < rows.num_rows; ++i) {
        auto& [sum, count] = want[rows.columns[0][i]];
        sum += static_cast<uint64_t>(rows.columns[1][i]);
        ++count;
      }
      if (corrupt && !want.empty()) ++want.begin()->second.second;
      const crackdb::GroupedTable& g = got.groups;
      if (g.num_groups() != want.size()) return false;
      size_t i = 0;
      for (const auto& [key, agg] : want) {
        if (g.keys[i] != key || g.counts[i] != agg.second) return false;
        for (size_t a = 0; a < q.consume.group_aggs.size(); ++a) {
          const uint64_t expect = q.consume.group_aggs[a].op == AggregateOp::kSum
                                      ? agg.first
                                      : agg.second;
          if (static_cast<uint64_t>(g.aggregates[a][i]) != expect) return false;
        }
        ++i;
      }
      return true;
    }
  }
  return false;
}

/// A sampled query and the answer the database gave.
struct Sample {
  Query query;
  ExecuteResult answer;
};

CheckTally CheckSamples(const Relation& oracle, const std::vector<Sample>& s,
                        bool corrupt) {
  CheckTally tally;
  for (size_t i = 0; i < s.size(); ++i) {
    ++tally.checked;
    if (!MatchesOracle(oracle, s[i].query, s[i].answer, corrupt && i == 0)) {
      ++tally.mismatches;
    }
  }
  return tally;
}

/// Map and chunk footprint of a table's per-partition engines: every
/// sideways map tuple and partial-map chunk tuple is a (head, tail) pair.
double AuxBytes(Database& db, const std::string& table) {
  crackdb::ShardedEngine& engine = db.engine(table);
  size_t tuples = 0;
  for (size_t p = 0; p < engine.num_partitions(); ++p) {
    const crackdb::Engine& e = engine.partition_engine(p);
    if (const auto* s = dynamic_cast<const crackdb::SidewaysEngine*>(&e)) {
      tuples += s->MapStorageTuples();
    } else if (const auto* ps =
                   dynamic_cast<const crackdb::PartialSidewaysEngine*>(&e)) {
      tuples += ps->ChunkStorageTuples();
    }
  }
  return static_cast<double>(tuples) * 2.0 * sizeof(Value);
}

/// Update-log entries the partitions still retain.
double LogEntries(Database& db, const std::string& table) {
  crackdb::PartitionedRelation& rel = db.partitions(table);
  double entries = 0.0;
  for (size_t p = 0; p < rel.num_partitions(); ++p) {
    const Relation& part = rel.partition(p);
    entries += static_cast<double>(part.log_version() - part.log_begin());
  }
  return entries;
}

void AddTableFacts(Database& db, const std::string& table, size_t columns,
                   Facts* facts) {
  const crackdb::TableStats st = db.Stats(table);
  facts->column_bytes += static_cast<double>(st.resident_column_bytes);
  facts->raw_column_bytes +=
      static_cast<double>(st.rows * columns * sizeof(Value));
  facts->aux_bytes += AuxBytes(db, table);
  facts->live_rows += static_cast<double>(st.live_rows);
  facts->log_entries += LogEntries(db, table);
  facts->adaptive_actions += static_cast<double>(st.splits + st.merges);
  facts->partitions_final += static_cast<double>(st.partitions);
}

/// The write share of the read-only mixes: one op in every `every` inserts
/// `pairs` random rows, deleting each again at once with timed single-row
/// calls back to back, so no query ever sees the rows. The op's latency is
/// the mean of its calls: inserts and deletes cost differently, and a p50
/// over both as separate samples would flip between the two modes. More
/// pairs per op keep one slow call from setting the p99 on its own.
class WritePair {
 public:
  WritePair(size_t every, size_t pairs, std::string table,
            std::vector<Value> lo, std::vector<Value> hi)
      : every_(every),
        pairs_(pairs),
        table_(std::move(table)),
        lo_(std::move(lo)),
        hi_(std::move(hi)) {}

  /// True when op number `op` of a client's stream is a write op.
  bool IsWrite(size_t op) const { return op % every_ == 0; }

  OpOutcome Step(Database& db, Rng& rng) {
    std::vector<std::vector<Value>> rows(pairs_,
                                         std::vector<Value>(lo_.size()));
    for (std::vector<Value>& row : rows) {
      for (size_t c = 0; c < row.size(); ++c) {
        row[c] = Uniform(rng, lo_[c], hi_[c]);
      }
    }
    OpOutcome out;
    out.kind = OpOutcome::Kind::kWrite;
    out.attempted = 2 * pairs_;
    const auto t0 = Clock::now();
    for (const std::vector<Value>& row : rows) {
      const Key key = db.Insert(table_, row);
      out.failed += db.Delete(table_, key) ? 0 : 1;
    }
    out.micros = MicrosBetween(t0, Clock::now()) / static_cast<double>(2 * pairs_);
    return out;
  }

 private:
  size_t every_;
  size_t pairs_;
  std::string table_;
  std::vector<Value> lo_, hi_;
};

// ---------------------------------------------------------------------------
// qi-sideways: the paper's Section 4.2 Qi workload on a sideways-cracking,
// range-sharded 11-attribute relation, one client, no pool.
// ---------------------------------------------------------------------------
class QiSideways : public Workload {
 public:
  static constexpr size_t kRows = 500'000;
  static constexpr size_t kAttrs = 11;
  static constexpr size_t kPartitions = 16;
  static constexpr size_t kBatch = 50;  // queries per type, round robin
  static constexpr Value kDomain = 10'000'000;
  // Throughput decays as the maps age, so a figure over a fixed time
  // would depend on how far the run got. Each epoch replays the same ops
  // on a fresh table instead.
  static constexpr size_t kEpochOps = 6'000;

  size_t clients() const override { return 1; }
  size_t warmup_ops() const override { return 20 * kBatch; }
  size_t epoch_ops() const override { return kEpochOps; }
  size_t partition_rows() const override { return kRows / kPartitions; }

  void BuildSource(uint64_t seed) override {
    seed_ = seed;
    std::vector<std::string> cols;
    for (size_t i = 1; i <= kAttrs; ++i) cols.push_back(Attr(i));
    source_ = NewRelation("qi", cols);
    Rng rng(seed);
    std::vector<Value> row(kAttrs);
    for (size_t r = 0; r < kRows; ++r) {
      for (Value& v : row) v = Uniform(rng, 1, kDomain);
      source_->BulkLoadRow(row);
    }
  }

  double Setup() override {
    db_.reset();
    DatabaseOptions opts;
    opts.pool_threads = 0;
    db_ = std::make_unique<Database>(opts);
    PartitionSpec spec{PartitionSpec::Kind::kRange, kPartitions, Attr(1), 1,
                       kDomain};
    const auto t0 = Clock::now();
    db_->RegisterSharded("R", *source_, spec, "sideways");
    return SecondsBetween(t0, Clock::now());
  }

  void ResetStreams() override {
    stream_.seed(seed_ * 0x9E3779B97F4A7C15ULL + 1);
    write_rng_.seed(seed_ + 7);
    ops_ = 0;
    issued_ = 0;
  }

  OpOutcome RunOp(size_t, bool traced, bool sample) override {
    if (writes_.IsWrite(ops_++)) return writes_.Step(*db_, write_rng_);
    const size_t type = (issued_++ / kBatch) % 5;
    auto builder = db_->From("R");
    const auto [alo, ahi] = RangeOfWidth(stream_, 1, kDomain, kDomain / 100);
    const auto [blo, bhi] = RangeOfWidth(stream_, 1, kDomain, kDomain / 2);
    builder.Where(Attr(1), alo, ahi).Where(Attr(2 + type), blo, bhi);
    builder.Project(Attr(7 + type));
    if (traced) builder.Trace();
    Query q = builder.Build();
    if (!sample) return ExecuteTimed(*db_, std::move(q), nullptr);
    std::optional<ExecuteResult> answer;
    Query copy = q;
    OpOutcome out = ExecuteTimed(*db_, std::move(q), &answer);
    if (answer) samples_.push_back({std::move(copy), std::move(*answer)});
    return out;
  }

  Facts Collect() override {
    Facts f;
    AddTableFacts(*db_, "R", kAttrs, &f);
    return f;
  }

  CheckTally Verify(bool corrupt) override {
    return CheckSamples(*source_, samples_, corrupt);
  }

 private:
  static std::string Attr(size_t i) { return "A" + std::to_string(i); }

  uint64_t seed_ = 0;
  std::unique_ptr<Relation> source_;
  std::unique_ptr<Database> db_;
  Rng stream_;
  Rng write_rng_;
  WritePair writes_{10, 1, "R", std::vector<Value>(kAttrs, 1),
                    std::vector<Value>(kAttrs, kDomain)};
  size_t ops_ = 0;
  size_t issued_ = 0;
  std::vector<Sample> samples_;
};

// ---------------------------------------------------------------------------
// agg-pushdown: encoded-domain Count/Sum on a compress-on-load table F and
// grouped aggregation on a raw selection-cracking table G; one client and
// a 3-worker fan-out pool.
// ---------------------------------------------------------------------------
class AggPushdown : public Workload {
 public:
  static constexpr size_t kRows = 400'000;  // per table
  static constexpr size_t kPartitions = 16;
  static constexpr size_t kCategories = 256;
  static constexpr Value kFKeyHi = 4 * static_cast<Value>(kRows);
  static constexpr Value kRunHi = 1'000'000'000;
  static constexpr Value kGDomain = 10'000'000;
  // Queries per ExecuteBatch call: a fan-out wakes the pool once per batch
  // instead of once per query, which keeps throughput steady on hosts
  // where waking an idle vCPU is slow.
  static constexpr size_t kBatchQueries = 8;

  size_t clients() const override { return 1; }
  size_t warmup_ops() const override { return 150; }
  bool pooled() const override { return true; }
  size_t partition_rows() const override { return kRows / kPartitions; }

  void BuildSource(uint64_t seed) override {
    seed_ = seed;
    Rng rng(seed);
    // F: f_key ascends with load order (a timestamp: FOR), f_cat draws
    // from 256 widely spaced values (dictionary), f_run repeats each value
    // over a run of 16..48 rows (RLE). Routing on f_key keeps load order
    // within a partition, so the runs survive sharding.
    f_ = NewRelation("F", {"f_key", "f_cat", "f_run"});
    for (size_t c = 0; c < kCategories; ++c) {
      cats_.push_back(static_cast<Value>(c) * (Value{1} << 34) +
                      Uniform(rng, 0, 1000));
    }
    Value run_value = 0;
    size_t run_left = 0;
    for (size_t i = 0; i < kRows; ++i) {
      if (run_left == 0) {
        run_value = Uniform(rng, 0, kRunHi);
        run_left = static_cast<size_t>(Uniform(rng, 16, 48));
      }
      --run_left;
      const Value row[3] = {4 * static_cast<Value>(i) + Uniform(rng, 0, 3),
                            cats_[static_cast<size_t>(
                                Uniform(rng, 0, kCategories - 1))],
                            run_value};
      f_->BulkLoadRow(row);
    }
    // G: uniform organizing key, 64 groups, a value to sum, and a second
    // predicate attribute.
    g_ = NewRelation("G", {"g_k", "g_g", "g_v", "g_x"});
    for (size_t i = 0; i < kRows; ++i) {
      const Value row[4] = {Uniform(rng, 1, kGDomain), Uniform(rng, 0, 63),
                            Uniform(rng, 1, 1'000'000),
                            Uniform(rng, 1, kGDomain)};
      g_->BulkLoadRow(row);
    }
  }

  double Setup() override {
    db_.reset();
    DatabaseOptions opts;
    opts.pool_threads = 3;
    db_ = std::make_unique<Database>(opts);
    crackdb::AdaptiveConfig compress;
    compress.compression.enabled = true;
    compress.compression.compress_on_load = true;
    const auto t0 = Clock::now();
    db_->RegisterSharded(
        "F", *f_, {PartitionSpec::Kind::kRange, kPartitions, "f_key", 0, kFKeyHi},
        "selection-cracking", compress);
    db_->RegisterSharded(
        "G", *g_, {PartitionSpec::Kind::kRange, kPartitions, "g_k", 1, kGDomain},
        "selection-cracking");
    return SecondsBetween(t0, Clock::now());
  }

  void ResetStreams() override {
    stream_.seed(seed_ * 0x9E3779B97F4A7C15ULL + 2);
    write_rng_.seed(seed_ + 7);
    ops_ = 0;
    batches_ = 0;
    samples_.clear();
  }

  OpOutcome RunOp(size_t, bool traced, bool sample) override {
    // Writes go to the raw table G: a write to F would decompress it.
    if (writes_.IsWrite(ops_++)) return writes_.Step(*db_, write_rng_);
    // Every third batch is grouped queries on G, the others scalar
    // queries on F; one table per batch, so each batch fans out once.
    const bool grouped = batches_++ % 3 == 2;
    std::vector<Query> batch;
    for (size_t i = 0; i < kBatchQueries; ++i) {
      batch.push_back(grouped ? MakeGrouped() : MakeEncoded());
      batch.back().trace = traced;
    }
    OpOutcome out;
    out.attempted = batch.size();
    const auto t0 = Clock::now();
    std::vector<crackdb::Expected<ExecuteResult>> results =
        db_->ExecuteBatch(batch);
    out.micros = MicrosBetween(t0, Clock::now());
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        ++out.failed;
        continue;
      }
      out.queries.push_back(Stat(results[i].value()));
      if (sample) {
        samples_.push_back({std::move(batch[i]), std::move(results[i].value())});
      }
    }
    return out;
  }


  Facts Collect() override {
    Facts f;
    AddTableFacts(*db_, "F", 3, &f);
    AddTableFacts(*db_, "G", 4, &f);
    return f;
  }

  CheckTally Verify(bool corrupt) override {
    std::vector<Sample> on_f;
    std::vector<Sample> on_g;
    for (Sample& s : samples_) {
      (s.query.table == "F" ? on_f : on_g).push_back(std::move(s));
    }
    samples_.clear();
    CheckTally tally = CheckSamples(*f_, on_f, corrupt);
    const CheckTally g = CheckSamples(*g_, on_g, corrupt);
    tally.checked += g.checked;
    tally.mismatches += g.mismatches;
    return tally;
  }

 private:
  /// One of four single-selection scalar shapes on F, each served in the
  /// encoded domain: FOR count, FOR-select + RLE fold, dictionary count,
  /// RLE-select + dictionary fold. Ranges are wide, so they fan out.
  Query MakeEncoded() {
    auto b = db_->From("F");
    const Value key_width =
        kFKeyHi * Uniform(stream_, 30, 70) / 100;
    switch (Uniform(stream_, 0, 3)) {
      case 0: {
        const auto [lo, hi] = RangeOfWidth(stream_, 0, kFKeyHi, key_width);
        return b.Where("f_key", lo, hi).Count().Build();
      }
      case 1: {
        const auto [lo, hi] = RangeOfWidth(stream_, 0, kFKeyHi, key_width);
        return b.Where("f_key", lo, hi).Aggregate(AggregateOp::kSum, "f_run")
            .Build();
      }
      case 2: {
        const size_t first = static_cast<size_t>(
            Uniform(stream_, 0, kCategories / 2));
        return b.Where("f_cat", cats_[first], cats_[first + kCategories / 2 - 1])
            .Count()
            .Build();
      }
      default: {
        const auto [lo, hi] = RangeOfWidth(stream_, 0, kRunHi, kRunHi / 2);
        return b.Where("f_run", lo, hi).Aggregate(AggregateOp::kSum, "f_cat")
            .Build();
      }
    }
  }

  Query MakeGrouped() {
    const Value width = kGDomain * Uniform(stream_, 20, 60) / 100;
    const auto [klo, khi] = RangeOfWidth(stream_, 1, kGDomain, width);
    const auto [xlo, xhi] = RangeOfWidth(stream_, 1, kGDomain, kGDomain / 2);
    return db_->From("G")
        .Where("g_k", klo, khi)
        .Where("g_x", xlo, xhi)
        .GroupBy("g_g")
        .Aggregate(AggregateOp::kSum, "g_v")
        .Aggregate(AggregateOp::kCount, "g_v")
        .Build();
  }

  uint64_t seed_ = 0;
  std::vector<Value> cats_;
  std::unique_ptr<Relation> f_;
  std::unique_ptr<Relation> g_;
  std::unique_ptr<Database> db_;
  Rng stream_;
  Rng write_rng_;
  WritePair writes_{4, 4, "G", {1, 0, 1, 1},
                    {kGDomain, 63, 1'000'000, kGDomain}};
  size_t ops_ = 0;
  size_t batches_ = 0;
  std::vector<Sample> samples_;
};

// ---------------------------------------------------------------------------
// serve-rw: three closed-loop clients against a partial-sideways table with
// adaptive repartitioning: drifting-hotspot range reads, point reads, and
// inserts/deletes of each client's own rows. Client 0 ticks the adaptive
// loop every kTickEvery of its ops.
// ---------------------------------------------------------------------------
class ServeRw : public Workload {
 public:
  static constexpr size_t kRows = 400'000;
  static constexpr size_t kPartitions = 8;
  static constexpr size_t kClients = 3;
  static constexpr size_t kTickEvery = 256;
  static constexpr Value kDomain = 10'000'000;
  static constexpr Value kPayloadHi = 1'000'000;
  // Drifting hotspot: kHotWidth of the domain draws 90% of range reads and
  // sweeps across the domain once every kSweep range reads of a client —
  // a few percent of the domain per run. (A faster sweep makes throughput
  // swing by 2x between runs: partial-map areas that the hotspot leaves
  // get dropped, and with them the update tapes that slow queries down.)
  static constexpr Value kHotWidth = kDomain / 5;
  static constexpr double kSweep = 2'000'000;
  static constexpr size_t kOwnRows = 32;  // live rows a client keeps

  size_t clients() const override { return kClients; }
  size_t warmup_ops() const override { return 3000; }
  size_t partition_rows() const override { return kRows / kPartitions; }

  void BuildSource(uint64_t seed) override {
    seed_ = seed;
    Rng rng(seed);
    source_ = NewRelation("S", {"s_k", "s_a", "s_b", "s_c"});
    keys_.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      const Value row[4] = {Uniform(rng, 1, kDomain), Uniform(rng, 1, kPayloadHi),
                            Uniform(rng, 1, kPayloadHi),
                            Uniform(rng, 1, kPayloadHi)};
      keys_.push_back(row[0]);
      source_->BulkLoadRow(row);
    }
  }

  double Setup() override {
    db_.reset();
    DatabaseOptions opts;
    opts.pool_threads = 0;
    db_ = std::make_unique<Database>(opts);
    crackdb::AdaptiveConfig adaptive;
    adaptive.enabled = true;
    const auto t0 = Clock::now();
    db_->RegisterSharded(
        "S", *source_, {PartitionSpec::Kind::kRange, kPartitions, "s_k", 1, kDomain},
        "partial", adaptive);
    return SecondsBetween(t0, Clock::now());
  }

  void ResetStreams() override {
    for (size_t c = 0; c < kClients; ++c) {
      Client& cl = clients_[c];
      cl = Client{};
      cl.rng.seed(seed_ * 0x9E3779B97F4A7C15ULL + 3 + c);
    }
  }

  OpOutcome RunOp(size_t client, bool traced, bool) override {
    Client& cl = clients_[client];
    if (client == 0 && ++cl.ops % kTickEvery == 0) {
      const auto t0 = Clock::now();
      db_->MaybeRepartition("S");
      cl.tick_micros.push_back(MicrosBetween(t0, Clock::now()));
    }
    const Value dice = Uniform(cl.rng, 0, 99);
    if (dice < 70) {
      Query q = RangeRead(cl);
      q.trace = traced;
      return ExecuteTimed(*db_, std::move(q), nullptr);
    }
    if (dice < 80) {
      Query q = PointRead(cl.rng);
      q.trace = traced;
      return ExecuteTimed(*db_, std::move(q), nullptr);
    }
    // Writes follow the reads: inserts land in the client's hotspot, and a
    // client deletes its oldest row once it holds kOwnRows, so the pending
    // updates sit where queries will merge them.
    OpOutcome out;
    out.kind = OpOutcome::Kind::kWrite;
    if (cl.own.empty() ||
        (cl.own.size() < kOwnRows && Uniform(cl.rng, 0, 1) == 0)) {
      const Value lo = HotLo(cl);
      std::vector<Value> row = {Uniform(cl.rng, lo, lo + kHotWidth - 1),
                                Uniform(cl.rng, 1, kPayloadHi),
                                Uniform(cl.rng, 1, kPayloadHi),
                                Uniform(cl.rng, 1, kPayloadHi)};
      const auto t0 = Clock::now();
      const Key key = db_->Insert("S", row);
      out.micros = MicrosBetween(t0, Clock::now());
      cl.own.push_back({key, std::move(row)});
    } else {
      const auto t0 = Clock::now();
      out.failed = db_->Delete("S", cl.own.front().first) ? 0 : 1;
      out.micros = MicrosBetween(t0, Clock::now());
      cl.own.pop_front();
    }
    return out;
  }

  Facts Collect() override {
    Facts f;
    AddTableFacts(*db_, "S", 4, &f);
    f.tick_micros = clients_[0].tick_micros;
    return f;
  }

  CheckTally Verify(bool corrupt) override {
    // The oracle relation: the source plus every client's surviving rows
    // (clients only ever delete rows they inserted themselves).
    auto oracle = NewRelation("S_oracle", {"s_k", "s_a", "s_b", "s_c"});
    std::vector<Value> row(4);
    for (size_t i = 0; i < kRows; ++i) {
      for (size_t c = 0; c < 4; ++c) row[c] = source_->column(c).values()[i];
      oracle->BulkLoadRow(row);
    }
    for (const Client& cl : clients_) {
      for (const auto& [key, values] : cl.own) oracle->BulkLoadRow(values);
    }
    CheckTally tally;
    ++tally.checked;
    if (db_->Stats("S").live_rows != oracle->num_live_rows()) {
      ++tally.mismatches;
    }
    Rng rng(seed_ + 11);
    std::vector<Sample> samples;
    for (size_t i = 0; i < 120; ++i) {
      Query q;
      if (i % 3 == 0) {
        q = PointRead(rng);
      } else if (i % 3 == 1) {
        const auto [lo, hi] = RangeOfWidth(rng, 1, kDomain, kDomain / 100);
        q = db_->From("S").Where("s_k", lo, hi).Project("s_a", "s_b").Build();
      } else {
        const auto [lo, hi] = RangeOfWidth(rng, 1, kDomain, kDomain / 10);
        q = db_->From("S").Where("s_k", lo, hi).Count().Build();
      }
      Query copy = q;
      std::optional<ExecuteResult> answer;
      if (ExecuteTimed(*db_, std::move(q), &answer).failed == 0 && answer) {
        samples.push_back({std::move(copy), std::move(*answer)});
      } else {
        ++tally.checked;
        ++tally.mismatches;
      }
    }
    const CheckTally s = CheckSamples(*oracle, samples, corrupt);
    tally.checked += s.checked;
    tally.mismatches += s.mismatches;
    return tally;
  }

 private:
  struct Client {
    Rng rng;
    size_t ops = 0;
    size_t reads = 0;
    std::deque<std::pair<Key, std::vector<Value>>> own;
    std::vector<double> tick_micros;
  };

  /// The client's hotspot [HotLo, HotLo + kHotWidth): it sweeps the domain
  /// up and back, one sweep per kSweep range reads of the client.
  static Value HotLo(const Client& cl) {
    const double t = std::fmod(static_cast<double>(cl.reads) / kSweep, 2.0);
    const double at = t < 1.0 ? t : 2.0 - t;
    return 1 + static_cast<Value>(at * static_cast<double>(kDomain - kHotWidth));
  }

  Query RangeRead(Client& cl) {
    const Value hot_lo = HotLo(cl);
    ++cl.reads;
    const Value width = kDomain / 100;
    const bool hot = Uniform(cl.rng, 0, 9) != 0;
    const auto [lo, hi] =
        hot ? RangeOfWidth(cl.rng, hot_lo, hot_lo + kHotWidth - 1, width)
            : RangeOfWidth(cl.rng, 1, kDomain, width);
    return db_->From("S").Where("s_k", lo, hi).Project("s_a", "s_b").Build();
  }

  Query PointRead(Rng& rng) {
    const Value v = keys_[static_cast<size_t>(
        Uniform(rng, 0, static_cast<Value>(kRows) - 1))];
    return db_->From("S").WherePoint("s_k", v).Project("s_a", "s_b", "s_c")
        .Build();
  }

  uint64_t seed_ = 0;
  std::unique_ptr<Relation> source_;
  std::vector<Value> keys_;
  std::unique_ptr<Database> db_;
  std::array<Client, kClients> clients_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "qi-sideways") return std::make_unique<QiSideways>();
  if (name == "agg-pushdown") return std::make_unique<AggPushdown>();
  if (name == "serve-rw") return std::make_unique<ServeRw>();
  return nullptr;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"qi-sideways", "agg-pushdown",
                                                 "serve-rw"};
  return names;
}

}  // namespace crackbench
