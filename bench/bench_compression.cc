// The cracking-aware compression layer (storage/codec.h) measured three
// ways on five data shapes — uniform, zipfian, low-cardinality, run-heavy
// and ascending (load-ordered) columns:
//
//   1. codec micro: bytes per row raw vs encoded, the encoded Count / Sum
//      kernels against both the raw-array kernels and the honest
//      decompress-then-fold alternative they replace, and select-then-fold
//      (EncodedSelect + FoldSelection: spans on runs and sorted FOR,
//      positions otherwise) against the raw select + gather-fold;
//   2. end-to-end: a compress-on-load Database vs an identical raw one
//      serving the same Count/Sum stream (the encoded fast path inside
//      ShardedEngine), with the per-table footprint from Stats;
//   3. crack-on-touch: a materializing query against the compressed table
//      must transparently decompress the touched partitions and return
//      rows identical to the raw arm.
//
//   ./bench_compression                  # all shapes, sel 1,10,50%
//   ./bench_compression --engine=partial --shape=lowcard
//   ./bench_compression --smoke          # CI fast path
//
// Verify-before-trust: every encoded structure must round-trip
// bit-exactly, every encoded count/sum must equal the raw-array oracle at
// every selectivity, and both database arms must agree on every answer
// before any timing is reported. Each shape emits a machine-readable
// `BENCH_compression {...}` JSON line (schema in docs/BENCHMARKS.md).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "bench_util/workload.h"
#include "common/timer.h"
#include "engine/database.h"
#include "kernels/cpu_dispatch.h"
#include "kernels/kernels.h"
#include "storage/catalog.h"
#include "storage/codec.h"

namespace crackdb::bench {
namespace {

constexpr Value kDomain = 10'000'000;

struct CompressionOptions {
  std::string engine = "sideways";
  std::string shape;  // empty = all
  size_t partitions = 4;
};

struct Shape {
  const char* name;
  // Fills the payload column (A2); A1 stays uniform so range sharding on
  // it behaves identically across shapes.
  Value (*next)(Rng* rng);
};

Value NextUniform(Rng* rng) { return rng->Uniform(1, kDomain); }

// Zipf-ish frequencies over a 1024-value alphabet spread across the
// domain: a handful of values carry most rows (dictionary territory).
Value NextZipfian(Rng* rng) {
  const double u = rng->NextDouble();
  const size_t rank = static_cast<size_t>(1024.0 * u * u * u);
  return static_cast<Value>(rank >= 1024 ? 1024 : rank + 1) *
         (kDomain / 1024);
}

// Sixteen distinct values in random order.
Value NextLowCard(Rng* rng) {
  return (rng->Uniform(0, 15) + 1) * (kDomain / 16);
}

// Piecewise-constant: the value changes roughly every 64 rows (RLE
// territory). State lives in the generator's rng-draw pattern: draw a new
// level with probability 1/64, else repeat the previous one.
Value g_run_level = 1;  // reset per relation build
Value NextRuns(Rng* rng) {
  if (rng->Bernoulli(1.0 / 64.0)) g_run_level = rng->Uniform(1, kDomain);
  return g_run_level;
}

// Timestamp-like: each row lands 1..2*step-1 ticks after the previous
// one, with the step sized so the column spans about [1, kDomain] like the
// other shapes. It ascends in load order, and so in every partition (which
// keeps load order). High cardinality over a range of at most 2^32: FOR,
// with `sorted` set.
Value g_clock = 0;       // reset per relation build
Value g_clock_step = 1;  // set per relation build
Value NextAscending(Rng* rng) {
  g_clock += rng->Uniform(1, 2 * g_clock_step - 1);
  return g_clock;
}

constexpr Shape kShapes[] = {
    {"uniform", NextUniform},
    {"zipfian", NextZipfian},
    {"lowcard", NextLowCard},
    {"runs", NextRuns},
    {"ascending", NextAscending},
};

Relation& CreateShapedRelation(Catalog* catalog, const std::string& name,
                               const Shape& shape, size_t rows, Rng* rng) {
  Relation& r = catalog->CreateRelation(name);
  r.AddColumn(AttrName(1));
  r.AddColumn(AttrName(2));
  g_run_level = 1;
  g_clock = 0;
  g_clock_step = std::max<Value>(1, kDomain / static_cast<Value>(rows));
  std::vector<Value> row(2);
  for (size_t i = 0; i < rows; ++i) {
    row[0] = rng->Uniform(1, kDomain);
    row[1] = shape.next(rng);
    r.BulkLoadRow(row);
  }
  return r;
}

PartitionSpec MakeSpec(const CompressionOptions& opt) {
  PartitionSpec spec;
  spec.kind = PartitionSpec::Kind::kRange;
  spec.num_partitions = opt.partitions;
  spec.column = AttrName(1);
  spec.domain_lo = 1;
  spec.domain_hi = kDomain;
  return spec;
}

std::unique_ptr<Database> MakeDatabase(const Relation& source,
                                       const CompressionOptions& opt,
                                       bool compress) {
  auto db = std::make_unique<Database>(DatabaseOptions{.pool_threads = 0});
  AdaptiveConfig adaptive;
  adaptive.compression.enabled = compress;
  adaptive.compression.compress_on_load = compress;
  db->RegisterSharded("R", source, MakeSpec(opt), opt.engine, adaptive);
  return db;
}

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "FAILED: %s\n", what);
  std::exit(1);
}

/// Codec micro results for one shape's payload column.
struct MicroResult {
  CodecKind codec = CodecKind::kRaw;
  size_t raw_bytes = 0;
  size_t encoded_bytes = 0;
  double sum_encoded_gbps = 0;
  double sum_raw_gbps = 0;
  double sum_decode_gbps = 0;  // decompress-then-fold
  double count_encoded_mqps = 0;
  double count_raw_mqps = 0;
  double select_fold_encoded_qps = 0;
  double select_fold_raw_qps = 0;
};

MicroResult RunMicro(const std::vector<Value>& vals, uint64_t seed,
                     size_t reps) {
  MicroResult m;
  m.raw_bytes = vals.size() * sizeof(Value);
  const CompressionConfig config;  // defaults: the production thresholds
  m.codec = ChooseCodec(vals, config);
  if (m.codec == CodecKind::kRaw) Fail("shape chose the raw codec");
  EncodedColumn enc;
  if (!EncodeColumn(vals, m.codec, &enc)) Fail("encode refused the shape");
  m.encoded_bytes = EncodedBytes(enc);
  if (DecodeColumn(enc) != vals) Fail("codec round-trip diverged");

  // Sum folds: encoded-domain vs raw-array vs decompress-then-fold. All
  // three must agree bit-for-bit (wrapping mod 2^64).
  Value raw_acc = 0, enc_acc = 0, dec_acc = 0;
  bool raw_valid = false, enc_valid = false, dec_valid = false;
  Timer t_raw;
  for (size_t r = 0; r < reps; ++r) {
    raw_acc = 0;
    raw_valid = false;
    kernels::FoldSpan(kernels::FoldOp::kSum, vals.data(), vals.size(),
                      &raw_acc, &raw_valid);
  }
  const double raw_s = t_raw.ElapsedSeconds();
  Timer t_enc;
  for (size_t r = 0; r < reps; ++r) {
    enc_acc = 0;
    enc_valid = false;
    EncodedFold(enc, kernels::FoldOp::kSum, &enc_acc, &enc_valid);
  }
  const double enc_s = t_enc.ElapsedSeconds();
  Timer t_dec;
  for (size_t r = 0; r < reps; ++r) {
    dec_acc = 0;
    dec_valid = false;
    const std::vector<Value> decoded = DecodeColumn(enc);
    kernels::FoldSpan(kernels::FoldOp::kSum, decoded.data(), decoded.size(),
                      &dec_acc, &dec_valid);
  }
  const double dec_s = t_dec.ElapsedSeconds();
  if (enc_acc != raw_acc || dec_acc != raw_acc || enc_valid != raw_valid ||
      dec_valid != raw_valid) {
    Fail("sum folds diverged across layouts");
  }
  const double bytes = static_cast<double>(m.raw_bytes) *
                       static_cast<double>(reps) / 1e9;
  m.sum_raw_gbps = bytes / raw_s;
  m.sum_encoded_gbps = bytes / enc_s;
  m.sum_decode_gbps = bytes / dec_s;

  // Range counts across a selectivity sweep: equality at every point,
  // throughput at 10%.
  Rng rng(seed);
  Value lo = kMinValue, hi = kMaxValue;
  for (const double sel : {0.01, 0.10, 0.50, 1.0}) {
    const RangePredicate pred =
        sel >= 1.0 ? RangePredicate{} : RandomRange(&rng, 1, kDomain, sel);
    const size_t raw_count =
        kernels::CountRange(vals.data(), vals.size(), pred);
    if (EncodedCount(enc, pred) != raw_count) {
      Fail("encoded count diverged from the raw oracle");
    }
    std::vector<Key> raw_keys;
    kernels::SelectRange(vals.data(), vals.size(), pred, 0, &raw_keys);
    RowSelection rows;
    EncodedSelect(enc, pred, &rows);
    if (rows.ToPositions() != raw_keys) {
      Fail("encoded select diverged from the raw oracle");
    }
    if (sel == 0.10) {
      lo = pred.low;
      hi = pred.high;
    }
  }
  const RangePredicate timed = RangePredicate::Closed(lo, hi);
  size_t enc_total = 0, raw_total = 0;
  Timer t_count_enc;
  for (size_t r = 0; r < reps; ++r) enc_total += EncodedCount(enc, timed);
  const double count_enc_s = t_count_enc.ElapsedSeconds();
  Timer t_count_raw;
  for (size_t r = 0; r < reps; ++r) {
    raw_total += kernels::CountRange(vals.data(), vals.size(), timed);
  }
  const double count_raw_s = t_count_raw.ElapsedSeconds();
  if (enc_total != raw_total) Fail("timed counts diverged");
  m.count_encoded_mqps = static_cast<double>(reps) / count_enc_s / 1e6;
  m.count_raw_mqps = static_cast<double>(reps) / count_raw_s / 1e6;

  // Select-then-fold on the same 10% range: the encoded selection (spans
  // where the layout names them) folded by FoldSelection, against the raw
  // select into positions plus a gather-fold. Sums must agree.
  RowSelection rows;
  std::vector<Key> raw_keys;
  Value sf_enc = 0, sf_raw = 0;
  bool sf_enc_valid = false, sf_raw_valid = false;
  Timer t_sf_enc;
  for (size_t r = 0; r < reps; ++r) {
    sf_enc = 0;
    sf_enc_valid = false;
    EncodedSelect(enc, timed, &rows);
    FoldSelection(enc, rows, kernels::FoldOp::kSum, &sf_enc, &sf_enc_valid);
  }
  const double sf_enc_s = t_sf_enc.ElapsedSeconds();
  Timer t_sf_raw;
  for (size_t r = 0; r < reps; ++r) {
    sf_raw = 0;
    sf_raw_valid = false;
    raw_keys.clear();
    kernels::SelectRange(vals.data(), vals.size(), timed, 0, &raw_keys);
    if (!raw_keys.empty()) {
      kernels::FoldGather(kernels::FoldOp::kSum, vals.data(), raw_keys.data(),
                          raw_keys.size(), &sf_raw, &sf_raw_valid);
    }
  }
  const double sf_raw_s = t_sf_raw.ElapsedSeconds();
  if (sf_enc != sf_raw || sf_enc_valid != sf_raw_valid) {
    Fail("select-then-fold sums diverged");
  }
  m.select_fold_encoded_qps = static_cast<double>(reps) / sf_enc_s;
  m.select_fold_raw_qps = static_cast<double>(reps) / sf_raw_s;
  return m;
}

/// End-to-end results: one arm (raw or compress-on-load) serving the same
/// Count/Sum stream through the fluent API.
struct ArmResult {
  double qps = 0;          ///< steady state of the registered layout
  double adapted_qps = 0;  ///< steady state after crack-on-touch raw-ified
  uint64_t digest = 0;     ///< mix of every answer across all phases
  /// Snapshot after the scalar stream, while the layout is still
  /// whatever the arm converged to (footprint, encoded-query counters).
  TableStats stats;
  /// Decompressions after the final materializing query (crack-on-touch).
  uint64_t final_decompressions = 0;
};

ArmResult RunArm(const Relation& source, const CompressionOptions& opt,
                 bool compress, const std::vector<RangePredicate>& preds) {
  const std::unique_ptr<Database> db = MakeDatabase(source, opt, compress);
  ArmResult result;

  // Two passes over the encoded-servable rotation (same-column count,
  // same-column filtered sum, cross-column sum, unfiltered max); the
  // second pass is the timed steady state, every answer feeds the digest.
  const auto run_stream = [&]() {
    double elapsed = 0;
    for (int pass = 0; pass < 2; ++pass) {
      Timer timer;
      for (size_t i = 0; i < preds.size(); ++i) {
        const RangePredicate& pred = preds[i];
        Expected<ExecuteResult> r = [&] {
          switch (i % 4) {
            case 0:
              return db->From("R").Where(AttrName(2), pred).Count().Execute();
            case 1:
              return db->From("R")
                  .Where(AttrName(2), pred)
                  .Aggregate(AggregateOp::kSum, AttrName(2))
                  .Execute();
            case 2:
              return db->From("R")
                  .Where(AttrName(1), pred)
                  .Aggregate(AggregateOp::kSum, AttrName(2))
                  .Execute();
            default:
              return db->From("R")
                  .Aggregate(AggregateOp::kMax, AttrName(2))
                  .Execute();
          }
        }();
        if (!r.ok()) Fail(r.error().c_str());
        result.digest = result.digest * 1099511628211ull +
                        static_cast<uint64_t>(r->count) * 31 +
                        static_cast<uint64_t>(r->aggregate) +
                        (r->aggregate_valid ? 7 : 0);
      }
      if (pass == 1) elapsed = timer.ElapsedSeconds();
    }
    return static_cast<double>(preds.size()) / elapsed;
  };

  result.qps = run_stream();
  result.stats = db->Stats("R");

  // Crack-on-touch: a materializing query on the compressed arm must
  // transparently raw-ify the touched partitions; answers are compared
  // across arms by the caller via the digest of a final count round.
  auto rows = db->From("R")
                  .Where(AttrName(2), preds.front())
                  .Project(AttrName(1), AttrName(2))
                  .Execute();
  if (!rows.ok()) Fail(rows.error().c_str());
  // Engines legitimately return rows in different physical orders (the
  // arms' cracked layouts differ), so the digest is an order-insensitive
  // sum of per-row hashes — multiset equality, like bench_util ZipRows.
  uint64_t row_digest = 0;
  for (size_t i = 0; i < rows->rows.num_rows; ++i) {
    uint64_t h = 1469598103934665603ull;
    for (const std::vector<Value>& col : rows->rows.columns) {
      h = (h ^ static_cast<uint64_t>(col[i])) * 1099511628211ull;
    }
    row_digest += h;
  }
  result.digest = result.digest * 31 + row_digest +
                  static_cast<uint64_t>(rows->rows.num_rows);
  result.final_decompressions = db->Stats("R").decompressions;

  // Adapted steady state: the materialization raw-ified every touched
  // partition, so this stream measures the layout the hot path converges
  // to — cracked indexes over raw columns. On the raw arm it is simply a
  // warm re-run, keeping the two digests comparable phase for phase.
  result.adapted_qps = run_stream();
  return result;
}

void Run(const BenchArgs& args, const CompressionOptions& opt) {
  const size_t rows = args.rows != 0 ? args.rows
                      : args.smoke   ? 40'000
                      : args.paper_scale ? 4'000'000
                                         : 400'000;
  const size_t queries = args.queries != 0 ? args.queries
                         : args.smoke      ? 8
                         : args.paper_scale ? 400
                                            : 120;
  const size_t reps = args.smoke ? 3 : 20;
  const char* kernel_isa = kernels::IsaName(kernels::ActiveIsa());
  std::printf(
      "# compression: engine=%s rows=%zu queries=%zu partitions=%zu "
      "kernel=%s\n",
      opt.engine.c_str(), rows, queries, opt.partitions, kernel_isa);

  FigureHeader("compression", "encoded layouts vs raw", "shape",
               "bytes_per_row");
  TablePrinter table({"shape", "codec", "B/row raw", "B/row enc", "ratio",
                      "sum enc GB/s", "sum raw GB/s", "sum decode GB/s",
                      "db qps raw", "db qps comp", "db qps adapted"});
  SeriesHeader("compression-" + opt.engine);

  for (const Shape& shape : kShapes) {
    if (!opt.shape.empty() && opt.shape != shape.name) continue;
    Catalog catalog;
    Rng data_rng(args.seed);
    Relation& source = CreateShapedRelation(
        &catalog, std::string("R_") + shape.name, shape, rows, &data_rng);

    // --- codec micro over the payload column ---
    std::vector<Value> payload(source.column(AttrName(2)).values().begin(),
                               source.column(AttrName(2)).values().end());
    const MicroResult micro = RunMicro(payload, args.seed + 17, reps);

    // --- end-to-end: raw arm vs compress-on-load arm ---
    Rng pred_rng(args.seed + 29);
    std::vector<RangePredicate> preds;
    preds.reserve(queries);
    for (size_t i = 0; i < queries; ++i) {
      preds.push_back(RandomRange(&pred_rng, 1, kDomain, 0.10));
    }
    const ArmResult raw = RunArm(source, opt, /*compress=*/false, preds);
    const ArmResult comp = RunArm(source, opt, /*compress=*/true, preds);
    if (raw.digest != comp.digest) {
      Fail("compressed arm answers diverged from the raw arm");
    }
    if (comp.stats.compressions == 0 || comp.stats.encoded_queries == 0) {
      Fail("compressed arm never exercised the encoded path");
    }
    if (comp.final_decompressions == 0) {
      Fail("the materializing query never triggered crack-on-touch");
    }

    const double bpr_raw = static_cast<double>(micro.raw_bytes) /
                           static_cast<double>(payload.size());
    const double bpr_enc = static_cast<double>(micro.encoded_bytes) /
                           static_cast<double>(payload.size());
    const double ratio = bpr_raw / bpr_enc;
    Point(static_cast<double>(&shape - kShapes), bpr_enc);
    table.AddRow({shape.name, CodecName(micro.codec), Fmt(bpr_raw, 2),
                  Fmt(bpr_enc, 2), Fmt(ratio, 2),
                  Fmt(micro.sum_encoded_gbps, 2), Fmt(micro.sum_raw_gbps, 2),
                  Fmt(micro.sum_decode_gbps, 2), Fmt(raw.qps, 0),
                  Fmt(comp.qps, 0), Fmt(comp.adapted_qps, 0)});
    std::printf(
        "BENCH_compression {\"shape\":\"%s\",\"engine\":\"%s\",\"rows\":%zu,"
        "\"queries\":%zu,\"kernel_isa\":\"%s\",\"codec\":\"%s\","
        "\"bytes_per_row_raw\":%.2f,\"bytes_per_row_encoded\":%.2f,"
        "\"compression_ratio\":%.2f,\"sum_encoded_gbps\":%.3f,"
        "\"sum_raw_gbps\":%.3f,\"sum_decode_then_fold_gbps\":%.3f,"
        "\"encoded_vs_decode_speedup\":%.2f,\"count_encoded_mqps\":%.3f,"
        "\"count_raw_mqps\":%.3f,\"select_fold_encoded_qps\":%.1f,"
        "\"select_fold_raw_qps\":%.1f,\"db_raw_qps\":%.1f,"
        "\"db_compressed_qps\":%.1f,\"db_adapted_qps\":%.1f,"
        "\"db_qps_ratio\":%.3f,"
        "\"db_bytes_per_row_raw\":%.2f,\"db_bytes_per_row_compressed\":%.2f,"
        "\"encoded_queries\":%llu,\"crack_decompressions\":%llu,"
        "\"compressed_partitions\":%zu,\"verified\":true}\n",
        shape.name, opt.engine.c_str(), rows, queries, kernel_isa,
        CodecName(micro.codec), bpr_raw, bpr_enc, ratio,
        micro.sum_encoded_gbps, micro.sum_raw_gbps, micro.sum_decode_gbps,
        micro.sum_encoded_gbps / micro.sum_decode_gbps,
        micro.count_encoded_mqps, micro.count_raw_mqps,
        micro.select_fold_encoded_qps, micro.select_fold_raw_qps, raw.qps,
        comp.qps,
        comp.adapted_qps, comp.adapted_qps / raw.adapted_qps,
        raw.stats.bytes_per_row, comp.stats.bytes_per_row,
        static_cast<unsigned long long>(comp.stats.encoded_queries),
        static_cast<unsigned long long>(comp.final_decompressions),
        comp.stats.compressed_partitions);
  }
  table.Print();
}

}  // namespace
}  // namespace crackdb::bench

int main(int argc, char** argv) {
  using crackdb::bench::BenchArgs;
  using crackdb::bench::BenchFlag;
  crackdb::bench::CompressionOptions opt;
  const BenchFlag extra[] = {
      {"--engine=KIND", "per-partition engine kind (default sideways)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--engine=", 9) != 0) return false;
         opt.engine = a + 9;
         return true;
       }},
      {"--shape=NAME", "run one shape: uniform|zipfian|lowcard|runs|ascending",
       [&opt](const char* a) {
         if (std::strncmp(a, "--shape=", 8) != 0) return false;
         opt.shape = a + 8;
         return true;
       }},
      {"--partitions=N", "partition count for the sharded table (default 4)",
       [&opt](const char* a) {
         if (std::strncmp(a, "--partitions=", 13) != 0) return false;
         const long long n = std::atoll(a + 13);
         if (n < 1 || n > 4'096) {
           std::fprintf(stderr, "--partitions wants 1..4096, got '%s'\n",
                        a + 13);
           std::exit(2);
         }
         opt.partitions = static_cast<size_t>(n);
         return true;
       }},
      {"--kernel=ISA",
       "pin the kernel dispatch arm: scalar|sse2|avx2|auto (default auto)",
       [](const char* a) {
         if (std::strncmp(a, "--kernel=", 9) != 0) return false;
         crackdb::kernels::Isa isa;
         if (!crackdb::kernels::ParseIsa(a + 9, &isa)) {
           std::fprintf(stderr,
                        "--kernel wants scalar|sse2|avx2|auto, got '%s'\n",
                        a + 9);
           std::exit(2);
         }
         crackdb::kernels::ForceIsa(isa);
         return true;
       }},
  };
  const BenchArgs args = BenchArgs::Parse(argc, argv, extra);
  crackdb::bench::Run(args, opt);
  return 0;
}
