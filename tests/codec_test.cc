// Codec-layer contract (storage/codec.h): ChooseCodec picks by the
// documented stats thresholds; every codec round-trips bit-for-bit
// (including wrapping INT64_MIN-based FOR frames); the encoded-domain
// query entry points (count/select/fold/filtered-fold/gather-fold) agree
// with a direct oracle over the raw values for every predicate shape; and
// span selections and span folds agree with the position kernels and the
// gather-fold they replace.

#include "storage/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace crackdb {
namespace {

using kernels::FoldOp;

/// A config with a low row floor so small test columns are eligible.
CompressionConfig TestConfig() {
  CompressionConfig config;
  config.enabled = true;
  config.min_rows = 8;
  return config;
}

std::vector<Value> Uniform(Rng* rng, size_t n, Value lo, Value hi) {
  std::vector<Value> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng->Uniform(lo, hi);
  return v;
}

/// `distinct` values drawn uniformly — dictionary-shaped when distinct is
/// far below n, with values spread wide so FOR would need many bits.
std::vector<Value> LowCardinality(Rng* rng, size_t n, size_t distinct) {
  std::vector<Value> alphabet(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    alphabet[i] = static_cast<Value>(i) * 1'000'000'007;
  }
  std::vector<Value> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = alphabet[static_cast<size_t>(
        rng->Uniform(0, static_cast<Value>(distinct) - 1))];
  }
  return v;
}

/// Long runs (average length ~len) over a small domain.
std::vector<Value> Runs(Rng* rng, size_t n, size_t len, Value domain) {
  std::vector<Value> v(n);
  Value level = rng->Uniform(1, domain);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(1.0 / static_cast<double>(len))) {
      level = rng->Uniform(1, domain);
    }
    v[i] = level;
  }
  return v;
}

/// Predicate shapes mirrored from kernel_test's oracle matrix.
std::vector<RangePredicate> Predicates(Value lo, Value hi) {
  // The span of [lo, hi] can exceed Value's range, so the thirds are taken
  // in unsigned arithmetic; both points still lie within [lo, hi].
  const uint64_t step =
      (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / 3;
  const Value third = static_cast<Value>(static_cast<uint64_t>(lo) + step);
  const Value two_thirds =
      static_cast<Value>(static_cast<uint64_t>(lo) + 2 * step);
  return {
      RangePredicate::Closed(third, two_thirds),
      RangePredicate::Open(third, two_thirds),
      RangePredicate::HalfOpen(third, two_thirds),
      RangePredicate::Point(third),
      RangePredicate{},                    // everything
      RangePredicate::Open(third, third),  // empty interval
      RangePredicate{kMinValue, third, true, true},
      RangePredicate{third, kMaxValue, true, true},
      RangePredicate{kMinValue, kMaxValue, false, false},
  };
}

struct OracleResult {
  size_t count = 0;
  std::vector<Key> keys;
  Value sum = 0;  // wrapping mod 2^64, like the kernels
  Value min = 0;
  Value max = 0;
  bool valid = false;
};

OracleResult Oracle(const std::vector<Value>& values,
                    const RangePredicate& pred, Key base) {
  OracleResult r;
  uint64_t sum = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (!pred.Matches(values[i])) continue;
    ++r.count;
    r.keys.push_back(base + static_cast<Key>(i));
    sum += static_cast<uint64_t>(values[i]);
    if (!r.valid) {
      r.min = r.max = values[i];
      r.valid = true;
    } else {
      r.min = std::min(r.min, values[i]);
      r.max = std::max(r.max, values[i]);
    }
  }
  r.sum = static_cast<Value>(sum);
  return r;
}

/// Encodes with `kind` (asserting success) and checks the full encoded
/// query surface against the raw oracle.
void CheckEncodedAgainstOracle(const std::vector<Value>& values,
                               CodecKind kind) {
  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumn(values, kind, &enc)) << CodecName(kind);
  ASSERT_EQ(enc.kind, kind);
  ASSERT_EQ(enc.n, values.size());

  // Round trip, bulk and random access.
  EXPECT_EQ(DecodeColumn(enc), values) << CodecName(kind);
  Rng rng(13);
  for (int probe = 0; probe < 64 && !values.empty(); ++probe) {
    const size_t i = static_cast<size_t>(
        rng.Uniform(0, static_cast<Value>(values.size()) - 1));
    ASSERT_EQ(DecodeAt(enc, i), values[i]) << CodecName(kind) << " i=" << i;
  }

  const auto [lo_it, hi_it] =
      std::minmax_element(values.begin(), values.end());
  const Value lo = values.empty() ? 0 : *lo_it;
  const Value hi = values.empty() ? 0 : *hi_it;
  for (const RangePredicate& pred : Predicates(lo, hi)) {
    const OracleResult want = Oracle(values, pred, 100);
    EXPECT_EQ(EncodedCount(enc, pred), want.count) << CodecName(kind);

    RowSelection rows;
    EncodedSelect(enc, pred, &rows);
    EXPECT_EQ(rows.size(), want.count) << CodecName(kind);
    std::vector<Key> keys = rows.ToPositions();
    for (Key& k : keys) k += 100;
    EXPECT_EQ(keys, want.keys) << CodecName(kind);

    const struct {
      FoldOp op;
      Value expected;
    } folds[] = {{FoldOp::kSum, want.sum},
                 {FoldOp::kMin, want.min},
                 {FoldOp::kMax, want.max}};
    for (const auto& fold : folds) {
      Value acc = 123;
      bool valid = false;
      const size_t matched =
          EncodedFoldFiltered(enc, pred, fold.op, &acc, &valid);
      EXPECT_EQ(matched, want.count) << CodecName(kind);
      EXPECT_EQ(valid, want.valid) << CodecName(kind);
      if (want.valid) {
        EXPECT_EQ(acc, fold.expected)
            << CodecName(kind) << " op=" << static_cast<int>(fold.op);
      } else {
        EXPECT_EQ(acc, 123);  // untouched when nothing matches
      }
    }

    // Gather-fold over the oracle's selection vector (rebased to 0), and
    // the selection fold over the column's own selection.
    std::vector<Key> positions = want.keys;
    for (Key& k : positions) k -= 100;
    for (const auto& fold : folds) {
      Value acc = 123;
      bool valid = false;
      EncodedGatherFold(enc, positions, fold.op, &acc, &valid);
      EXPECT_EQ(valid, want.valid) << CodecName(kind);
      EXPECT_EQ(acc, want.valid ? fold.expected : 123)
          << CodecName(kind) << " op=" << static_cast<int>(fold.op);
      acc = 123;
      valid = false;
      FoldSelection(enc, rows, fold.op, &acc, &valid);
      EXPECT_EQ(valid, want.valid) << CodecName(kind);
      EXPECT_EQ(acc, want.valid ? fold.expected : 123)
          << CodecName(kind) << " op=" << static_cast<int>(fold.op);
    }
  }

  // Unfiltered fold equals the everything-predicate fold.
  const OracleResult all = Oracle(values, RangePredicate{}, 0);
  Value acc = 123;
  bool valid = false;
  EncodedFold(enc, FoldOp::kSum, &acc, &valid);
  EXPECT_EQ(valid, all.valid);
  if (all.valid) {
    EXPECT_EQ(acc, all.sum);
  }
}

// ---------------------------------------------------------------------------
// ChooseCodec: the stats thresholds
// ---------------------------------------------------------------------------

TEST(ChooseCodecTest, SmallColumnsStayRaw) {
  Rng rng(5);
  CompressionConfig config;  // default min_rows = 1024
  const std::vector<Value> v = Uniform(&rng, 1023, 1, 100);
  EXPECT_EQ(ChooseCodec(v, config), CodecKind::kRaw);
}

TEST(ChooseCodecTest, LongRunsPickRle) {
  Rng rng(6);
  const std::vector<Value> v = Runs(&rng, 4096, 64, 1'000'000);
  EXPECT_EQ(ChooseCodec(v, TestConfig()), CodecKind::kRle);
}

TEST(ChooseCodecTest, LowCardinalityPicksDict) {
  Rng rng(7);
  // 16 distinct values spread over a >32-bit range: dict, never FOR, and
  // shuffled so runs are short.
  const std::vector<Value> v = LowCardinality(&rng, 4096, 16);
  EXPECT_EQ(ChooseCodec(v, TestConfig()), CodecKind::kDict);
}

TEST(ChooseCodecTest, NarrowRangePicksFor) {
  Rng rng(8);
  // High cardinality (beats the dict bound) but a range under 32 bits.
  const std::vector<Value> v = Uniform(&rng, 8192, 500'000, 16'000'000);
  EXPECT_EQ(ChooseCodec(v, TestConfig()), CodecKind::kFor);
}

TEST(ChooseCodecTest, WideHighCardinalityStaysRaw) {
  Rng rng(9);
  // Range needs > 32 bits and cardinality exceeds the dict bound.
  const std::vector<Value> v = Uniform(&rng, 8192, 1, Value{1} << 40);
  EXPECT_EQ(ChooseCodec(v, TestConfig()), CodecKind::kRaw);
}

// ---------------------------------------------------------------------------
// Round trips + encoded queries vs the raw oracle
// ---------------------------------------------------------------------------

TEST(CodecRoundTripTest, ForMatchesOracle) {
  Rng rng(17);
  for (size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{1000}}) {
    CheckEncodedAgainstOracle(Uniform(&rng, n, -500, 12'345), CodecKind::kFor);
  }
}

TEST(CodecRoundTripTest, SortedForMatchesOracle) {
  // Ascending with duplicates: `sorted` is set, so every predicate of the
  // oracle matrix takes the covering or the sorted-span rule.
  for (size_t n : {1u, 2u, 63u, 64u, 65u, 1000u}) {
    std::vector<Value> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<Value>(i / 3) * 7 - 50;
    EncodedColumn enc;
    ASSERT_TRUE(EncodeColumn(v, CodecKind::kFor, &enc));
    EXPECT_TRUE(enc.sorted);
    CheckEncodedAgainstOracle(v, CodecKind::kFor);
  }
}

TEST(CodecRoundTripTest, DictMatchesOracle) {
  Rng rng(19);
  for (size_t n : {size_t{1}, size_t{64}, size_t{1000}}) {
    CheckEncodedAgainstOracle(LowCardinality(&rng, n, 16), CodecKind::kDict);
  }
}

TEST(CodecRoundTripTest, RleMatchesOracle) {
  Rng rng(23);
  for (size_t n : {size_t{1}, size_t{64}, size_t{1000}}) {
    CheckEncodedAgainstOracle(Runs(&rng, n, 8, 300), CodecKind::kRle);
  }
}

TEST(CodecRoundTripTest, AllEqualColumnEncodesUnderEveryCodec) {
  const std::vector<Value> v(256, 42);
  for (CodecKind kind :
       {CodecKind::kFor, CodecKind::kRle, CodecKind::kDict}) {
    CheckEncodedAgainstOracle(v, kind);
  }
}

TEST(CodecRoundTripTest, ExtremeValueFramesRoundTrip) {
  // FOR decodes as wrapping uint64 base + code, so INT64_MIN-based frames
  // must round-trip exactly.
  std::vector<Value> low = {kMinValue, kMinValue + 5, kMinValue + 100,
                            kMinValue, kMinValue + 63};
  CheckEncodedAgainstOracle(low, CodecKind::kFor);
  CheckEncodedAgainstOracle(low, CodecKind::kDict);
  std::vector<Value> high = {kMaxValue, kMaxValue - 3, kMaxValue - 1,
                             kMaxValue};
  CheckEncodedAgainstOracle(high, CodecKind::kFor);
  CheckEncodedAgainstOracle(high, CodecKind::kRle);
}

TEST(CodecRoundTripTest, ForRefusesFullDomainRange) {
  // kMinValue..kMaxValue spans 2^64 - 1: no 63-bit code frame fits, so the
  // encoder must refuse rather than truncate.
  const std::vector<Value> v = {kMinValue, kMaxValue, 0, -1};
  EncodedColumn enc;
  EXPECT_FALSE(EncodeColumn(v, CodecKind::kFor, &enc));
  // Dictionary has no range limit: same data encodes fine.
  CheckEncodedAgainstOracle(v, CodecKind::kDict);
}

TEST(CodecRoundTripTest, RawKindRefusesToEncode) {
  const std::vector<Value> v(64, 1);
  EncodedColumn enc;
  EXPECT_FALSE(EncodeColumn(v, CodecKind::kRaw, &enc));
}

TEST(CodecBytesTest, EncodedBytesBeatRawOnCompressibleShapes) {
  Rng rng(29);
  const size_t n = 8192;
  const struct {
    std::vector<Value> values;
    CodecKind kind;
  } cases[] = {
      {Uniform(&rng, n, 1, 65'000), CodecKind::kFor},    // 16-17 bit codes
      {LowCardinality(&rng, n, 16), CodecKind::kDict},   // 4-bit codes
      {Runs(&rng, n, 64, 1'000'000), CodecKind::kRle},   // ~n/64 runs
  };
  for (const auto& c : cases) {
    EncodedColumn enc;
    ASSERT_TRUE(EncodeColumn(c.values, c.kind, &enc));
    const size_t raw = c.values.size() * sizeof(Value);
    EXPECT_LT(EncodedBytes(enc) * 2, raw)
        << CodecName(c.kind) << ": expected at least 2x reduction";
  }
}

TEST(CodecBytesTest, CodecNamesAreStable) {
  EXPECT_STREQ(CodecName(CodecKind::kRaw), "raw");
  EXPECT_STREQ(CodecName(CodecKind::kFor), "for");
  EXPECT_STREQ(CodecName(CodecKind::kRle), "rle");
  EXPECT_STREQ(CodecName(CodecKind::kDict), "dict");
}

TEST(CodecRandomizedTest, RandomShapesRoundTripUnderChosenCodec) {
  Rng rng(31);
  CompressionConfig config = TestConfig();
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n =
        static_cast<size_t>(rng.Uniform(8, 2048));
    std::vector<Value> v;
    switch (trial % 3) {
      case 0:
        v = Uniform(&rng, n, -10'000, 10'000);
        break;
      case 1:
        v = LowCardinality(&rng, n, 1 + trial);
        break;
      default:
        v = Runs(&rng, n, 16, 500);
        break;
    }
    const CodecKind kind = ChooseCodec(v, config);
    if (kind == CodecKind::kRaw) continue;
    CheckEncodedAgainstOracle(v, kind);
  }
}

// ---------------------------------------------------------------------------
// EncodedGatherFold: every codec path against a per-position DecodeAt fold
// ---------------------------------------------------------------------------

/// The reference: DecodeAt at each position, folded one at a time with
/// FoldSpan merge semantics (wrapping sums; *valid set on the first value).
void ReferenceGatherFold(const EncodedColumn& enc,
                         const std::vector<Key>& positions, FoldOp op,
                         Value* acc, bool* valid) {
  for (const Key k : positions) {
    const Value v = DecodeAt(enc, k);
    if (!*valid) {
      *acc = v;
      *valid = true;
      continue;
    }
    switch (op) {
      case FoldOp::kSum:
        *acc = static_cast<Value>(static_cast<uint64_t>(*acc) +
                                  static_cast<uint64_t>(v));
        break;
      case FoldOp::kMin:
        *acc = std::min(*acc, v);
        break;
      case FoldOp::kMax:
        *acc = std::max(*acc, v);
        break;
    }
  }
}

/// Selection vectors over `n` rows: empty, a single row, ascending sparse
/// and dense, every row twice, and short and long unsorted draws with
/// repeats.
std::vector<std::vector<Key>> PositionSets(Rng* rng, size_t n) {
  const auto draw = [&](size_t count) {
    std::vector<Key> v(count);
    for (Key& k : v) {
      k = static_cast<Key>(rng->Uniform(0, static_cast<Value>(n) - 1));
    }
    return v;
  };
  std::vector<std::vector<Key>> sets = {{}, {static_cast<Key>(n - 1)}};
  std::vector<Key> sparse, dense, twice;
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 0) sparse.push_back(static_cast<Key>(i));
    dense.push_back(static_cast<Key>(i));
    twice.push_back(static_cast<Key>(i));
    twice.push_back(static_cast<Key>(i));
  }
  sets.push_back(sparse);
  sets.push_back(dense);
  sets.push_back(twice);
  sets.push_back(draw(5));
  sets.push_back(draw(2 * n));
  return sets;
}

/// Encodes `values` with `kind` and checks EncodedGatherFold against the
/// reference for every op, position set, and starting accumulator.
void CheckGatherFold(const std::vector<Value>& values, CodecKind kind,
                     const std::string& what) {
  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumn(values, kind, &enc)) << what;
  Rng rng(values.size());
  for (const std::vector<Key>& positions :
       PositionSets(&rng, values.size())) {
    for (const FoldOp op : {FoldOp::kSum, FoldOp::kMin, FoldOp::kMax}) {
      for (const bool start_valid : {false, true}) {
        Value want = start_valid ? -7 : 123;
        bool want_valid = start_valid;
        ReferenceGatherFold(enc, positions, op, &want, &want_valid);
        Value got = start_valid ? -7 : 123;
        bool got_valid = start_valid;
        EncodedGatherFold(enc, positions, op, &got, &got_valid);
        EXPECT_EQ(got_valid, want_valid) << what;
        EXPECT_EQ(got, want) << what << " op=" << static_cast<int>(op)
                             << " positions=" << positions.size()
                             << " start_valid=" << start_valid;
      }
    }
  }
}

/// `distinct` values just below kMaxValue, so every sum wraps mod 2^64.
std::vector<Value> NearMax(Rng* rng, size_t n, size_t distinct) {
  std::vector<Value> v(n);
  for (Value& x : v) {
    x = kMaxValue - rng->Uniform(0, static_cast<Value>(distinct) - 1);
  }
  return v;
}

TEST(CodecGatherFoldTest, DictionaryWithAndWithoutHistogram) {
  Rng rng(37);
  // 16 entries over 4096 rows keeps the encode-time histogram; 200 over
  // 512 does not.
  const std::vector<Value> with_hist = LowCardinality(&rng, 4096, 16);
  const std::vector<Value> without_hist = LowCardinality(&rng, 512, 200);
  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumn(with_hist, CodecKind::kDict, &enc));
  EXPECT_FALSE(enc.code_hist.empty());
  ASSERT_TRUE(EncodeColumn(without_hist, CodecKind::kDict, &enc));
  EXPECT_TRUE(enc.code_hist.empty());
  CheckGatherFold(with_hist, CodecKind::kDict, "dict+hist");
  CheckGatherFold(without_hist, CodecKind::kDict, "dict");
  CheckGatherFold(NearMax(&rng, 4096, 16), CodecKind::kDict, "dict wrap");
  CheckGatherFold(NearMax(&rng, 512, 200), CodecKind::kDict,
                  "dict wrap, no hist");
}

TEST(CodecGatherFoldTest, ZeroBitCodes) {
  // One distinct value: dictionary and FOR store no code bits at all.
  const std::vector<Value> equal(64, -42);
  for (const CodecKind kind : {CodecKind::kDict, CodecKind::kFor}) {
    EncodedColumn enc;
    ASSERT_TRUE(EncodeColumn(equal, kind, &enc));
    EXPECT_EQ(enc.bits, 0u) << CodecName(kind);
    CheckGatherFold(equal, kind, std::string(CodecName(kind)) + " bits=0");
  }
  const std::vector<Value> max_equal(64, kMaxValue);
  CheckGatherFold(max_equal, CodecKind::kDict, "dict bits=0 wrap");
  CheckGatherFold(max_equal, CodecKind::kFor, "for bits=0 wrap");
}

TEST(CodecGatherFoldTest, ForAndRle) {
  Rng rng(41);
  CheckGatherFold(Uniform(&rng, 1000, -1000, 1000), CodecKind::kFor, "for");
  CheckGatherFold(NearMax(&rng, 1000, 5000), CodecKind::kFor, "for wrap");
  CheckGatherFold(Runs(&rng, 1000, 16, 500), CodecKind::kRle, "rle");
  std::vector<Value> wrap_runs = Runs(&rng, 1000, 16, 500);
  for (Value& v : wrap_runs) v = kMaxValue - v;
  CheckGatherFold(wrap_runs, CodecKind::kRle, "rle wrap");
}

// ---------------------------------------------------------------------------
// Span selection and span fold against the position paths they replace
// ---------------------------------------------------------------------------

/// Today's position select and count, straight off the kernels: the
/// predicate is translated into the code domain by hand (FOR: value -
/// for_base clipped to the frame; dictionary: the sorted-dict index range)
/// and handed to SelectPacked/CountPacked, or to SelectRle/CountRle.
std::vector<Key> PositionSelect(const EncodedColumn& enc,
                                const RangePredicate& pred, size_t* count) {
  std::vector<Key> out;
  *count = 0;
  if (enc.n == 0) return out;
  if (enc.kind == CodecKind::kRle) {
    kernels::SelectRle(enc.run_values.data(), enc.run_starts.data(),
                       enc.num_runs(), pred, 0, &out);
    *count = kernels::CountRle(enc.run_values.data(), enc.run_starts.data(),
                               enc.num_runs(), pred);
    return out;
  }
  // Closed bounds [lo, hi] in the value domain.
  Value lo = pred.low;
  Value hi = pred.high;
  if (!pred.low_inclusive) {
    if (lo == kMaxValue) return out;
    ++lo;
  }
  if (!pred.high_inclusive) {
    if (hi == kMinValue) return out;
    --hi;
  }
  if (lo > hi) return out;
  uint64_t code_lo = 0;
  uint64_t code_hi = 0;
  if (enc.kind == CodecKind::kFor) {
    const Value frame_lo = enc.for_base;
    const Value frame_hi = static_cast<Value>(
        static_cast<uint64_t>(enc.for_base) + enc.for_range);
    lo = std::max(lo, frame_lo);
    hi = std::min(hi, frame_hi);
    if (lo > hi) return out;
    code_lo = static_cast<uint64_t>(lo) - static_cast<uint64_t>(frame_lo);
    code_hi = static_cast<uint64_t>(hi) - static_cast<uint64_t>(frame_lo);
  } else {
    const auto first = std::lower_bound(enc.dict.begin(), enc.dict.end(), lo);
    const auto last = std::upper_bound(enc.dict.begin(), enc.dict.end(), hi);
    if (first == last) return out;
    code_lo = static_cast<uint64_t>(first - enc.dict.begin());
    code_hi = static_cast<uint64_t>(last - enc.dict.begin()) - 1;
  }
  kernels::SelectPacked(enc.words.data(), enc.bits, enc.n, code_lo, code_hi,
                        0, &out);
  *count = kernels::CountPacked(enc.words.data(), enc.bits, enc.n, code_lo,
                                code_hi);
  return out;
}

/// Predicates at and around the frame [lo, hi] of a selection column:
/// exactly at the edges (inclusive and exclusive), covering it, points on
/// it, empty ones on either side, plus the oracle matrix's shapes.
std::vector<RangePredicate> EdgePredicates(Value lo, Value hi) {
  std::vector<RangePredicate> preds = Predicates(lo, hi);
  const std::vector<RangePredicate> edges = {
      RangePredicate::Closed(lo, hi),            // exactly the frame
      RangePredicate::Open(lo, hi),              // frame minus both edges
      RangePredicate::HalfOpen(lo, hi),          // minus the top edge
      RangePredicate{lo, hi, false, true},       // minus the bottom edge
      RangePredicate::Point(lo),
      RangePredicate::Point(hi),
      RangePredicate{kMinValue, lo, true, true},  // touches the bottom
      RangePredicate{kMinValue, lo, true, false},  // just below: empty
      RangePredicate{hi, kMaxValue, true, true},   // touches the top
      RangePredicate{hi, kMaxValue, false, true},  // just above: empty
  };
  preds.insert(preds.end(), edges.begin(), edges.end());
  return preds;
}

/// One aggregate column the selection folds: encoded with `kind`, or raw
/// when `kind` is kRaw.
struct AggColumn {
  std::string what;
  std::vector<Value> values;
  CodecKind kind = CodecKind::kRaw;
};

/// Aggregate columns of `n` rows in every layout the span fold handles.
std::vector<AggColumn> AggColumns(Rng* rng, size_t n) {
  std::vector<Value> ascending(n);
  for (size_t i = 0; i < n; ++i) ascending[i] = static_cast<Value>(i / 2) - 7;
  std::vector<AggColumn> cols = {
      {"for", Uniform(rng, n, -1000, 1000), CodecKind::kFor},
      {"for sorted", ascending, CodecKind::kFor},
      {"for wrap", NearMax(rng, n, 5000), CodecKind::kFor},
      {"for bits=0", std::vector<Value>(n, kMaxValue), CodecKind::kFor},
      {"dict", LowCardinality(rng, n, n / 2 + 1), CodecKind::kDict},
      {"dict wrap", NearMax(rng, n, 16), CodecKind::kDict},
      {"dict bits=0", std::vector<Value>(n, -3), CodecKind::kDict},
      {"rle", Runs(rng, n, 8, 300), CodecKind::kRle},
      {"raw", Uniform(rng, n, kMinValue / 4, kMaxValue / 4), CodecKind::kRaw},
  };
  if (n >= 256) {
    cols.push_back({"dict+hist", LowCardinality(rng, n, 16), CodecKind::kDict});
  }
  return cols;
}

enum class Form { kSpans, kPositions };

/// Encodes `values` with `kind` and, for every edge predicate, checks:
/// EncodedSelect and EncodedCount against the position kernels; the
/// selection's form (`sub_frame_form` for a non-covering FOR/dict
/// predicate, spans always for covering predicates and RLE); the span
/// invariants (ascending, non-empty, disjoint, non-adjacent); and
/// FoldSelection against EncodedGatherFold (raw: FoldGather) over the
/// expanded positions for every aggregate layout, op and starting
/// accumulator.
void CheckSpanPaths(const std::vector<Value>& values, CodecKind kind,
                    Form sub_frame_form, const std::string& what) {
  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumn(values, kind, &enc)) << what;
  Rng rng(values.size() + 3);
  std::vector<AggColumn> aggs = AggColumns(&rng, values.size());
  std::vector<EncodedColumn> agg_enc(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind == CodecKind::kRaw) continue;
    ASSERT_TRUE(EncodeColumn(aggs[a].values, aggs[a].kind, &agg_enc[a]))
        << aggs[a].what;
  }
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  RowSelection rows;
  for (const RangePredicate& pred : EdgePredicates(*lo_it, *hi_it)) {
    const std::string where = what + " pred=" + pred.ToString();
    size_t want_count = 0;
    const std::vector<Key> want = PositionSelect(enc, pred, &want_count);
    ASSERT_EQ(want_count, want.size()) << where;
    EXPECT_EQ(EncodedCount(enc, pred), want_count) << where;
    EncodedSelect(enc, pred, &rows);
    ASSERT_EQ(rows.ToPositions(), want) << where;
    ASSERT_EQ(rows.size(), want.size()) << where;

    // An empty selection may take either form (a predicate outside the
    // frame never reaches the codes; one inside a gap of an unsorted
    // column scans them and finds nothing).
    const bool covers = want.size() == values.size();
    const Form form = kind == CodecKind::kRle || covers ? Form::kSpans
                                                        : sub_frame_form;
    if (!want.empty()) {
      EXPECT_EQ(rows.positional, form == Form::kPositions) << where;
    }
    if (rows.positional) {
      EXPECT_TRUE(rows.spans.empty()) << where;
    } else {
      EXPECT_TRUE(rows.positions.empty()) << where;
      if (covers) {
        ASSERT_EQ(rows.spans.size(), 1u) << where;
        EXPECT_EQ(rows.spans[0], (PositionRange{0, values.size()})) << where;
      }
      for (size_t i = 0; i < rows.spans.size(); ++i) {
        EXPECT_LT(rows.spans[i].begin, rows.spans[i].end) << where;
        if (i > 0) {
          EXPECT_LT(rows.spans[i - 1].end, rows.spans[i].begin) << where;
        }
      }
    }

    // The same-column filtered fold follows the span rule too: covering
    // and sorted-span predicates never scan the codes.
    for (const FoldOp op : {FoldOp::kSum, FoldOp::kMin, FoldOp::kMax}) {
      for (const bool start_valid : {false, true}) {
        Value want_acc = start_valid ? -7 : 123;
        bool want_valid = start_valid;
        if (!want.empty()) {
          kernels::FoldGather(op, values.data(), want.data(), want.size(),
                              &want_acc, &want_valid);
        }
        Value got = start_valid ? -7 : 123;
        bool got_valid = start_valid;
        EXPECT_EQ(EncodedFoldFiltered(enc, pred, op, &got, &got_valid),
                  want.size())
            << where;
        EXPECT_EQ(got_valid, want_valid) << where;
        EXPECT_EQ(got, want_acc) << where << " filtered op="
                                 << static_cast<int>(op)
                                 << " start_valid=" << start_valid;
      }
    }

    for (size_t a = 0; a < aggs.size(); ++a) {
      for (const FoldOp op : {FoldOp::kSum, FoldOp::kMin, FoldOp::kMax}) {
        for (const bool start_valid : {false, true}) {
          Value want_acc = start_valid ? -7 : 123;
          bool want_valid = start_valid;
          Value got = want_acc;
          bool got_valid = start_valid;
          if (aggs[a].kind == CodecKind::kRaw) {
            if (!want.empty()) {
              kernels::FoldGather(op, aggs[a].values.data(), want.data(),
                                  want.size(), &want_acc, &want_valid);
            }
            FoldSelection(aggs[a].values, rows, op, &got, &got_valid);
          } else {
            EncodedGatherFold(agg_enc[a], want, op, &want_acc, &want_valid);
            FoldSelection(agg_enc[a], rows, op, &got, &got_valid);
          }
          EXPECT_EQ(got_valid, want_valid) << where << " agg=" << aggs[a].what;
          EXPECT_EQ(got, want_acc)
              << where << " agg=" << aggs[a].what
              << " op=" << static_cast<int>(op)
              << " start_valid=" << start_valid;
        }
      }
    }
  }
}

TEST(CodecSpanTest, AscendingForWithDuplicatesSelectsOneSpan) {
  std::vector<Value> v(1000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<Value>(i / 3) * 5 - 100;  // each value three times
  }
  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumn(v, CodecKind::kFor, &enc));
  EXPECT_TRUE(enc.sorted);
  CheckSpanPaths(v, CodecKind::kFor, Form::kSpans, "for ascending");
  // A sub-frame range is exactly one span.
  RowSelection rows;
  EncodedSelect(enc, RangePredicate::Closed(0, 50), &rows);
  ASSERT_FALSE(rows.positional);
  ASSERT_EQ(rows.spans.size(), 1u);
  EXPECT_EQ(rows.spans[0], (PositionRange{60, 93}));
}

TEST(CodecSpanTest, UnsortedForFallsBackToPositions) {
  Rng rng(43);
  const std::vector<Value> v = Uniform(&rng, 1000, -500, 500);
  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumn(v, CodecKind::kFor, &enc));
  EXPECT_FALSE(enc.sorted);
  CheckSpanPaths(v, CodecKind::kFor, Form::kPositions, "for unsorted");
  // A single out-of-order pair is enough to clear `sorted`.
  std::vector<Value> almost(64);
  for (size_t i = 0; i < almost.size(); ++i) almost[i] = static_cast<Value>(i);
  std::swap(almost[40], almost[41]);
  ASSERT_TRUE(EncodeColumn(almost, CodecKind::kFor, &enc));
  EXPECT_FALSE(enc.sorted);
  CheckSpanPaths(almost, CodecKind::kFor, Form::kPositions, "for one swap");
  // A predicate inside a gap of the frame scans the codes and finds
  // nothing: an empty positions selection that folds nothing.
  const std::vector<Value> gappy = {0, 10, 5, 10, 0, 5};
  ASSERT_TRUE(EncodeColumn(gappy, CodecKind::kFor, &enc));
  RowSelection rows;
  EncodedSelect(enc, RangePredicate::Closed(6, 9), &rows);
  EXPECT_TRUE(rows.positional);
  EXPECT_EQ(rows.size(), 0u);
  Value acc = 123;
  bool valid = false;
  FoldSelection(enc, rows, FoldOp::kSum, &acc, &valid);
  FoldSelection(gappy, rows, FoldOp::kSum, &acc, &valid);
  EXPECT_FALSE(valid);
  EXPECT_EQ(acc, 123);
}

TEST(CodecSpanTest, ZeroBitColumnsAlwaysCoverOrMiss) {
  // One distinct value: any predicate either covers the frame or misses.
  const std::vector<Value> equal(300, 9);
  for (const CodecKind kind : {CodecKind::kFor, CodecKind::kDict}) {
    EncodedColumn enc;
    ASSERT_TRUE(EncodeColumn(equal, kind, &enc));
    EXPECT_EQ(enc.bits, 0u);
    CheckSpanPaths(equal, kind, Form::kPositions,
                   std::string(CodecName(kind)) + " bits=0");
  }
}

TEST(CodecSpanTest, FramesAtTheValueExtremes) {
  const size_t n = 500;
  std::vector<Value> low(n), high(n);
  for (size_t i = 0; i < n; ++i) {
    low[i] = kMinValue + static_cast<Value>(i / 2);
    high[i] = kMaxValue - static_cast<Value>((n - 1 - i) / 2);
  }
  CheckSpanPaths(low, CodecKind::kFor, Form::kSpans, "for at kMinValue");
  CheckSpanPaths(high, CodecKind::kFor, Form::kSpans, "for at kMaxValue");
  CheckSpanPaths(low, CodecKind::kDict, Form::kPositions, "dict at kMinValue");
  CheckSpanPaths(high, CodecKind::kRle, Form::kSpans, "rle at kMaxValue");
}

TEST(CodecSpanTest, DictionariesWithAndWithoutHistogram) {
  Rng rng(47);
  const std::vector<Value> with_hist = LowCardinality(&rng, 4096, 16);
  const std::vector<Value> without_hist = LowCardinality(&rng, 512, 200);
  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumn(with_hist, CodecKind::kDict, &enc));
  EXPECT_FALSE(enc.code_hist.empty());
  ASSERT_TRUE(EncodeColumn(without_hist, CodecKind::kDict, &enc));
  EXPECT_TRUE(enc.code_hist.empty());
  CheckSpanPaths(with_hist, CodecKind::kDict, Form::kPositions, "dict+hist");
  CheckSpanPaths(without_hist, CodecKind::kDict, Form::kPositions, "dict");
}

TEST(CodecSpanTest, RleSelectsRunsAndCoalescesAdjacentOnes) {
  Rng rng(53);
  CheckSpanPaths(Runs(&rng, 1000, 16, 500), CodecKind::kRle, Form::kSpans,
                 "rle");
  // Runs 5,6,7 are adjacent and all match [5, 7]: one span. The run of
  // 100 breaks it, and the last run of 5 opens a second span.
  std::vector<Value> v;
  for (const Value run : {5, 6, 7, 100, 5}) v.insert(v.end(), 4, run);
  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumn(v, CodecKind::kRle, &enc));
  RowSelection rows;
  EncodedSelect(enc, RangePredicate::Closed(5, 7), &rows);
  ASSERT_FALSE(rows.positional);
  EXPECT_EQ(rows.spans,
            (std::vector<PositionRange>{{0, 12}, {16, 20}}));
  CheckSpanPaths(v, CodecKind::kRle, Form::kSpans, "rle coalesce");
}

TEST(CodecSpanTest, SelectionReusesTheObjectAcrossForms) {
  // One RowSelection serves a positional then a span selection: the stale
  // form must not leak into the next answer.
  Rng rng(59);
  const std::vector<Value> unsorted = Uniform(&rng, 200, 0, 99);
  std::vector<Value> sorted = unsorted;
  std::sort(sorted.begin(), sorted.end());
  EncodedColumn a, b;
  ASSERT_TRUE(EncodeColumn(unsorted, CodecKind::kFor, &a));
  ASSERT_TRUE(EncodeColumn(sorted, CodecKind::kFor, &b));
  RowSelection rows;
  EncodedSelect(a, RangePredicate::Closed(10, 20), &rows);
  ASSERT_TRUE(rows.positional);
  EncodedSelect(b, RangePredicate::Closed(10, 20), &rows);
  ASSERT_FALSE(rows.positional);
  EXPECT_TRUE(rows.positions.empty());
  size_t count = 0;
  EXPECT_EQ(rows.ToPositions(),
            PositionSelect(b, RangePredicate::Closed(10, 20), &count));
}

}  // namespace
}  // namespace crackdb
