// The kernel contract (docs/KERNELS.md): the scalar reference arm is the
// spec, every other arm must agree with it —
//  - bit-identically for the scan, fold, and gather families, over
//    randomized sizes, misaligned base pointers, ragged tails, empty
//    inputs, and all-equal columns;
//  - for the crack family: identical split positions and identical
//    per-side (head, tail) multisets (intra-piece order is arm-specific),
//    plus the crack invariant itself;
//  - dispatch resolution (ResolveIsa) is a pure, testable rule;
//  - whole engines give identical answers under ForceIsa(kScalar) and
//    ForceIsa(DetectedIsa()) across the oracle query matrix.

#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/workload.h"
#include "common/rng.h"
#include "cracking/cracker_index.h"
#include "engine/database.h"
#include "engine/engine_factory.h"
#include "engine/query.h"
#include "kernels/cpu_dispatch.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

using bench::AttrName;
using bench::ZipRows;
using kernels::BitmapMode;
using kernels::FoldOp;
using kernels::Isa;
using kernels::KernelTable;
using kernels::Table;

/// Restores the dispatched arm on scope exit, whatever a test forced.
class IsaGuard {
 public:
  IsaGuard() : saved_(kernels::ActiveIsa()) {}
  ~IsaGuard() { kernels::ForceIsa(saved_); }

 private:
  Isa saved_;
};

/// The arms tested against the scalar reference. On machines without
/// AVX2, Table(kAvx2) aliases the portable arm — the comparison still
/// runs, it is just not independent.
std::vector<Isa> SimdArms() { return {Isa::kSse2, Isa::kAvx2}; }

/// Sizes covering empty, sub-vector, exact-vector, vector+tail, word
/// boundaries (63/64/65 for the bitmap kernels), and large-with-ragged-end.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31,
                         33, 63, 64, 65, 100, 127, 128, 255, 1000, 4097};

std::vector<Value> RandomValues(Rng* rng, size_t n, Value domain) {
  std::vector<Value> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng->Uniform(1, domain);
  return v;
}

/// Predicates covering every bound shape: closed/open/half-open, point,
/// everything, nothing, and the kMinValue/kMaxValue saturation edges.
std::vector<RangePredicate> OraclePredicates(Value domain) {
  const Value third = domain / 3;
  return {
      RangePredicate::Closed(third, 2 * third),
      RangePredicate::Open(third, 2 * third),
      RangePredicate::HalfOpen(third, 2 * third),
      RangePredicate::Point(third),
      RangePredicate{},                              // matches everything
      RangePredicate::Open(third, third),            // empty interval
      RangePredicate::Closed(domain + 1, domain * 2),  // above all values
      RangePredicate{kMinValue, third, true, true},
      RangePredicate{kMinValue, third, false, true},  // excluded kMinValue
      RangePredicate{third, kMaxValue, true, true},
      RangePredicate{third, kMaxValue, true, false},  // excluded kMaxValue
      RangePredicate{kMinValue, kMaxValue, false, false},
  };
}

std::vector<Bound> OracleBounds(Value domain) {
  return {
      {domain / 2, true},  {domain / 2, false}, {1, true},
      {1, false},          {domain, true},      {domain + 1, false},
      {kMinValue, true},   {kMinValue, false},  {kMaxValue, true},
      {kMaxValue, false},
  };
}

using PairMultiset = std::multiset<std::pair<Value, Value>>;

PairMultiset PairsOf(const std::vector<Value>& head,
                     const std::vector<Value>& tail, size_t begin,
                     size_t end) {
  PairMultiset out;
  for (size_t i = begin; i < end; ++i) out.insert({head[i], tail[i]});
  return out;
}

// ---------------------------------------------------------------------------
// Dispatch resolution
// ---------------------------------------------------------------------------

TEST(CpuDispatchTest, ResolveIsaRules) {
  using kernels::ResolveIsa;
  // Unset env: the detected arm.
  EXPECT_EQ(ResolveIsa(nullptr, Isa::kAvx2), Isa::kAvx2);
  EXPECT_EQ(ResolveIsa("", Isa::kSse2), Isa::kSse2);
  // Narrowing overrides are honored.
  EXPECT_EQ(ResolveIsa("scalar", Isa::kAvx2), Isa::kScalar);
  EXPECT_EQ(ResolveIsa("sse2", Isa::kAvx2), Isa::kSse2);
  EXPECT_EQ(ResolveIsa("avx2", Isa::kAvx2), Isa::kAvx2);
  // Widening past the CPU clamps to the detected arm, never crashes.
  EXPECT_EQ(ResolveIsa("avx2", Isa::kSse2), Isa::kSse2);
  EXPECT_EQ(ResolveIsa("avx2", Isa::kScalar), Isa::kScalar);
  // Unknown spellings fall back to the detected arm.
  EXPECT_EQ(ResolveIsa("turbo", Isa::kAvx2), Isa::kAvx2);
  EXPECT_EQ(ResolveIsa("AVX2", Isa::kSse2), Isa::kSse2);  // case-sensitive
}

TEST(CpuDispatchTest, ParseAndNameRoundTrip) {
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2}) {
    Isa parsed = Isa::kScalar;
    ASSERT_TRUE(kernels::ParseIsa(kernels::IsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa parsed = Isa::kScalar;
  EXPECT_TRUE(kernels::ParseIsa("auto", &parsed));
  EXPECT_EQ(parsed, kernels::DetectedIsa());
  EXPECT_FALSE(kernels::ParseIsa("neon", &parsed));
  EXPECT_FALSE(kernels::ParseIsa(nullptr, &parsed));
}

TEST(CpuDispatchTest, ForceIsaClampsToDetected) {
  IsaGuard guard;
  const Isa detected = kernels::DetectedIsa();
  EXPECT_EQ(kernels::ForceIsa(Isa::kScalar), Isa::kScalar);
  EXPECT_EQ(kernels::ActiveIsa(), Isa::kScalar);
  const Isa widest = kernels::ForceIsa(Isa::kAvx2);
  EXPECT_EQ(widest, std::min(Isa::kAvx2, detected));
  EXPECT_EQ(kernels::ActiveIsa(), widest);
}

// ---------------------------------------------------------------------------
// Crack family: split + per-side multisets + invariant vs the scalar arm
// ---------------------------------------------------------------------------

TEST(KernelCrackTest, CrackInTwoMatchesScalarReference) {
  Rng rng(7);
  const Value domain = 500;  // small domain: plenty of duplicates
  for (Isa arm : SimdArms()) {
    const KernelTable& table = Table(arm);
    for (size_t n : kSizes) {
      const std::vector<Value> head0 = RandomValues(&rng, n, domain);
      const std::vector<Value> tail0 = RandomValues(&rng, n, domain);
      for (const Bound& bound : OracleBounds(domain)) {
        std::vector<Value> sh = head0, st = tail0;
        std::vector<Value> ah = head0, at = tail0;
        const size_t split_s =
            Table(Isa::kScalar).crack_in_two(sh.data(), st.data(), n, bound);
        const size_t split_a =
            table.crack_in_two(ah.data(), at.data(), n, bound);
        ASSERT_EQ(split_a, split_s)
            << kernels::IsaName(arm) << " n=" << n << " bound=" << bound.value
            << (bound.inclusive ? " incl" : " excl");
        // Same side contents (order within a side is arm-specific).
        EXPECT_EQ(PairsOf(ah, at, 0, split_a), PairsOf(sh, st, 0, split_s));
        EXPECT_EQ(PairsOf(ah, at, split_a, n), PairsOf(sh, st, split_s, n));
        // And the crack invariant itself.
        for (size_t i = 0; i < split_a; ++i) {
          ASSERT_FALSE(SatisfiesBound(bound, ah[i]));
        }
        for (size_t i = split_a; i < n; ++i) {
          ASSERT_TRUE(SatisfiesBound(bound, ah[i]));
        }
      }
    }
  }
}

TEST(KernelCrackTest, CrackInTwoAllEqualColumn) {
  for (Isa arm : SimdArms()) {
    for (size_t n : {size_t{5}, size_t{64}, size_t{101}}) {
      std::vector<Value> head(n, 42), tail(n, 7);
      for (const Bound bound :
           {Bound{42, true}, Bound{42, false}, Bound{41, false}}) {
        std::vector<Value> h = head, t = tail;
        const size_t split =
            Table(arm).crack_in_two(h.data(), t.data(), n, bound);
        EXPECT_EQ(split, SatisfiesBound(bound, 42) ? 0u : n);
        EXPECT_EQ(h, head);
        EXPECT_EQ(t, tail);
      }
    }
  }
}

TEST(KernelCrackTest, CrackInThreeMatchesScalarReference) {
  Rng rng(11);
  const Value domain = 500;
  const std::vector<std::pair<Bound, Bound>> bound_pairs = {
      {{100, true}, {300, false}},  {{100, false}, {300, true}},
      {{1, true}, {domain, false}}, {{250, true}, {250, false}},
      {{kMinValue, true}, {200, true}}, {{200, true}, {kMaxValue, false}},
      {{kMinValue, true}, {kMaxValue, false}},
  };
  for (Isa arm : SimdArms()) {
    const KernelTable& table = Table(arm);
    for (size_t n : kSizes) {
      const std::vector<Value> head0 = RandomValues(&rng, n, domain);
      const std::vector<Value> tail0 = RandomValues(&rng, n, domain);
      for (const auto& [lo, hi] : bound_pairs) {
        std::vector<Value> sh = head0, st = tail0;
        std::vector<Value> ah = head0, at = tail0;
        size_t smid = 0, shi = 0, amid = 0, ahi = 0;
        Table(Isa::kScalar)
            .crack_in_three(sh.data(), st.data(), n, lo, hi, &smid, &shi);
        table.crack_in_three(ah.data(), at.data(), n, lo, hi, &amid, &ahi);
        ASSERT_EQ(amid, smid) << kernels::IsaName(arm) << " n=" << n;
        ASSERT_EQ(ahi, shi) << kernels::IsaName(arm) << " n=" << n;
        EXPECT_EQ(PairsOf(ah, at, 0, amid), PairsOf(sh, st, 0, smid));
        EXPECT_EQ(PairsOf(ah, at, amid, ahi), PairsOf(sh, st, smid, shi));
        EXPECT_EQ(PairsOf(ah, at, ahi, n), PairsOf(sh, st, shi, n));
        for (size_t i = 0; i < amid; ++i) {
          ASSERT_FALSE(SatisfiesBound(lo, ah[i]));
        }
        for (size_t i = amid; i < ahi; ++i) {
          ASSERT_TRUE(SatisfiesBound(lo, ah[i]) &&
                      !SatisfiesBound(hi, ah[i]));
        }
        for (size_t i = ahi; i < n; ++i) {
          ASSERT_TRUE(SatisfiesBound(hi, ah[i]));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scan / fold / gather families: bit-identical vs the scalar arm
// ---------------------------------------------------------------------------

TEST(KernelScanTest, CountSelectFilterMatchScalarReference) {
  Rng rng(23);
  const Value domain = 300;
  for (Isa arm : SimdArms()) {
    const KernelTable& table = Table(arm);
    for (size_t n : kSizes) {
      // +3 backing slots so the same data can be scanned at misaligned
      // base pointers (offsets 0..2).
      const std::vector<Value> backing = RandomValues(&rng, n + 3, domain);
      for (size_t off : {size_t{0}, size_t{1}, size_t{2}}) {
        const Value* values = backing.data() + off;
        for (const RangePredicate& pred : OraclePredicates(domain)) {
          EXPECT_EQ(table.count_range(values, n, pred),
                    Table(Isa::kScalar).count_range(values, n, pred));
          std::vector<Key> got{9999}, want{9999};  // pre-seeded: appends only
          Table(Isa::kScalar).select_range(values, n, pred, 100, &want);
          table.select_range(values, n, pred, 100, &got);
          EXPECT_EQ(got, want) << kernels::IsaName(arm) << " n=" << n;
        }
      }
      // filter_keys: a shuffled key list over the backing column.
      std::vector<Key> keys(n);
      for (size_t i = 0; i < n; ++i) keys[i] = static_cast<Key>(i);
      for (size_t i = n; i > 1; --i) {
        std::swap(keys[i - 1],
                  keys[rng.Uniform(0, static_cast<Value>(i - 1))]);
      }
      for (const RangePredicate& pred : OraclePredicates(domain)) {
        std::vector<Key> got, want;
        Table(Isa::kScalar)
            .filter_keys(backing.data(), keys.data(), n, pred, &want);
        table.filter_keys(backing.data(), keys.data(), n, pred, &got);
        EXPECT_EQ(got, want) << kernels::IsaName(arm) << " n=" << n;
      }
    }
  }
}

TEST(KernelScanTest, MatchBitmapMatchesScalarReference) {
  Rng rng(31);
  const Value domain = 300;
  for (Isa arm : SimdArms()) {
    const KernelTable& table = Table(arm);
    for (size_t n : kSizes) {
      const std::vector<Value> values = RandomValues(&rng, n, domain);
      const size_t words = (n + 63) / 64 + 1;  // +1: guard word stays put
      // Unaligned [begin, end) slices inside [0, n).
      const std::vector<std::pair<size_t, size_t>> slices = {
          {0, n}, {std::min<size_t>(1, n), n}, {n / 3, n - n / 3},
          {std::min<size_t>(63, n), n}, {0, 0}};
      for (const auto& [begin, end] : slices) {
        if (begin > end) continue;
        for (BitmapMode mode :
             {BitmapMode::kAssign, BitmapMode::kAnd, BitmapMode::kOr}) {
          for (const RangePredicate& pred : OraclePredicates(domain)) {
            // Random pre-existing words: combine semantics must agree too.
            std::vector<uint64_t> want(words), got(words);
            for (size_t w = 0; w < words; ++w) {
              want[w] = rng.Next();
              got[w] = want[w];
            }
            Table(Isa::kScalar)
                .match_bitmap(values.data(), begin, end, pred, want.data(),
                              mode);
            table.match_bitmap(values.data(), begin, end, pred, got.data(),
                               mode);
            EXPECT_EQ(got, want)
                << kernels::IsaName(arm) << " n=" << n << " [" << begin
                << "," << end << ") mode=" << static_cast<int>(mode);
          }
        }
      }
    }
  }
}

TEST(KernelFoldTest, FoldsMatchScalarReference) {
  Rng rng(43);
  const Value domain = 1'000'000;
  for (Isa arm : SimdArms()) {
    const KernelTable& table = Table(arm);
    for (size_t n : kSizes) {
      const std::vector<Value> backing = RandomValues(&rng, n + 3, domain);
      std::vector<Key> keys(n);
      for (size_t i = 0; i < n; ++i) keys[i] = static_cast<Key>(i);
      for (size_t i = n; i > 1; --i) {
        std::swap(keys[i - 1],
                  keys[rng.Uniform(0, static_cast<Value>(i - 1))]);
      }
      for (FoldOp op : {FoldOp::kSum, FoldOp::kMin, FoldOp::kMax}) {
        for (size_t off : {size_t{0}, size_t{1}}) {
          // Fresh accumulator.
          Value acc_s = 0, acc_a = 0;
          bool valid_s = false, valid_a = false;
          Table(Isa::kScalar)
              .fold_span(op, backing.data() + off, n, &acc_s, &valid_s);
          table.fold_span(op, backing.data() + off, n, &acc_a, &valid_a);
          EXPECT_EQ(acc_a, acc_s) << kernels::IsaName(arm) << " n=" << n;
          EXPECT_EQ(valid_a, valid_s);
          // Pre-seeded accumulator: merge semantics must agree.
          acc_s = acc_a = -17;
          valid_s = valid_a = true;
          Table(Isa::kScalar)
              .fold_span(op, backing.data() + off, n, &acc_s, &valid_s);
          table.fold_span(op, backing.data() + off, n, &acc_a, &valid_a);
          EXPECT_EQ(acc_a, acc_s);
          EXPECT_TRUE(valid_a && valid_s);
        }
        Value acc_s = 0, acc_a = 0;
        bool valid_s = false, valid_a = false;
        Table(Isa::kScalar)
            .fold_gather(op, backing.data(), keys.data(), n, &acc_s,
                         &valid_s);
        table.fold_gather(op, backing.data(), keys.data(), n, &acc_a,
                          &valid_a);
        EXPECT_EQ(acc_a, acc_s) << kernels::IsaName(arm) << " n=" << n;
        EXPECT_EQ(valid_a, valid_s);
      }
    }
  }
}

TEST(KernelFoldTest, SumWrapsModulo64AcrossArms) {
  // Sums are defined to wrap modulo 2^64 so every arm (and sanitizer run)
  // agrees even on overflowing inputs.
  const std::vector<Value> big(9, kMaxValue);
  Value want = 0;
  bool want_valid = false;
  Table(Isa::kScalar)
      .fold_span(FoldOp::kSum, big.data(), big.size(), &want, &want_valid);
  for (Isa arm : SimdArms()) {
    Value got = 0;
    bool got_valid = false;
    Table(arm).fold_span(FoldOp::kSum, big.data(), big.size(), &got,
                         &got_valid);
    EXPECT_EQ(got, want) << kernels::IsaName(arm);
    EXPECT_TRUE(got_valid);
  }
}

TEST(KernelFoldTest, EmptyFoldLeavesAccumulatorUntouched) {
  for (Isa arm : {Isa::kScalar, Isa::kSse2, Isa::kAvx2}) {
    for (FoldOp op : {FoldOp::kSum, FoldOp::kMin, FoldOp::kMax}) {
      Value acc = 123;
      bool valid = false;
      Table(arm).fold_span(op, nullptr, 0, &acc, &valid);
      EXPECT_EQ(acc, 123);
      EXPECT_FALSE(valid);
      Table(arm).fold_gather(op, nullptr, nullptr, 0, &acc, &valid);
      EXPECT_EQ(acc, 123);
      EXPECT_FALSE(valid);
    }
  }
}

// ---------------------------------------------------------------------------
// fold_group: the grouped-fold kernel, scalar arm as the spec
// ---------------------------------------------------------------------------

Value InitAcc(FoldOp op) {
  switch (op) {
    case FoldOp::kSum:
      return 0;
    case FoldOp::kMin:
      return kMaxValue;
    case FoldOp::kMax:
      return kMinValue;
  }
  return 0;
}

TEST(KernelFoldGroupTest, FoldGroupMatchesScalarReference) {
  Rng rng(67);
  const Value domain = 1'000'000;
  // Group counts from one-group (maximum accumulator contention, the shape
  // that breaks conflict-unsafe SIMD scatters) to more groups than rows.
  const size_t group_counts[] = {1, 2, 3, 16, 257, 5000};
  for (Isa arm : SimdArms()) {
    const KernelTable& table = Table(arm);
    for (size_t n : kSizes) {
      const std::vector<Value> values = RandomValues(&rng, n + 3, domain);
      std::vector<Key> keys(n);
      for (size_t i = 0; i < n; ++i) keys[i] = static_cast<Key>(i);
      for (size_t i = n; i > 1; --i) {
        std::swap(keys[i - 1],
                  keys[rng.Uniform(0, static_cast<Value>(i - 1))]);
      }
      for (size_t groups : group_counts) {
        std::vector<uint32_t> group_of(n);
        for (size_t i = 0; i < n; ++i) {
          group_of[i] = static_cast<uint32_t>(
              rng.Uniform(0, static_cast<Value>(groups) - 1));
        }
        for (FoldOp op : {FoldOp::kSum, FoldOp::kMin, FoldOp::kMax}) {
          // Gathered (keys != nullptr) variant, fresh accumulators.
          std::vector<Value> want(groups, InitAcc(op));
          std::vector<Value> got = want;
          Table(Isa::kScalar)
              .fold_group(op, values.data(), keys.data(), group_of.data(), n,
                          want.data());
          table.fold_group(op, values.data(), keys.data(), group_of.data(),
                           n, got.data());
          EXPECT_EQ(got, want) << kernels::IsaName(arm) << " n=" << n
                               << " groups=" << groups
                               << " op=" << static_cast<int>(op);
          // Contiguous (keys == nullptr) variant, pre-seeded accumulators:
          // continuing a previous chunk's partials must agree too.
          Table(Isa::kScalar)
              .fold_group(op, values.data(), nullptr, group_of.data(), n,
                          want.data());
          table.fold_group(op, values.data(), nullptr, group_of.data(), n,
                           got.data());
          EXPECT_EQ(got, want) << kernels::IsaName(arm) << " n=" << n
                               << " groups=" << groups << " contiguous";
        }
      }
    }
  }
}

TEST(KernelFoldGroupTest, GroupedSumWrapsModulo64AcrossArms) {
  // Grouped sums wrap modulo 2^64, like the scalar folds, so every arm
  // agrees bit-for-bit even when a group's accumulator saturates.
  const std::vector<Value> big(13, kMaxValue);
  std::vector<Key> keys(big.size());
  for (size_t i = 0; i < big.size(); ++i) keys[i] = static_cast<Key>(i);
  std::vector<uint32_t> group_of(big.size());
  for (size_t i = 0; i < big.size(); ++i) {
    group_of[i] = static_cast<uint32_t>(i % 2);
  }
  std::vector<Value> want(2, 0);
  Table(Isa::kScalar)
      .fold_group(FoldOp::kSum, big.data(), keys.data(), group_of.data(),
                  big.size(), want.data());
  for (Isa arm : SimdArms()) {
    std::vector<Value> got(2, 0);
    Table(arm).fold_group(FoldOp::kSum, big.data(), keys.data(),
                          group_of.data(), big.size(), got.data());
    EXPECT_EQ(got, want) << kernels::IsaName(arm);
  }
}

TEST(KernelFoldGroupTest, EmptyFoldGroupLeavesAccumulatorsUntouched) {
  for (Isa arm : {Isa::kScalar, Isa::kSse2, Isa::kAvx2}) {
    for (FoldOp op : {FoldOp::kSum, FoldOp::kMin, FoldOp::kMax}) {
      std::vector<Value> accs = {11, 22, 33};
      Table(arm).fold_group(op, nullptr, nullptr, nullptr, 0, accs.data());
      EXPECT_EQ(accs, (std::vector<Value>{11, 22, 33}))
          << kernels::IsaName(arm);
    }
  }
}

TEST(KernelGatherTest, GatherMatchesScalarReference) {
  Rng rng(59);
  for (Isa arm : SimdArms()) {
    for (size_t n : kSizes) {
      const std::vector<Value> values = RandomValues(&rng, n + 1, 1'000);
      std::vector<Key> keys(n);
      for (size_t i = 0; i < n; ++i) {
        keys[i] = static_cast<Key>(rng.Uniform(0, static_cast<Value>(n)));
      }
      std::vector<Value> want(n), got(n);
      Table(Isa::kScalar).gather(values.data(), keys.data(), n, want.data());
      Table(arm).gather(values.data(), keys.data(), n, got.data());
      EXPECT_EQ(got, want) << kernels::IsaName(arm) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Encoded-domain kernels: packed + RLE entries vs the scalar arm
// ---------------------------------------------------------------------------

/// Packs `codes` (each < 2^bits) into the shared bit-packed layout.
std::vector<uint64_t> PackCodes(const std::vector<uint64_t>& codes,
                                unsigned bits) {
  std::vector<uint64_t> words(kernels::PackedWordCount(bits, codes.size()),
                              0);
  if (bits == 0) return words;  // all codes are 0; words stay zero
  for (size_t i = 0; i < codes.size(); ++i) {
    kernels::PackedSet(words.data(), bits, i, codes[i]);
  }
  return words;
}

/// Code-domain intervals covering full range, interior, point, and the
/// single-code edge cases for a given bit width.
std::vector<std::pair<uint64_t, uint64_t>> CodeRanges(unsigned bits) {
  const uint64_t max =
      bits == 0 ? 0 : (bits == 63 ? (uint64_t{1} << 63) - 1
                                  : (uint64_t{1} << bits) - 1);
  std::vector<std::pair<uint64_t, uint64_t>> ranges = {
      {0, max}, {0, 0}, {max, max}, {max / 2, max / 2}};
  if (max >= 2) {
    ranges.push_back({max / 3, (2 * (max / 3))});
    ranges.push_back({1, max - 1});
  }
  return ranges;
}

TEST(KernelPackedTest, PackedKernelsMatchScalarReference) {
  Rng rng(71);
  const unsigned kBits[] = {0, 1, 7, 8, 31, 32, 63};
  for (Isa arm : SimdArms()) {
    const KernelTable& table = Table(arm);
    for (size_t n : kSizes) {
      for (unsigned bits : kBits) {
        std::vector<uint64_t> codes(n, 0);
        if (bits > 0) {
          const uint64_t mask = bits == 63 ? (uint64_t{1} << 63) - 1
                                           : (uint64_t{1} << bits) - 1;
          for (size_t i = 0; i < n; ++i) codes[i] = rng.Next() & mask;
        }
        const std::vector<uint64_t> words = PackCodes(codes, bits);
        for (const auto& [lo, hi] : CodeRanges(bits)) {
          // Local oracle: the scalar arm must itself agree with a direct
          // loop over the unpacked codes.
          size_t oracle = 0;
          for (size_t i = 0; i < n; ++i) {
            if (codes[i] >= lo && codes[i] <= hi) ++oracle;
          }
          const size_t want =
              Table(Isa::kScalar).count_packed(words.data(), bits, n, lo, hi);
          ASSERT_EQ(want, oracle) << "scalar vs oracle n=" << n
                                  << " bits=" << bits;
          EXPECT_EQ(table.count_packed(words.data(), bits, n, lo, hi), want)
              << kernels::IsaName(arm) << " n=" << n << " bits=" << bits;

          std::vector<Key> got{777}, want_keys{777};  // appends only
          Table(Isa::kScalar)
              .select_packed(words.data(), bits, n, lo, hi, 100, &want_keys);
          table.select_packed(words.data(), bits, n, lo, hi, 100, &got);
          EXPECT_EQ(got, want_keys)
              << kernels::IsaName(arm) << " n=" << n << " bits=" << bits;

          // Fold with a negative base and with a wrapping (INT64_MIN)
          // frame base; untouched-when-empty and merge semantics both.
          for (Value base : {Value{0}, Value{-1'000'000}, kMinValue}) {
            for (FoldOp op : {FoldOp::kSum, FoldOp::kMin, FoldOp::kMax}) {
              Value acc_s = 123, acc_a = 123;
              bool valid_s = false, valid_a = false;
              Table(Isa::kScalar)
                  .fold_packed(op, words.data(), bits, n, base, lo, hi,
                               &acc_s, &valid_s);
              table.fold_packed(op, words.data(), bits, n, base, lo, hi,
                                &acc_a, &valid_a);
              EXPECT_EQ(acc_a, acc_s)
                  << kernels::IsaName(arm) << " n=" << n << " bits=" << bits
                  << " base=" << base << " op=" << static_cast<int>(op);
              EXPECT_EQ(valid_a, valid_s);
              if (!valid_s) {
                EXPECT_EQ(acc_s, 123);  // untouched when empty
              }
            }
          }
        }
      }
    }
  }
}

struct RleRuns {
  std::vector<Value> values;
  std::vector<uint32_t> starts;
};

/// Random RLE shape: `num_runs` runs over a small value domain, with some
/// zero-length runs mixed in (legal: run_starts is merely non-decreasing).
RleRuns MakeRuns(Rng* rng, size_t num_runs, Value domain) {
  RleRuns r;
  r.starts.push_back(0);
  uint32_t pos = 0;
  for (size_t i = 0; i < num_runs; ++i) {
    r.values.push_back(rng->Uniform(1, domain));
    const uint32_t len =
        rng->Bernoulli(0.1)
            ? 0
            : static_cast<uint32_t>(rng->Uniform(1, 40));
    pos += len;
    r.starts.push_back(pos);
  }
  return r;
}

TEST(KernelRleTest, RleKernelsMatchScalarReference) {
  Rng rng(83);
  const Value domain = 300;
  const size_t run_counts[] = {0, 1, 2, 3, 8, 17, 64, 255, 1000};
  for (Isa arm : SimdArms()) {
    const KernelTable& table = Table(arm);
    for (size_t num_runs : run_counts) {
      const RleRuns r = MakeRuns(&rng, num_runs, domain);
      for (const RangePredicate& pred : OraclePredicates(domain)) {
        // Local oracle for the scalar arm.
        size_t oracle = 0;
        for (size_t i = 0; i < num_runs; ++i) {
          if (pred.Matches(r.values[i])) {
            oracle += r.starts[i + 1] - r.starts[i];
          }
        }
        const size_t want = Table(Isa::kScalar)
                                .count_rle(r.values.data(), r.starts.data(),
                                           num_runs, pred);
        ASSERT_EQ(want, oracle) << "scalar vs oracle runs=" << num_runs;
        EXPECT_EQ(table.count_rle(r.values.data(), r.starts.data(), num_runs,
                                  pred),
                  want)
            << kernels::IsaName(arm) << " runs=" << num_runs;

        std::vector<Key> got{777}, want_keys{777};
        Table(Isa::kScalar)
            .select_rle(r.values.data(), r.starts.data(), num_runs, pred,
                        50, &want_keys);
        table.select_rle(r.values.data(), r.starts.data(), num_runs, pred,
                         50, &got);
        EXPECT_EQ(got, want_keys)
            << kernels::IsaName(arm) << " runs=" << num_runs;

        for (FoldOp op : {FoldOp::kSum, FoldOp::kMin, FoldOp::kMax}) {
          Value acc_s = 123, acc_a = 123;
          bool valid_s = false, valid_a = false;
          Table(Isa::kScalar)
              .fold_rle(op, r.values.data(), r.starts.data(), num_runs, pred,
                        &acc_s, &valid_s);
          table.fold_rle(op, r.values.data(), r.starts.data(), num_runs,
                         pred, &acc_a, &valid_a);
          EXPECT_EQ(acc_a, acc_s) << kernels::IsaName(arm)
                                  << " runs=" << num_runs
                                  << " op=" << static_cast<int>(op);
          EXPECT_EQ(valid_a, valid_s);
          if (!valid_s) {
            EXPECT_EQ(acc_s, 123);
          }
        }
      }
    }
  }
}

TEST(KernelRleTest, SelectRleMatchesPositionReferenceOnEveryArm) {
  // Every arm, scalar included, against a position-by-position expansion
  // of the matching runs. MakeRuns mixes in zero-length runs; the base is
  // non-zero, and the output already holds keys that must survive.
  Rng rng(89);
  const Value domain = 300;
  const Key base = 1000;
  const std::vector<Key> prefix = {5, 6, 7};
  for (const size_t num_runs : {size_t{0}, size_t{1}, size_t{2}, size_t{17},
                                size_t{255}, size_t{1000}}) {
    const RleRuns r = MakeRuns(&rng, num_runs, domain);
    for (const RangePredicate& pred : OraclePredicates(domain)) {
      std::vector<Key> want = prefix;
      for (size_t i = 0; i < num_runs; ++i) {
        if (!pred.Matches(r.values[i])) continue;
        for (uint32_t pos = r.starts[i]; pos < r.starts[i + 1]; ++pos) {
          want.push_back(base + pos);
        }
      }
      for (const Isa arm : {Isa::kScalar, Isa::kSse2, Isa::kAvx2}) {
        std::vector<Key> got = prefix;
        Table(arm).select_rle(r.values.data(), r.starts.data(), num_runs,
                              pred, base, &got);
        EXPECT_EQ(got, want) << kernels::IsaName(arm)
                             << " runs=" << num_runs;
      }
    }
  }
}

TEST(KernelRleTest, RleSumWrapsModulo64AcrossArms) {
  // A kMaxValue run long enough to overflow: sums add value * run_length
  // wrapping mod 2^64, so every arm agrees bit-for-bit.
  const std::vector<Value> values = {kMaxValue, 1};
  const std::vector<uint32_t> starts = {0, 1000, 1001};
  Value want = 0;
  bool want_valid = false;
  Table(Isa::kScalar)
      .fold_rle(FoldOp::kSum, values.data(), starts.data(), 2,
                RangePredicate{}, &want, &want_valid);
  for (Isa arm : SimdArms()) {
    Value got = 0;
    bool got_valid = false;
    Table(arm).fold_rle(FoldOp::kSum, values.data(), starts.data(), 2,
                        RangePredicate{}, &got, &got_valid);
    EXPECT_EQ(got, want) << kernels::IsaName(arm);
    EXPECT_TRUE(got_valid);
  }
}

// ---------------------------------------------------------------------------
// Engine equality: whole queries answer identically on every arm
// ---------------------------------------------------------------------------

class KernelEngineEqualityTest : public ::testing::Test {
 protected:
  static constexpr Value kDomain = 1'000;
  static constexpr size_t kRows = 3'000;

  void SetUp() override {
    Rng rng(4321);
    source_ =
        &bench::CreateUniformRelation(&catalog_, "R", 3, kRows, kDomain, &rng);
  }

  struct Answers {
    std::vector<std::multiset<std::vector<Value>>> rows;
    std::vector<size_t> counts;
    std::vector<Value> aggregates;
    /// One flattened {key, count, sum, kCount} sequence per grouped query;
    /// the finalize contract (keys ascending) makes them comparable as-is.
    std::vector<std::vector<Value>> groups;
  };

  /// The oracle matrix: materializing, counting, and aggregating query
  /// shapes, conjunctive and disjunctive, cold-started per arm so cracking
  /// happens entirely under the forced kernel arm.
  Answers RunMatrix(const std::string& kind) {
    DatabaseOptions options;
    options.pool_threads = 2;
    Database db(options);
    PartitionSpec spec;
    spec.kind = PartitionSpec::Kind::kRange;
    spec.num_partitions = 3;
    spec.column = AttrName(1);
    spec.domain_lo = 1;
    spec.domain_hi = kDomain;
    db.RegisterSharded("R", *source_, spec, kind);

    Answers a;
    const std::vector<std::pair<Value, Value>> ranges = {
        {10, 500}, {1, kDomain}, {400, 420}, {700, 300 /*empty*/}};
    for (const auto& [lo, hi] : ranges) {
      if (lo > hi) continue;
      auto rows = db.From("R")
                      .Where(AttrName(1), lo, hi)
                      .Project(AttrName(2), AttrName(3))
                      .Execute();
      EXPECT_TRUE(rows.ok()) << rows.error();
      a.rows.push_back(ZipRows(rows->rows));
      auto both = db.From("R")
                      .Where(AttrName(1), lo, hi)
                      .Where(AttrName(2), 100, 800)
                      .Project(AttrName(3))
                      .Execute();
      EXPECT_TRUE(both.ok()) << both.error();
      a.rows.push_back(ZipRows(both->rows));
      auto either = db.From("R")
                        .OrWhere(AttrName(1), lo, hi)
                        .OrWhere(AttrName(2), 900, kDomain)
                        .Project(AttrName(1))
                        .Execute();
      EXPECT_TRUE(either.ok()) << either.error();
      a.rows.push_back(ZipRows(either->rows));
      auto count =
          db.From("R").Where(AttrName(1), lo, hi).Count().Execute();
      EXPECT_TRUE(count.ok()) << count.error();
      a.counts.push_back(count->count);
      for (AggregateOp op :
           {AggregateOp::kSum, AggregateOp::kMin, AggregateOp::kMax}) {
        auto agg = db.From("R")
                       .Where(AttrName(1), lo, hi)
                       .Aggregate(op, AttrName(2))
                       .Execute();
        EXPECT_TRUE(agg.ok()) << agg.error();
        a.aggregates.push_back(agg->aggregate_valid ? agg->aggregate : -1);
      }
      auto grouped = db.From("R")
                         .Where(AttrName(1), lo, hi)
                         .GroupBy(AttrName(3))
                         .Aggregate(AggregateOp::kSum, AttrName(2))
                         .Aggregate(AggregateOp::kCount, AttrName(2))
                         .Execute();
      EXPECT_TRUE(grouped.ok()) << grouped.error();
      std::vector<Value> flat;
      flat.reserve(grouped->groups.num_groups() * 4);
      for (size_t g = 0; g < grouped->groups.num_groups(); ++g) {
        flat.push_back(grouped->groups.keys[g]);
        flat.push_back(static_cast<Value>(grouped->groups.counts[g]));
        flat.push_back(grouped->groups.aggregates[0][g]);
        flat.push_back(grouped->groups.aggregates[1][g]);
      }
      a.groups.push_back(std::move(flat));
    }
    return a;
  }

  Catalog catalog_;
  Relation* source_ = nullptr;
};

TEST_F(KernelEngineEqualityTest, AllEnginesAnswerIdenticallyOnEveryArm) {
  IsaGuard guard;
  for (const EngineKindEntry& entry : kEngineKinds) {
    kernels::ForceIsa(Isa::kScalar);
    Answers scalar = RunMatrix(entry.name);
    kernels::ForceIsa(kernels::DetectedIsa());
    Answers active = RunMatrix(entry.name);
    ASSERT_EQ(scalar.rows.size(), active.rows.size());
    for (size_t i = 0; i < scalar.rows.size(); ++i) {
      EXPECT_EQ(scalar.rows[i], active.rows[i])
          << entry.name << " query " << i << " diverges between scalar and "
          << kernels::IsaName(kernels::DetectedIsa());
    }
    EXPECT_EQ(scalar.counts, active.counts) << entry.name;
    EXPECT_EQ(scalar.aggregates, active.aggregates) << entry.name;
    EXPECT_EQ(scalar.groups, active.groups) << entry.name;
  }
}

}  // namespace
}  // namespace crackdb
