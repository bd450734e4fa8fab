// The scalar reference arm: the spec every SIMD arm is property-tested
// against (tests/kernel_test.cc, docs/KERNELS.md). The loops here are the
// pre-kernel hot-path implementations, preserved verbatim in behavior:
// crack-in-two is the Hoare-style partition and crack-in-three the
// Dutch-national-flag pass that cracking has always used, so a forced
// scalar run (CRACKDB_KERNEL_ISA=scalar) reproduces historical layouts
// bit for bit.

#include <algorithm>
#include <utility>

#include "kernels/kernel_arms.h"
#include "kernels/kernel_impl.h"

namespace crackdb::kernels::detail {

namespace {

inline void SwapPair(Value* head, Value* tail, size_t i, size_t j) {
  std::swap(head[i], head[j]);
  std::swap(tail[i], tail[j]);
}

}  // namespace

size_t CrackInTwo_Scalar(Value* head, Value* tail, size_t n, Bound bound) {
  const UpperThreshold th = ThresholdOf(bound);
  if (th.none) return n;
  const Value t = th.threshold;
  size_t i = 0;
  size_t j = n;
  // Hoare-style partition: i scans for entries belonging to the upper
  // part (v >= t), j for entries belonging to the lower part.
  while (true) {
    while (i < j && head[i] < t) ++i;
    while (i < j && head[j - 1] >= t) --j;
    if (i + 1 >= j) break;
    SwapPair(head, tail, i, j - 1);
    ++i;
    --j;
  }
  return i;
}

void CrackInThree_Scalar(Value* head, Value* tail, size_t n, Bound lo,
                         Bound hi, size_t* mid_begin, size_t* hi_begin) {
  const UpperThreshold th_lo = ThresholdOf(lo);
  const UpperThreshold th_hi = ThresholdOf(hi);
  if (th_lo.none) {  // nothing satisfies lo: everything is the lower part
    *mid_begin = n;
    *hi_begin = n;
    return;
  }
  if (th_hi.none) {  // no upper part: reduces to crack-in-two on lo
    *mid_begin = CrackInTwo_Scalar(head, tail, n, lo);
    *hi_begin = n;
    return;
  }
  const Value t_lo = th_lo.threshold;
  const Value t_hi = th_hi.threshold;
  // Dutch-national-flag partition: [0, lo_end) below, [lo_end, mid)
  // middle, [hb, n) above.
  size_t lo_end = 0;
  size_t mid = 0;
  size_t hb = n;
  while (mid < hb) {
    const Value v = head[mid];
    if (v < t_lo) {
      SwapPair(head, tail, lo_end, mid);
      ++lo_end;
      ++mid;
    } else if (v >= t_hi) {
      --hb;
      SwapPair(head, tail, mid, hb);
    } else {
      ++mid;
    }
  }
  *mid_begin = lo_end;
  *hi_begin = hb;
}

size_t CountRange_Scalar(const Value* values, size_t n,
                         const RangePredicate& pred) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (pred.Matches(values[i])) ++count;
  }
  return count;
}

void SelectRange_Scalar(const Value* values, size_t n,
                        const RangePredicate& pred, Key base,
                        std::vector<Key>* out) {
  for (size_t i = 0; i < n; ++i) {
    if (pred.Matches(values[i])) {
      out->push_back(base + static_cast<Key>(i));
    }
  }
}

void FilterKeys_Scalar(const Value* values, const Key* keys, size_t n,
                       const RangePredicate& pred, std::vector<Key>* out) {
  for (size_t i = 0; i < n; ++i) {
    if (pred.Matches(values[keys[i]])) out->push_back(keys[i]);
  }
}

void MatchBitmap_Scalar(const Value* values, size_t begin, size_t end,
                        const RangePredicate& pred, uint64_t* words,
                        BitmapMode mode) {
  for (size_t i = begin; i < end; ++i) {
    const bool match = pred.Matches(values[i]);
    const uint64_t bit = uint64_t{1} << (i & 63);
    uint64_t& word = words[i >> 6];
    switch (mode) {
      case BitmapMode::kAssign:
        word = match ? (word | bit) : (word & ~bit);
        break;
      case BitmapMode::kAnd:
        if (!match) word &= ~bit;
        break;
      case BitmapMode::kOr:
        if (match) word |= bit;
        break;
    }
  }
}

void FoldSpan_Scalar(FoldOp op, const Value* values, size_t n, Value* acc,
                     bool* valid) {
  if (n == 0) return;
  Value result = values[0];
  switch (op) {
    case FoldOp::kSum: {
      // Unsigned accumulation: wraparound is defined and arm-identical.
      uint64_t sum = static_cast<uint64_t>(result);
      for (size_t i = 1; i < n; ++i) {
        sum += static_cast<uint64_t>(values[i]);
      }
      result = static_cast<Value>(sum);
      break;
    }
    case FoldOp::kMin:
      for (size_t i = 1; i < n; ++i) result = std::min(result, values[i]);
      break;
    case FoldOp::kMax:
      for (size_t i = 1; i < n; ++i) result = std::max(result, values[i]);
      break;
  }
  if (!*valid) {
    *acc = result;
    *valid = true;
    return;
  }
  switch (op) {
    case FoldOp::kSum:
      *acc = static_cast<Value>(static_cast<uint64_t>(*acc) +
                                static_cast<uint64_t>(result));
      break;
    case FoldOp::kMin:
      *acc = std::min(*acc, result);
      break;
    case FoldOp::kMax:
      *acc = std::max(*acc, result);
      break;
  }
}

void FoldGather_Scalar(FoldOp op, const Value* values, const Key* keys,
                       size_t n, Value* acc, bool* valid) {
  if (n == 0) return;
  Value result = values[keys[0]];
  switch (op) {
    case FoldOp::kSum: {
      uint64_t sum = static_cast<uint64_t>(result);
      for (size_t i = 1; i < n; ++i) {
        sum += static_cast<uint64_t>(values[keys[i]]);
      }
      result = static_cast<Value>(sum);
      break;
    }
    case FoldOp::kMin:
      for (size_t i = 1; i < n; ++i) {
        result = std::min(result, values[keys[i]]);
      }
      break;
    case FoldOp::kMax:
      for (size_t i = 1; i < n; ++i) {
        result = std::max(result, values[keys[i]]);
      }
      break;
  }
  FoldSpan_Scalar(op, &result, 1, acc, valid);
}

void Gather_Scalar(const Value* values, const Key* keys, size_t n,
                   Value* out) {
  for (size_t i = 0; i < n; ++i) out[i] = values[keys[i]];
}

size_t CountPacked_Scalar(const uint64_t* words, unsigned bits, size_t n,
                          uint64_t lo_code, uint64_t hi_code) {
  if (bits == 0) return lo_code == 0 ? n : 0;
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t c = PackedGet(words, bits, i);
    if (c >= lo_code && c <= hi_code) ++count;
  }
  return count;
}

void SelectPacked_Scalar(const uint64_t* words, unsigned bits, size_t n,
                         uint64_t lo_code, uint64_t hi_code, Key base,
                         std::vector<Key>* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t c = bits == 0 ? 0 : PackedGet(words, bits, i);
    if (c >= lo_code && c <= hi_code) {
      out->push_back(base + static_cast<Key>(i));
    }
  }
}

void FoldPacked_Scalar(FoldOp op, const uint64_t* words, unsigned bits,
                       size_t n, Value value_base, uint64_t lo_code,
                       uint64_t hi_code, Value* acc, bool* valid) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t c = bits == 0 ? 0 : PackedGet(words, bits, i);
    if (c < lo_code || c > hi_code) continue;
    // The FOR decode: codes are offsets from the frame base, added with
    // wrapping uint64 arithmetic so INT64_MIN-based frames round-trip.
    const Value v =
        static_cast<Value>(static_cast<uint64_t>(value_base) + c);
    FoldSpan_Scalar(op, &v, 1, acc, valid);
  }
}

size_t CountRle_Scalar(const Value* run_values, const uint32_t* run_starts,
                       size_t num_runs, const RangePredicate& pred) {
  size_t count = 0;
  for (size_t r = 0; r < num_runs; ++r) {
    if (pred.Matches(run_values[r])) {
      count += run_starts[r + 1] - run_starts[r];
    }
  }
  return count;
}

void SelectRle_Scalar(const Value* run_values, const uint32_t* run_starts,
                      size_t num_runs, const RangePredicate& pred, Key base,
                      std::vector<Key>* out) {
  for (size_t r = 0; r < num_runs; ++r) {
    if (!pred.Matches(run_values[r])) continue;
    const uint32_t begin = run_starts[r];
    const uint32_t end = run_starts[r + 1];
    // One resize per matching run, then a plain fill: no per-position
    // capacity check.
    const size_t old = out->size();
    out->resize(old + (end - begin));
    Key* dst = out->data() + old;
    for (uint32_t pos = begin; pos < end; ++pos) *dst++ = base + pos;
  }
}

void FoldRle_Scalar(FoldOp op, const Value* run_values,
                    const uint32_t* run_starts, size_t num_runs,
                    const RangePredicate& pred, Value* acc, bool* valid) {
  for (size_t r = 0; r < num_runs; ++r) {
    if (!pred.Matches(run_values[r])) continue;
    const uint64_t len = run_starts[r + 1] - run_starts[r];
    if (len == 0) continue;
    Value v = run_values[r];
    if (op == FoldOp::kSum) {
      // One multiply per run instead of len adds; wrapping keeps it
      // arm-identical with the positional sum.
      v = static_cast<Value>(static_cast<uint64_t>(v) * len);
    }
    FoldSpan_Scalar(op, &v, 1, acc, valid);
  }
}

void FoldGroup_Scalar(FoldOp op, const Value* values, const Key* keys,
                      const uint32_t* group_of, size_t n, Value* accs) {
  switch (op) {
    case FoldOp::kSum:
      for (size_t i = 0; i < n; ++i) {
        const Value v = values[keys != nullptr ? keys[i] : i];
        Value& acc = accs[group_of[i]];
        // Unsigned accumulation: wraparound is defined and arm-identical.
        acc = static_cast<Value>(static_cast<uint64_t>(acc) +
                                 static_cast<uint64_t>(v));
      }
      break;
    case FoldOp::kMin:
      for (size_t i = 0; i < n; ++i) {
        const Value v = values[keys != nullptr ? keys[i] : i];
        Value& acc = accs[group_of[i]];
        acc = std::min(acc, v);
      }
      break;
    case FoldOp::kMax:
      for (size_t i = 0; i < n; ++i) {
        const Value v = values[keys != nullptr ? keys[i] : i];
        Value& acc = accs[group_of[i]];
        acc = std::max(acc, v);
      }
      break;
  }
}

}  // namespace crackdb::kernels::detail
