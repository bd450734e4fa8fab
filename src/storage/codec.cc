#include "storage/codec.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <unordered_set>

namespace crackdb {

namespace {

using kernels::FoldOp;

/// Closed-bounds normalization of a RangePredicate in the value domain.
/// (kernel_impl.h has an equivalent for the arms; the codec layer keeps
/// its own copy rather than reaching into kernel internals.)
struct ClosedValues {
  Value lo = 0;
  Value hi = 0;
  bool empty = false;
};

ClosedValues NormalizeValues(const RangePredicate& pred) {
  ClosedValues r{pred.low, pred.high, false};
  if (!pred.low_inclusive) {
    if (r.lo == kMaxValue) return {0, 0, true};
    ++r.lo;
  }
  if (!pred.high_inclusive) {
    if (r.hi == kMinValue) return {0, 0, true};
    --r.hi;
  }
  if (r.lo > r.hi) return {0, 0, true};
  return r;
}

/// A predicate translated into the encoded (code) domain: a closed
/// unsigned range with lo <= hi, or empty.
struct CodeRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool empty = false;
};

/// FOR translation: code = value - for_base as wrapping uint64, so the
/// value range [lo, hi] clipped to the frame [for_base, for_base +
/// for_range] maps to codes. The frame endpoints came from real data, so
/// for_base + for_range is a representable Value.
CodeRange TranslateFor(const EncodedColumn& enc, const RangePredicate& pred) {
  const ClosedValues r = NormalizeValues(pred);
  if (r.empty) return {0, 0, true};
  const Value frame_max = static_cast<Value>(
      static_cast<uint64_t>(enc.for_base) + enc.for_range);
  if (r.hi < enc.for_base || r.lo > frame_max) return {0, 0, true};
  CodeRange out;
  out.lo = r.lo <= enc.for_base
               ? 0
               : static_cast<uint64_t>(r.lo) -
                     static_cast<uint64_t>(enc.for_base);
  out.hi = r.hi >= frame_max
               ? enc.for_range
               : static_cast<uint64_t>(r.hi) -
                     static_cast<uint64_t>(enc.for_base);
  return out;
}

/// Dictionary translation: the dict is sorted, so the matching codes are
/// the contiguous index range [lower_bound(lo), upper_bound(hi)).
CodeRange TranslateDict(const EncodedColumn& enc, const RangePredicate& pred) {
  const ClosedValues r = NormalizeValues(pred);
  if (r.empty) return {0, 0, true};
  const auto first =
      std::lower_bound(enc.dict.begin(), enc.dict.end(), r.lo);
  const auto last = std::upper_bound(first, enc.dict.end(), r.hi);
  if (first == last) return {0, 0, true};
  return {static_cast<uint64_t>(first - enc.dict.begin()),
          static_cast<uint64_t>(last - enc.dict.begin()) - 1, false};
}

CodeRange Translate(const EncodedColumn& enc, const RangePredicate& pred) {
  return enc.kind == CodecKind::kFor ? TranslateFor(enc, pred)
                                     : TranslateDict(enc, pred);
}

/// Dictionary folds walk a per-code occurrence histogram: each distinct
/// value folds hist[c] times in one step, which is bit-identical to the
/// positional fold (sums are mod-2^64 commutative, min/max
/// order-independent) and O(|dict|) after the histogram is in hand.
/// Folds codes [lo_code, hi_code] (hi_code <= dict.size() - 1) into
/// (*acc, *valid) and returns the number of positions they cover.
size_t HistogramFold(const std::vector<Value>& dict, const uint32_t* hist,
                     uint64_t lo_code, uint64_t hi_code, FoldOp op,
                     Value* acc, bool* valid) {
  size_t matched = 0;
  bool any = false;
  Value result = 0;
  uint64_t sum = 0;
  for (uint64_t c = lo_code; c <= hi_code; ++c) {
    const uint64_t count = hist[c];
    if (count == 0) continue;
    matched += count;
    const Value v = dict[c];
    switch (op) {
      case FoldOp::kSum:
        sum += static_cast<uint64_t>(v) * count;
        break;
      case FoldOp::kMin:
        result = any ? std::min(result, v) : v;
        break;
      case FoldOp::kMax:
        result = any ? std::max(result, v) : v;
        break;
    }
    any = true;
  }
  if (!any) return 0;
  if (op == FoldOp::kSum) result = static_cast<Value>(sum);
  kernels::FoldSpan(op, &result, 1, acc, valid);
  return matched;
}

/// Dictionary fold over a code range of the whole column. The encode-time
/// code_hist supplies the histogram for free; near-distinct dictionaries
/// (no stored histogram) rebuild it with one pass over the packed codes.
size_t DictFold(const EncodedColumn& enc, uint64_t lo_code, uint64_t hi_code,
                FoldOp op, Value* acc, bool* valid) {
  hi_code = std::min(hi_code, static_cast<uint64_t>(enc.dict.size()) - 1);
  std::vector<uint32_t> local;
  const uint32_t* hist = enc.code_hist.data();
  if (enc.code_hist.empty()) {
    local.assign(enc.dict.size(), 0);
    for (size_t i = 0; i < enc.n; ++i) {
      ++local[enc.bits == 0
                  ? 0
                  : kernels::PackedGet(enc.words.data(), enc.bits, i)];
    }
    hist = local.data();
  }
  return HistogramFold(enc.dict, hist, lo_code, hi_code, op, acc, valid);
}

/// Folds value_at(k) over every k in (non-empty) `positions` into
/// (*acc, *valid). A template so each codec's decode inlines into the
/// loop instead of paying DecodeAt's switch per position.
template <typename ValueAt>
void GatherFoldWith(std::span<const Key> positions, FoldOp op,
                    ValueAt value_at, Value* acc, bool* valid) {
  Value result = value_at(positions[0]);
  switch (op) {
    case FoldOp::kSum: {
      uint64_t sum = static_cast<uint64_t>(result);
      for (size_t i = 1; i < positions.size(); ++i) {
        sum += static_cast<uint64_t>(value_at(positions[i]));
      }
      result = static_cast<Value>(sum);
      break;
    }
    case FoldOp::kMin:
      for (size_t i = 1; i < positions.size(); ++i) {
        result = std::min(result, value_at(positions[i]));
      }
      break;
    case FoldOp::kMax:
      for (size_t i = 1; i < positions.size(); ++i) {
        result = std::max(result, value_at(positions[i]));
      }
      break;
  }
  kernels::FoldSpan(op, &result, 1, acc, valid);
}

/// Bit-packs `codes` (one per input value) into out->words and
/// accumulates out->code_sum (wrapping mod 2^64).
void Pack(std::span<const Value> values, Value base, unsigned bits,
          EncodedColumn* out) {
  out->bits = bits;
  out->words.assign(kernels::PackedWordCount(bits, values.size()), 0);
  if (bits == 0) return;
  for (size_t i = 0; i < values.size(); ++i) {
    const uint64_t code = static_cast<uint64_t>(values[i]) -
                          static_cast<uint64_t>(base);
    kernels::PackedSet(out->words.data(), bits, i, code);
    out->code_sum += code;
  }
}

bool EncodeFor(std::span<const Value> values, EncodedColumn* out) {
  const auto [min_it, max_it] =
      std::minmax_element(values.begin(), values.end());
  const Value min = *min_it;
  const uint64_t range = static_cast<uint64_t>(*max_it) -
                         static_cast<uint64_t>(min);
  const unsigned bits =
      range == 0 ? 0 : static_cast<unsigned>(std::bit_width(range));
  if (bits > 63) return false;
  out->for_base = min;
  out->for_range = range;
  Pack(values, min, bits, out);
  return true;
}

bool EncodeDict(std::span<const Value> values, EncodedColumn* out) {
  std::vector<Value> dict(values.begin(), values.end());
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  const uint64_t max_code = static_cast<uint64_t>(dict.size()) - 1;
  const unsigned bits =
      max_code == 0 ? 0 : static_cast<unsigned>(std::bit_width(max_code));
  out->bits = bits;
  out->words.assign(kernels::PackedWordCount(bits, values.size()), 0);
  // The occurrence histogram pays for itself only when each entry covers
  // many rows; on near-distinct dictionaries it would rival the packed
  // payload, so the encoded kernels fall back to scanning codes instead.
  const bool keep_hist = dict.size() * 16 <= values.size();
  if (keep_hist) out->code_hist.assign(dict.size(), 0);
  if (bits != 0) {
    for (size_t i = 0; i < values.size(); ++i) {
      const uint64_t code = static_cast<uint64_t>(
          std::lower_bound(dict.begin(), dict.end(), values[i]) -
          dict.begin());
      kernels::PackedSet(out->words.data(), bits, i, code);
      if (keep_hist) ++out->code_hist[code];
    }
  } else if (keep_hist) {
    out->code_hist[0] = static_cast<uint32_t>(values.size());
  }
  out->dict = std::move(dict);
  return true;
}

bool EncodeRle(std::span<const Value> values, EncodedColumn* out) {
  out->run_starts.push_back(0);
  for (size_t i = 0; i < values.size();) {
    const Value v = values[i];
    size_t j = i + 1;
    while (j < values.size() && values[j] == v) ++j;
    out->run_values.push_back(v);
    out->run_starts.push_back(static_cast<uint32_t>(j));
    i = j;
  }
  return true;
}

}  // namespace

const char* CodecName(CodecKind kind) {
  switch (kind) {
    case CodecKind::kRaw:
      return "raw";
    case CodecKind::kFor:
      return "for";
    case CodecKind::kRle:
      return "rle";
    case CodecKind::kDict:
      return "dict";
  }
  return "raw";
}

CodecKind ChooseCodec(std::span<const Value> values,
                      const CompressionConfig& config) {
  const size_t n = values.size();
  if (n < config.min_rows || n == 0) return CodecKind::kRaw;
  if (n > std::numeric_limits<uint32_t>::max()) return CodecKind::kRaw;
  Value min = values[0];
  Value max = values[0];
  size_t num_runs = 1;
  for (size_t i = 1; i < n; ++i) {
    const Value v = values[i];
    min = std::min(min, v);
    max = std::max(max, v);
    num_runs += static_cast<size_t>(v != values[i - 1]);
  }
  if (static_cast<double>(n) >=
      config.min_avg_run * static_cast<double>(num_runs)) {
    return CodecKind::kRle;
  }
  // Bounded distinct count with early exit: one hash insert per element
  // until the dictionary budget is exceeded.
  if (config.max_dict_card > 0) {
    std::unordered_set<Value> distinct;
    distinct.reserve(config.max_dict_card + 1);
    bool fits = true;
    for (size_t i = 0; i < n; ++i) {
      distinct.insert(values[i]);
      if (distinct.size() > config.max_dict_card) {
        fits = false;
        break;
      }
    }
    if (fits) return CodecKind::kDict;
  }
  const uint64_t range =
      static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  const unsigned bits =
      range == 0 ? 0 : static_cast<unsigned>(std::bit_width(range));
  if (bits <= config.max_for_bits) return CodecKind::kFor;
  return CodecKind::kRaw;
}

bool EncodeColumn(std::span<const Value> values, CodecKind kind,
                  EncodedColumn* out) {
  if (kind == CodecKind::kRaw) return false;
  if (values.size() > std::numeric_limits<uint32_t>::max()) return false;
  *out = EncodedColumn{};
  out->kind = kind;
  out->n = values.size();
  if (values.empty()) return true;
  switch (kind) {
    case CodecKind::kFor:
      return EncodeFor(values, out);
    case CodecKind::kDict:
      return EncodeDict(values, out);
    case CodecKind::kRle:
      return EncodeRle(values, out);
    case CodecKind::kRaw:
      break;
  }
  return false;
}

std::vector<Value> DecodeColumn(const EncodedColumn& enc) {
  std::vector<Value> out(enc.n);
  switch (enc.kind) {
    case CodecKind::kFor:
      for (size_t i = 0; i < enc.n; ++i) {
        const uint64_t c =
            enc.bits == 0
                ? 0
                : kernels::PackedGet(enc.words.data(), enc.bits, i);
        out[i] =
            static_cast<Value>(static_cast<uint64_t>(enc.for_base) + c);
      }
      break;
    case CodecKind::kDict:
      for (size_t i = 0; i < enc.n; ++i) {
        const uint64_t c =
            enc.bits == 0
                ? 0
                : kernels::PackedGet(enc.words.data(), enc.bits, i);
        out[i] = enc.dict[c];
      }
      break;
    case CodecKind::kRle:
      for (size_t r = 0; r < enc.num_runs(); ++r) {
        std::fill(out.begin() + enc.run_starts[r],
                  out.begin() + enc.run_starts[r + 1], enc.run_values[r]);
      }
      break;
    case CodecKind::kRaw:
      assert(false && "DecodeColumn on a raw column");
      break;
  }
  return out;
}

Value DecodeAt(const EncodedColumn& enc, size_t i) {
  assert(i < enc.n);
  switch (enc.kind) {
    case CodecKind::kFor: {
      const uint64_t c =
          enc.bits == 0 ? 0
                        : kernels::PackedGet(enc.words.data(), enc.bits, i);
      return static_cast<Value>(static_cast<uint64_t>(enc.for_base) + c);
    }
    case CodecKind::kDict: {
      const uint64_t c =
          enc.bits == 0 ? 0
                        : kernels::PackedGet(enc.words.data(), enc.bits, i);
      return enc.dict[c];
    }
    case CodecKind::kRle: {
      const auto it = std::upper_bound(enc.run_starts.begin(),
                                       enc.run_starts.end(),
                                       static_cast<uint32_t>(i));
      return enc.run_values[(it - enc.run_starts.begin()) - 1];
    }
    case CodecKind::kRaw:
      break;
  }
  assert(false && "DecodeAt on a raw column");
  return 0;
}

size_t EncodedBytes(const EncodedColumn& enc) {
  return enc.words.size() * sizeof(uint64_t) +
         enc.dict.size() * sizeof(Value) +
         enc.run_values.size() * sizeof(Value) +
         enc.run_starts.size() * sizeof(uint32_t) +
         enc.code_hist.size() * sizeof(uint32_t);
}

size_t EncodedCount(const EncodedColumn& enc, const RangePredicate& pred) {
  if (enc.n == 0) return 0;
  if (enc.kind == CodecKind::kRle) {
    return kernels::CountRle(enc.run_values.data(), enc.run_starts.data(),
                             enc.num_runs(), pred);
  }
  const CodeRange r = Translate(enc, pred);
  if (r.empty) return 0;
  if (enc.kind == CodecKind::kDict && !enc.code_hist.empty()) {
    // The encode-time histogram answers dictionary counts in O(|dict|).
    const uint64_t hi =
        std::min(r.hi, static_cast<uint64_t>(enc.code_hist.size()) - 1);
    size_t total = 0;
    for (uint64_t c = r.lo; c <= hi; ++c) total += enc.code_hist[c];
    return total;
  }
  return kernels::CountPacked(enc.words.data(), enc.bits, enc.n, r.lo, r.hi);
}

void EncodedSelect(const EncodedColumn& enc, const RangePredicate& pred,
                   Key base, std::vector<Key>* out) {
  if (enc.n == 0) return;
  if (enc.kind == CodecKind::kRle) {
    kernels::SelectRle(enc.run_values.data(), enc.run_starts.data(),
                       enc.num_runs(), pred, base, out);
    return;
  }
  const CodeRange r = Translate(enc, pred);
  if (r.empty) return;
  kernels::SelectPacked(enc.words.data(), enc.bits, enc.n, r.lo, r.hi, base,
                        out);
}

void EncodedFold(const EncodedColumn& enc, kernels::FoldOp op, Value* acc,
                 bool* valid) {
  if (enc.n == 0) return;
  switch (enc.kind) {
    case CodecKind::kFor: {
      // Unfiltered folds come straight from the frame metadata: the sum of
      // n wrapping (base + code) terms is n * base + code_sum mod 2^64,
      // and the frame endpoints are the exact min/max of the data.
      Value result = 0;
      switch (op) {
        case FoldOp::kSum:
          result = static_cast<Value>(
              static_cast<uint64_t>(enc.for_base) *
                  static_cast<uint64_t>(enc.n) +
              enc.code_sum);
          break;
        case FoldOp::kMin:
          result = enc.for_base;
          break;
        case FoldOp::kMax:
          result = static_cast<Value>(static_cast<uint64_t>(enc.for_base) +
                                      enc.for_range);
          break;
      }
      kernels::FoldSpan(op, &result, 1, acc, valid);
      break;
    }
    case CodecKind::kDict:
      DictFold(enc, 0, static_cast<uint64_t>(enc.dict.size()) - 1, op, acc,
               valid);
      break;
    case CodecKind::kRle:
      kernels::FoldRle(op, enc.run_values.data(), enc.run_starts.data(),
                       enc.num_runs(), RangePredicate{}, acc, valid);
      break;
    case CodecKind::kRaw:
      assert(false && "EncodedFold on a raw column");
      break;
  }
}

size_t EncodedFoldFiltered(const EncodedColumn& enc,
                           const RangePredicate& pred, kernels::FoldOp op,
                           Value* acc, bool* valid) {
  if (enc.n == 0) return 0;
  switch (enc.kind) {
    case CodecKind::kFor: {
      const CodeRange r = Translate(enc, pred);
      if (r.empty) return 0;
      kernels::FoldPacked(op, enc.words.data(), enc.bits, enc.n,
                          enc.for_base, r.lo, r.hi, acc, valid);
      return kernels::CountPacked(enc.words.data(), enc.bits, enc.n, r.lo,
                                  r.hi);
    }
    case CodecKind::kDict: {
      const CodeRange r = Translate(enc, pred);
      if (r.empty) return 0;
      return DictFold(enc, r.lo, r.hi, op, acc, valid);
    }
    case CodecKind::kRle: {
      kernels::FoldRle(op, enc.run_values.data(), enc.run_starts.data(),
                       enc.num_runs(), pred, acc, valid);
      return kernels::CountRle(enc.run_values.data(), enc.run_starts.data(),
                               enc.num_runs(), pred);
    }
    case CodecKind::kRaw:
      break;
  }
  assert(false && "EncodedFoldFiltered on a raw column");
  return 0;
}

void EncodedGatherFold(const EncodedColumn& enc,
                       std::span<const Key> positions, kernels::FoldOp op,
                       Value* acc, bool* valid) {
  if (positions.empty()) return;
  switch (enc.kind) {
    case CodecKind::kRle: {
      // Ascending selection vectors walk the runs forward instead of
      // paying a binary search per position; non-ascending input restarts
      // the walk.
      size_t run = 0;
      GatherFoldWith(
          positions, op,
          [&](Key k) {
            if (k < enc.run_starts[run]) run = 0;
            while (enc.run_starts[run + 1] <= k) ++run;
            return enc.run_values[run];
          },
          acc, valid);
      return;
    }
    case CodecKind::kFor: {
      if (enc.bits == 0) {
        GatherFoldWith(
            positions, op, [&](Key) { return enc.for_base; }, acc, valid);
        return;
      }
      const uint64_t base = static_cast<uint64_t>(enc.for_base);
      const uint64_t* words = enc.words.data();
      const unsigned bits = enc.bits;
      GatherFoldWith(
          positions, op,
          [&](Key k) {
            return static_cast<Value>(base +
                                      kernels::PackedGet(words, bits, k));
          },
          acc, valid);
      return;
    }
    case CodecKind::kDict: {
      // Count the selected codes, then fold each distinct value once: the
      // same histogram walk as the whole-column dictionary fold. Counts
      // fit uint32_t: a selection vector holds one position per selected
      // row, and Key addresses a partition's rows in 32 bits.
      std::vector<uint32_t> hist(enc.dict.size(), 0);
      if (enc.bits == 0) {
        hist[0] = static_cast<uint32_t>(positions.size());
      } else {
        for (const Key k : positions) {
          ++hist[kernels::PackedGet(enc.words.data(), enc.bits, k)];
        }
      }
      HistogramFold(enc.dict, hist.data(), 0, enc.dict.size() - 1, op, acc,
                    valid);
      return;
    }
    case CodecKind::kRaw:
      break;
  }
  assert(false && "EncodedGatherFold on a raw column");
}

}  // namespace crackdb
