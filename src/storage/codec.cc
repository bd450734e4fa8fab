#include "storage/codec.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <optional>
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

/// True when a translated range holds every code of a packed column, i.e.
/// the predicate covers the value frame and matches all n rows.
bool CoversAllCodes(const EncodedColumn& enc, const CodeRange& r) {
  const uint64_t max_code = enc.kind == CodecKind::kFor
                                ? enc.for_range
                                : static_cast<uint64_t>(enc.dict.size()) - 1;
  return r.lo == 0 && r.hi >= max_code;
}

uint64_t CodeAt(const EncodedColumn& enc, size_t i) {
  return enc.bits == 0 ? 0 : kernels::PackedGet(enc.words.data(), enc.bits, i);
}

/// First position whose code is >= `code` in a sorted packed column.
size_t LowerBoundCode(const EncodedColumn& enc, uint64_t code) {
  size_t first = 0;
  size_t len = enc.n;
  while (len > 0) {
    const size_t half = len / 2;
    if (CodeAt(enc, first + half) < code) {
      first += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  return first;
}

/// The one span of a sorted packed column whose codes lie in the
/// (non-empty) range r. r.hi + 1 cannot wrap: codes stay below 2^63.
PositionRange SortedSpan(const EncodedColumn& enc, const CodeRange& r) {
  return {LowerBoundCode(enc, r.lo), LowerBoundCode(enc, r.hi + 1)};
}

/// The span rule for packed (FOR and dictionary) columns: when the layout
/// names every match of the non-empty code range r without a per-row scan,
/// the one span holding them — [0, n) when r covers every code, two binary
/// searches on sorted codes. Otherwise nullopt: the codes must be scanned.
std::optional<PositionRange> PackedSpan(const EncodedColumn& enc,
                                        const CodeRange& r) {
  if (CoversAllCodes(enc, r)) return PositionRange{0, enc.n};
  if (enc.sorted) return SortedSpan(enc, r);
  return std::nullopt;
}

/// Per-thread code histogram, zeroed to `size` entries. Reused across
/// calls so a query thread does not allocate and free one per partition.
std::vector<uint32_t>& HistogramScratch(size_t size) {
  thread_local std::vector<uint32_t> hist;
  hist.assign(size, 0);
  return hist;
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
  const uint32_t* hist = enc.code_hist.data();
  if (enc.code_hist.empty()) {
    std::vector<uint32_t>& local = HistogramScratch(enc.dict.size());
    for (size_t i = 0; i < enc.n; ++i) ++local[CodeAt(enc, i)];
    hist = local.data();
  }
  return HistogramFold(enc.dict, hist, lo_code, hi_code, op, acc, valid);
}

/// Row visitors for the fold templates below: each calls f(k) for every
/// selected row k, in selection order.
auto EachPosition(std::span<const Key> positions) {
  return [positions](auto&& f) {
    for (const Key k : positions) f(k);
  };
}

auto EachSpannedRow(std::span<const PositionRange> spans) {
  return [spans](auto&& f) {
    for (const PositionRange& s : spans) {
      for (size_t k = s.begin; k < s.end; ++k) f(k);
    }
  };
}

/// Folds value_at(k) over every row k that `each_row` visits (at least
/// one) into (*acc, *valid). A template so each codec's decode inlines
/// into the loop instead of paying DecodeAt's switch per row.
template <typename EachRow, typename ValueAt>
void FoldRowsWith(EachRow each_row, FoldOp op, ValueAt value_at, Value* acc,
                  bool* valid) {
  Value result = 0;
  switch (op) {
    case FoldOp::kSum: {
      uint64_t sum = 0;
      each_row([&](size_t k) { sum += static_cast<uint64_t>(value_at(k)); });
      result = static_cast<Value>(sum);
      break;
    }
    case FoldOp::kMin:
      result = kMaxValue;
      each_row([&](size_t k) { result = std::min(result, value_at(k)); });
      break;
    case FoldOp::kMax:
      result = kMinValue;
      each_row([&](size_t k) { result = std::max(result, value_at(k)); });
      break;
  }
  kernels::FoldSpan(op, &result, 1, acc, valid);
}

/// Folds the `count` (> 0) rows `each_row` visits in a packed (FOR or
/// dictionary) column. Dictionaries count the selected codes, then fold
/// each distinct value once: the same histogram walk as the whole-column
/// dictionary fold. Counts fit uint32_t: a selection holds one entry per
/// selected row, and Key addresses a partition's rows in 32 bits.
template <typename EachRow>
void FoldPackedRows(const EncodedColumn& enc, EachRow each_row, size_t count,
                    FoldOp op, Value* acc, bool* valid) {
  const uint64_t* words = enc.words.data();
  const unsigned bits = enc.bits;
  if (enc.kind == CodecKind::kDict) {
    std::vector<uint32_t>& hist = HistogramScratch(enc.dict.size());
    if (bits == 0) {
      hist[0] = static_cast<uint32_t>(count);
    } else {
      each_row([&](size_t k) { ++hist[kernels::PackedGet(words, bits, k)]; });
    }
    HistogramFold(enc.dict, hist.data(), 0, enc.dict.size() - 1, op, acc,
                  valid);
    return;
  }
  if (bits == 0) {
    FoldRowsWith(each_row, op, [&](size_t) { return enc.for_base; }, acc,
                 valid);
    return;
  }
  const uint64_t base = static_cast<uint64_t>(enc.for_base);
  FoldRowsWith(
      each_row, op,
      [&](size_t k) {
        return static_cast<Value>(base + kernels::PackedGet(words, bits, k));
      },
      acc, valid);
}

/// RLE fold over (non-empty) spans: each run folds once, clipped to the
/// span, so a sum adds value * overlap. Spans ascend, so each span's first
/// run is searched from the previous span's last.
void RleSpanFold(const EncodedColumn& enc,
                 std::span<const PositionRange> spans, FoldOp op, Value* acc,
                 bool* valid) {
  const std::vector<uint32_t>& starts = enc.run_starts;
  uint64_t sum = 0;
  Value result = op == FoldOp::kMin ? kMaxValue : kMinValue;
  size_t first = 0;
  for (const PositionRange& s : spans) {
    // The run holding s.begin: the last one starting at or before it.
    size_t r = static_cast<size_t>(
        std::upper_bound(starts.begin() + first, starts.end(), s.begin) -
        starts.begin() - 1);
    // starts[num_runs] == n >= s.end bounds the walk.
    for (; starts[r] < s.end; ++r) {
      const Value v = enc.run_values[r];
      const size_t overlap = std::min<size_t>(s.end, starts[r + 1]) -
                             std::max<size_t>(s.begin, starts[r]);
      sum += static_cast<uint64_t>(v) * overlap;
      result = op == FoldOp::kMin ? std::min(result, v) : std::max(result, v);
    }
    first = r - 1;  // the last run may continue into the next span
  }
  if (op == FoldOp::kSum) result = static_cast<Value>(sum);
  kernels::FoldSpan(op, &result, 1, acc, valid);
}

/// Bit-packs `codes` (one per input value) into out->words, accumulates
/// out->code_sum (wrapping mod 2^64) and records whether the codes are
/// non-decreasing.
void Pack(std::span<const Value> values, Value base, unsigned bits,
          EncodedColumn* out) {
  out->bits = bits;
  out->words.assign(kernels::PackedWordCount(bits, values.size()), 0);
  out->sorted = true;
  if (bits == 0) return;
  uint64_t prev = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const uint64_t code = static_cast<uint64_t>(values[i]) -
                          static_cast<uint64_t>(base);
    kernels::PackedSet(out->words.data(), bits, i, code);
    out->code_sum += code;
    out->sorted = out->sorted && code >= prev;
    prev = code;
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
      CompressionConfig::kMinAvgRun * static_cast<double>(num_runs)) {
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
  if (bits <= CompressionConfig::kMaxForBits) return CodecKind::kFor;
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
        out[i] = static_cast<Value>(static_cast<uint64_t>(enc.for_base) +
                                    CodeAt(enc, i));
      }
      break;
    case CodecKind::kDict:
      for (size_t i = 0; i < enc.n; ++i) out[i] = enc.dict[CodeAt(enc, i)];
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
    case CodecKind::kFor:
      return static_cast<Value>(static_cast<uint64_t>(enc.for_base) +
                                CodeAt(enc, i));
    case CodecKind::kDict:
      return enc.dict[CodeAt(enc, i)];
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
  if (const std::optional<PositionRange> s = PackedSpan(enc, r)) {
    return s->size();
  }
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

size_t RowSelection::size() const {
  if (positional) return positions.size();
  size_t total = 0;
  for (const PositionRange& s : spans) total += s.size();
  return total;
}

std::vector<Key> RowSelection::ToPositions() const {
  if (positional) return positions;
  std::vector<Key> out;
  out.reserve(size());
  for (const PositionRange& s : spans) {
    for (size_t k = s.begin; k < s.end; ++k) out.push_back(static_cast<Key>(k));
  }
  return out;
}

void RowSelection::Reset(bool as_positions) {
  positional = as_positions;
  spans.clear();
  positions.clear();
}

void EncodedSelect(const EncodedColumn& enc, const RangePredicate& pred,
                   RowSelection* out) {
  out->Reset(false);
  if (enc.n == 0) return;
  std::vector<PositionRange>& spans = out->spans;
  if (enc.kind == CodecKind::kRle) {
    for (size_t r = 0; r < enc.num_runs(); ++r) {
      if (!pred.Matches(enc.run_values[r])) continue;
      const size_t begin = enc.run_starts[r];
      const size_t end = enc.run_starts[r + 1];
      if (!spans.empty() && spans.back().end == begin) {
        spans.back().end = end;
      } else {
        spans.push_back({begin, end});
      }
    }
    return;
  }
  const CodeRange r = Translate(enc, pred);
  if (r.empty) return;
  if (const std::optional<PositionRange> s = PackedSpan(enc, r)) {
    if (!s->empty()) spans.push_back(*s);
    return;
  }
  out->positional = true;
  kernels::SelectPacked(enc.words.data(), enc.bits, enc.n, r.lo, r.hi, 0,
                        &out->positions);
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
      if (const std::optional<PositionRange> s = PackedSpan(enc, r)) {
        if (s->size() == enc.n) {
          EncodedFold(enc, op, acc, valid);
        } else if (!s->empty()) {
          FoldPackedRows(enc, EachSpannedRow({&*s, 1}), s->size(), op, acc,
                         valid);
        }
        return s->size();
      }
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
  if (enc.kind == CodecKind::kRle) {
    // Ascending selection vectors walk the runs forward instead of paying
    // a binary search per position; non-ascending input restarts the walk.
    size_t run = 0;
    FoldRowsWith(
        EachPosition(positions), op,
        [&](size_t k) {
          if (k < enc.run_starts[run]) run = 0;
          while (enc.run_starts[run + 1] <= k) ++run;
          return enc.run_values[run];
        },
        acc, valid);
    return;
  }
  assert(enc.kind != CodecKind::kRaw && "EncodedGatherFold on a raw column");
  FoldPackedRows(enc, EachPosition(positions), positions.size(), op, acc,
                 valid);
}

void FoldSelection(const EncodedColumn& enc, const RowSelection& rows,
                   kernels::FoldOp op, Value* acc, bool* valid) {
  if (rows.positional) {
    EncodedGatherFold(enc, rows.positions, op, acc, valid);
    return;
  }
  const std::vector<PositionRange>& spans = rows.spans;
  if (spans.empty()) return;
  if (spans.size() == 1 && spans[0].begin == 0 && spans[0].end == enc.n) {
    // The whole column: frame metadata, code_hist, or every run once.
    EncodedFold(enc, op, acc, valid);
    return;
  }
  if (enc.kind == CodecKind::kRle) {
    RleSpanFold(enc, spans, op, acc, valid);
    return;
  }
  assert(enc.kind != CodecKind::kRaw && "FoldSelection on a raw column");
  FoldPackedRows(enc, EachSpannedRow(spans), rows.size(), op, acc, valid);
}

void FoldSelection(std::span<const Value> values, const RowSelection& rows,
                   kernels::FoldOp op, Value* acc, bool* valid) {
  if (rows.positional) {
    if (rows.positions.empty()) return;
    kernels::FoldGather(op, values.data(), rows.positions.data(),
                        rows.positions.size(), acc, valid);
    return;
  }
  for (const PositionRange& s : rows.spans) {
    kernels::FoldSpan(op, values.data() + s.begin, s.size(), acc, valid);
  }
}

}  // namespace crackdb
