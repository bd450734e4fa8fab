#ifndef CRACKDB_STORAGE_CODEC_H_
#define CRACKDB_STORAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "kernels/kernels.h"

namespace crackdb {

/// Lightweight per-column codecs for cold partitions.
///
/// The design goal is crack-without-decompress: every codec keeps codes in
/// value order (FOR adds a constant, dictionary codes index a sorted dict,
/// RLE stores plain run values), so a range predicate translates into a
/// closed code range and count/select/fold run directly on the encoded
/// form via the packed/RLE kernel-table entries. Queries the encoded
/// domain cannot serve (tuple reconstruction, writes, multi-selection
/// plans) decompress the partition first — crack-on-touch — which is how
/// the hot/raw vs cold/compressed split self-organizes.
///
/// Selections come back as position spans whenever the encoded form can
/// name its matches as ranges without a per-row scan (see EncodedSelect),
/// so the fold that follows walks runs and ranges instead of a position
/// list: the random access through positions the paper's cost model
/// charges to tuple reconstruction is skipped when the layout allows it.
enum class CodecKind : uint8_t {
  kRaw = 0,   ///< No encoding; the column owns a plain std::vector<Value>.
  kFor = 1,   ///< Frame-of-reference: bit-packed offsets from the minimum.
  kRle = 2,   ///< Run-length: (value, start) runs for low-entropy orders.
  kDict = 3,  ///< Dictionary: bit-packed indexes into a sorted dictionary.
};

/// Short stable name for stats and bench JSON ("raw", "for", "rle", "dict").
const char* CodecName(CodecKind kind);

/// Codec selection knobs. Embedded in AdaptiveConfig; `enabled` gates
/// everything, and `compress_on_load` compresses eligible partitions at
/// RegisterSharded time. After load a partition's layout changes only when
/// a query or a write decompresses it (crack-on-touch).
struct CompressionConfig {
  /// RLE is chosen only when the average run length reaches this.
  static constexpr double kMinAvgRun = 4.0;
  /// FOR is chosen only when max-min fits this many bits.
  static constexpr unsigned kMaxForBits = 32;

  bool enabled = false;
  bool compress_on_load = false;
  /// Partitions (strictly) smaller than this stay raw: the encoded scan
  /// cannot beat the cracked index on data this small.
  size_t min_rows = 1024;
  /// Dictionary is chosen only when the distinct-value count is at most
  /// this (keeps the dict L1/L2-resident for the fold histogram pass).
  size_t max_dict_card = 4096;
};

/// One encoded column. Which members are live depends on `kind`:
///  - kFor:  `words`/`bits` hold codes, value = for_base + code (wrapping
///           uint64 add, so INT64_MIN-based frames round-trip); codes run
///           0..for_range.
///  - kDict: `words`/`bits` hold indexes into the sorted `dict`.
///  - kRle:  `run_values[r]` repeats over positions
///           [run_starts[r], run_starts[r+1]); run_starts has
///           num_runs + 1 entries with run_starts[0] == 0 and
///           run_starts.back() == n.
/// Packed code layout and the pad-word convention are defined in
/// kernels.h (PackedWordCount/PackedGet/PackedSet).
struct EncodedColumn {
  CodecKind kind = CodecKind::kRaw;
  size_t n = 0;
  unsigned bits = 0;
  std::vector<uint64_t> words;
  Value for_base = 0;
  uint64_t for_range = 0;
  std::vector<Value> dict;
  std::vector<Value> run_values;
  std::vector<uint32_t> run_starts;
  /// Aggregate metadata, filled at encode time:
  ///  - kDict: code_hist[c] = occurrences of dict[c], so counts and folds
  ///    over a code range are O(|dict|) histogram walks, not packed scans.
  ///    Kept only when the dictionary is small relative to the column
  ///    (each entry amortized over >= 16 rows); when empty, the encoded
  ///    kernels scan the packed codes instead. Counts fit uint32_t because
  ///    EncodeColumn refuses columns with more rows than Key can address.
  ///  - kFor: code_sum = sum of all codes mod 2^64, so the unfiltered Sum
  ///    is n * for_base + code_sum and Min/Max are the frame endpoints.
  ///  - kFor: `sorted` = the codes are non-decreasing in position order
  ///    (a load-ordered key such as a timestamp), so a range predicate
  ///    matches one contiguous span found by two binary searches.
  std::vector<uint32_t> code_hist;
  uint64_t code_sum = 0;
  bool sorted = false;

  size_t num_runs() const {
    return run_starts.empty() ? 0 : run_starts.size() - 1;
  }
};

/// Picks a codec for `values` by a single stats pass (min/max/runs, plus a
/// bounded distinct count). Preference order RLE > dict > FOR: RLE wins
/// on byte savings when runs are long, dict beats FOR whenever the value
/// range is wide but the domain is small. Returns kRaw when nothing
/// qualifies (including values.size() < config.min_rows).
CodecKind ChooseCodec(std::span<const Value> values,
                      const CompressionConfig& config);

/// Encodes `values` with `kind`. Returns false (leaving *out unspecified)
/// when the codec cannot represent the data: FOR range needing >63 bits,
/// or any codec over more rows than Key can address. kRaw always fails
/// (there is nothing to encode).
bool EncodeColumn(std::span<const Value> values, CodecKind kind,
                  EncodedColumn* out);

/// Decodes the full column back to tuple order.
std::vector<Value> DecodeColumn(const EncodedColumn& enc);

/// Random access into the encoded form (RLE costs a binary search).
Value DecodeAt(const EncodedColumn& enc, size_t i);

/// Resident payload bytes of the encoded form (vector storage, not
/// sizeof overhead); the raw equivalent is n * sizeof(Value).
size_t EncodedBytes(const EncodedColumn& enc);

/// Count of positions matching `pred`, evaluated in the encoded domain.
/// Packed columns follow EncodedSelect's span rule: n when the predicate
/// covers the value frame, two binary searches on sorted FOR, else the
/// dictionary's code_hist or a packed-code scan.
size_t EncodedCount(const EncodedColumn& enc, const RangePredicate& pred);

/// The rows of one partition column that a selection matched, in one of
/// two forms. With `positional` false, `spans` holds ascending, disjoint,
/// non-adjacent [begin, end) ranges; with it true, `positions` holds every
/// matching row, ascending. The unused form is empty. Callers reuse one
/// object across selections so both vectors keep their capacity.
struct RowSelection {
  bool positional = false;
  std::vector<PositionRange> spans;
  std::vector<Key> positions;

  /// Number of matching rows.
  size_t size() const;
  /// Every matching row, ascending, whichever the form. For checks: the
  /// fold paths never expand spans.
  std::vector<Key> ToPositions() const;
  /// Empties both forms (keeping capacity) and sets `positional`.
  void Reset(bool as_positions);
};

/// Selects the rows matching `pred`. Spans whenever the encoded form names
/// them without a per-row scan:
///  - the predicate covers the value frame (FOR [for_base, for_base +
///    for_range], or the dictionary's first and last entries): [0, n);
///  - sorted FOR: one span from two binary searches over the codes;
///  - RLE: the matching runs, adjacent runs coalesced.
/// Otherwise (unsorted FOR, a dictionary range that does not cover) the
/// packed codes are scanned into positions.
void EncodedSelect(const EncodedColumn& enc, const RangePredicate& pred,
                   RowSelection* out);

/// Folds every position into (*acc, *valid) with FoldSpan merge
/// semantics (wrapping sums; *valid set once any value folds in).
void EncodedFold(const EncodedColumn& enc, kernels::FoldOp op, Value* acc,
                 bool* valid);

/// Folds the positions matching `pred` (a predicate on this column's own
/// values) only; returns the match count. Packed columns follow
/// EncodedSelect's span rule: a covering predicate folds from the frame
/// metadata or code_hist, sorted FOR folds its one span, and only the
/// rest scan the packed codes.
size_t EncodedFoldFiltered(const EncodedColumn& enc,
                           const RangePredicate& pred, kernels::FoldOp op,
                           Value* acc, bool* valid);

/// Folds the values at `positions` (a selection vector over this
/// partition's rows, in any order).
void EncodedGatherFold(const EncodedColumn& enc,
                       std::span<const Key> positions, kernels::FoldOp op,
                       Value* acc, bool* valid);

/// Folds the rows of `rows` (another column's selection over the same
/// partition) into (*acc, *valid). Positions go through EncodedGatherFold.
/// Spans fold by layout: RLE run by run, each run clipped to the span (a
/// sum adds value * overlap); dictionaries through a code histogram
/// (the encode-time code_hist when the span is the whole column); FOR from
/// the frame metadata for [0, n), else from the packed codes.
void FoldSelection(const EncodedColumn& enc, const RowSelection& rows,
                   kernels::FoldOp op, Value* acc, bool* valid);

/// The same over a raw column: FoldGather for positions, FoldSpan per span.
void FoldSelection(std::span<const Value> values, const RowSelection& rows,
                   kernels::FoldOp op, Value* acc, bool* valid);

}  // namespace crackdb

#endif  // CRACKDB_STORAGE_CODEC_H_
