#ifndef CRACKDB_COMMON_BITVECTOR_H_
#define CRACKDB_COMMON_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace crackdb {

/// Dense bit vector used by the sideways-cracking multi-selection operators
/// (`select_create_bv` / `select_refine_bv` / `reconstruct`) to filter the
/// aligned candidate area of a map set (paper Section 3.3).
///
/// Word-at-a-time AND/OR and popcount are provided because refinement steps
/// touch every bit of the candidate area once per additional predicate.
class BitVector {
 public:
  BitVector() = default;

  /// Creates a vector of `n` bits, all initialized to `value`.
  explicit BitVector(size_t n, bool value = false);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  /// Sets all bits to `value`.
  void Fill(bool value);

  /// Number of set bits.
  size_t Count() const;

  /// this &= other. Both vectors must have equal size.
  void And(const BitVector& other);

  /// Appends positions of set bits (offset by `base`) to `out`.
  void AppendSetPositions(std::vector<uint32_t>* out, uint32_t base = 0) const;

  /// Raw word storage: bit i lives at word_data()[i >> 6], bit (i & 63).
  /// Used by the kernel-layer bitmap builders (kernels::MatchBitmap);
  /// writers must leave bits at positions >= size() clear (Count relies
  /// on the tail words staying zero).
  uint64_t* word_data() { return words_.data(); }
  const uint64_t* word_data() const { return words_.data(); }

  friend bool operator==(const BitVector&, const BitVector&);

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace crackdb

#endif  // CRACKDB_COMMON_BITVECTOR_H_
