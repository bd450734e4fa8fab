#include "common/bitvector.h"

#include <bit>
#include <cassert>

namespace crackdb {

BitVector::BitVector(size_t n, bool value) : size_(n) {
  words_.assign((n + 63) / 64, value ? ~uint64_t{0} : 0);
  if (value && (n & 63) != 0) {
    // Keep bits past `size_` clear so Count() stays exact.
    words_.back() &= (uint64_t{1} << (n & 63)) - 1;
  }
}

void BitVector::Fill(bool value) {
  for (auto& w : words_) w = value ? ~uint64_t{0} : 0;
  if (value && (size_ & 63) != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << (size_ & 63)) - 1;
  }
}

size_t BitVector::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

void BitVector::And(const BitVector& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void BitVector::AppendSetPositions(std::vector<uint32_t>* out,
                                   uint32_t base) const {
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t bits = words_[w];
    while (bits != 0) {
      int b = std::countr_zero(bits);
      out->push_back(base + static_cast<uint32_t>(w * 64 + b));
      bits &= bits - 1;
    }
  }
}

bool operator==(const BitVector& a, const BitVector& b) {
  return a.size_ == b.size_ && a.words_ == b.words_;
}

}  // namespace crackdb
