// DynamicBitset: a simple resizable bitset used for visited-state tracking in
// product-space searches where the state space is dense and enumerable.
//
// Beyond the single-bit accessors, the class exposes word-parallel sweeps
// for the hot paths of the parallel runtime: bulk OrAssign / AndAssign /
// DifferenceAssign over 64-bit words and set-bit iteration via
// std::countr_zero (ForEachSetBit). The bitset tests property-check the
// bulk operators against a bit-at-a-time reference.
#ifndef ECRPQ_COMMON_BITSET_H_
#define ECRPQ_COMMON_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace ecrpq {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t n, bool value = false)
      : size_(n), words_((n + 63) / 64, value ? ~uint64_t{0} : 0) {
    TrimLast();
  }

  size_t size() const { return size_; }

  bool Test(size_t i) const {
    ECRPQ_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(size_t i) {
    ECRPQ_DCHECK(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  void Reset(size_t i) {
    ECRPQ_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  // Sets bit i, returning whether it was previously unset (i.e. "newly
  // visited"). The common BFS idiom.
  bool TestAndSet(size_t i) {
    ECRPQ_DCHECK(i < size_);
    const uint64_t mask = uint64_t{1} << (i & 63);
    const bool was_set = words_[i >> 6] & mask;
    words_[i >> 6] |= mask;
    return !was_set;
  }

  size_t CountSet() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
    return n;
  }

  void Clear() {
    for (uint64_t& w : words_) w = 0;
  }

  bool AnySet() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  // ---- Word-parallel bulk operations (sizes must match). ----

  // this |= o.
  void OrAssign(const DynamicBitset& o) {
    ECRPQ_DCHECK(size_ == o.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  }

  // this &= o.
  void AndAssign(const DynamicBitset& o) {
    ECRPQ_DCHECK(size_ == o.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  }

  // this &= ~o (set difference).
  void DifferenceAssign(const DynamicBitset& o) {
    ECRPQ_DCHECK(size_ == o.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
  }

  // Calls fn(i) for every set bit i in increasing order. One countr_zero
  // per set bit, one load per word — zero words cost a single compare.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const int b = std::countr_zero(w);
        fn((wi << 6) + static_cast<size_t>(b));
        w &= w - 1;  // Clear the lowest set bit.
      }
    }
  }

  // Calls fn(i) for every *unset* bit i < size() in increasing order — the
  // bottom-up ("pull") sweep over unvisited states. Implemented as the
  // set-bit sweep over complemented words with the final partial word
  // masked, so out-of-range positions are never produced.
  template <typename Fn>
  void ForEachUnsetBit(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = ~words_[wi];
      if (wi == words_.size() - 1 && (size_ & 63) != 0) {
        w &= (uint64_t{1} << (size_ & 63)) - 1;
      }
      while (w != 0) {
        const int b = std::countr_zero(w);
        fn((wi << 6) + static_cast<size_t>(b));
        w &= w - 1;
      }
    }
  }

  bool operator==(const DynamicBitset&) const = default;

 private:
  void TrimLast() {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << (size_ % 64)) - 1;
    }
  }
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace ecrpq

#endif  // ECRPQ_COMMON_BITSET_H_
