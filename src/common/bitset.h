// DynamicBitset: a fixed-size bitset for the visited set of a search over
// a dense, enumerable state space (the RPQ witness search in
// graphdb/rpq_reach.cc codes its product states as vertex * |Q| + state).
#ifndef ECRPQ_COMMON_BITSET_H_
#define ECRPQ_COMMON_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace ecrpq {

class DynamicBitset {
 public:
  // n bits, all clear.
  explicit DynamicBitset(size_t n) : size_(n), words_((n + 63) / 64, 0) {}

  size_t size() const { return size_; }

  bool Test(size_t i) const {
    ECRPQ_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
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

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace ecrpq

#endif  // ECRPQ_COMMON_BITSET_H_
