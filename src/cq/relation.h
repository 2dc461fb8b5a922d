// Relation: a set of fixed-arity tuples over uint32 values (vertex ids),
// with lazily-built hash indexes per bound-position pattern. The rows are
// either built by Add + Finalize or adopted, already sorted, from a shared
// vector (the reach memo's R_L, graphdb/reach_memo.h) without a copy.
#ifndef ECRPQ_CQ_RELATION_H_
#define ECRPQ_CQ_RELATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/hash.h"

namespace ecrpq {

class Relation {
 public:
  // Row-major tuples that several relations can read without a copy.
  using SharedRows = std::shared_ptr<const std::vector<uint32_t>>;

  Relation(std::string name, int arity)
      : name_(std::move(name)), arity_(arity) {
    ECRPQ_CHECK_GT(arity_, 0);
  }

  // Adopts `rows` (row-major, sorted lexicographically, duplicate-free)
  // without copying them. The relation is finalized on construction, so Add
  // fails; the sortedness check runs under ECRPQ_DCHECK_INVARIANT, as after
  // Finalize. The rows are shared with every other holder; the indexes are
  // this relation's own.
  Relation(std::string name, int arity, SharedRows rows);

  const std::string& name() const { return name_; }
  int arity() const { return arity_; }
  size_t NumTuples() const { return rows().size() / arity_; }

  void Add(std::span<const uint32_t> tuple);

  // Sorts and deduplicates. Must be called before queries; adding after
  // finalization is an error.
  void Finalize();
  bool finalized() const { return finalized_; }

  std::span<const uint32_t> Tuple(size_t row) const {
    return {rows().data() + row * arity_, static_cast<size_t>(arity_)};
  }

  bool Contains(std::span<const uint32_t> tuple) const;

  // Rows whose values at the positions in `mask` (bit i = position i bound)
  // equal `key` (the bound values, in position order). Builds and caches an
  // index per distinct mask.
  const std::vector<uint32_t>& Matches(uint32_t mask,
                                       const std::vector<uint32_t>& key) const;

  // Storage invariants (fires ECRPQ_CHECK on violation, any build mode):
  // positive arity, data a whole number of rows, and — once finalized —
  // rows sorted lexicographically and deduplicated. Finalize() re-asserts
  // this via ECRPQ_DCHECK_INVARIANT.
  void CheckInvariants() const;

 private:
  using Index =
      std::unordered_map<std::vector<uint32_t>, std::vector<uint32_t>,
                         VectorHash<uint32_t>>;
  const Index& IndexFor(uint32_t mask) const;
  const std::vector<uint32_t>& rows() const {
    return shared_ != nullptr ? *shared_ : data_;
  }

  std::string name_;
  int arity_;
  std::vector<uint32_t> data_;  // Row-major, built by Add.
  SharedRows shared_;           // Adopted rows; data_ stays empty.
  bool finalized_ = false;
  mutable std::unordered_map<uint32_t, Index> indexes_;
  static const std::vector<uint32_t> kNoRows;
};

}  // namespace ecrpq

#endif  // ECRPQ_CQ_RELATION_H_
