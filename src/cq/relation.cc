#include "cq/relation.h"

#include <algorithm>

namespace ecrpq {

const std::vector<uint32_t> Relation::kNoRows;

Relation::Relation(std::string name, int arity, SharedRows rows)
    : Relation(std::move(name), arity) {
  ECRPQ_CHECK(rows != nullptr);
  shared_ = std::move(rows);
  finalized_ = true;
  ECRPQ_DCHECK_INVARIANT(*this);
}

void Relation::Add(std::span<const uint32_t> tuple) {
  ECRPQ_CHECK(!finalized_);
  ECRPQ_CHECK_EQ(static_cast<int>(tuple.size()), arity_);
  data_.insert(data_.end(), tuple.begin(), tuple.end());
}

void Relation::Finalize() {
  if (finalized_) return;
  const size_t n = NumTuples();
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  auto cmp = [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(
        data_.begin() + a * arity_, data_.begin() + (a + 1) * arity_,
        data_.begin() + b * arity_, data_.begin() + (b + 1) * arity_);
  };
  auto eq = [&](uint32_t a, uint32_t b) {
    return std::equal(data_.begin() + a * arity_,
                      data_.begin() + (a + 1) * arity_,
                      data_.begin() + b * arity_);
  };
  std::sort(rows.begin(), rows.end(), cmp);
  rows.erase(std::unique(rows.begin(), rows.end(), eq), rows.end());
  std::vector<uint32_t> sorted;
  sorted.reserve(rows.size() * arity_);
  for (uint32_t r : rows) {
    sorted.insert(sorted.end(), data_.begin() + r * arity_,
                  data_.begin() + (r + 1) * arity_);
  }
  data_ = std::move(sorted);
  finalized_ = true;
  ECRPQ_DCHECK_INVARIANT(*this);
}

void Relation::CheckInvariants() const {
  ECRPQ_CHECK_GT(arity_, 0) << "Relation " << name_ << ": non-positive arity";
  const std::vector<uint32_t>& data = rows();
  ECRPQ_CHECK_EQ(data.size() % arity_, 0u)
      << "Relation " << name_ << ": data is not a whole number of rows";
  if (!finalized_) return;
  const size_t n = NumTuples();
  for (size_t row = 1; row < n; ++row) {
    const auto prev = data.begin() + (row - 1) * arity_;
    const auto cur = data.begin() + row * arity_;
    ECRPQ_CHECK(std::lexicographical_compare(prev, prev + arity_, cur,
                                             cur + arity_))
        << "Relation " << name_
        << ": finalized rows not sorted/deduplicated at row " << row;
  }
}

bool Relation::Contains(std::span<const uint32_t> tuple) const {
  ECRPQ_CHECK(finalized_);
  ECRPQ_CHECK_EQ(static_cast<int>(tuple.size()), arity_);
  const uint32_t mask = (arity_ >= 32) ? ~uint32_t{0}
                                       : ((uint32_t{1} << arity_) - 1);
  const std::vector<uint32_t> key(tuple.begin(), tuple.end());
  return !Matches(mask, key).empty();
}

const Relation::Index& Relation::IndexFor(uint32_t mask) const {
  auto it = indexes_.find(mask);
  if (it != indexes_.end()) return it->second;
  Index index;
  const std::vector<uint32_t>& data = rows();
  const size_t n = NumTuples();
  std::vector<uint32_t> key;
  for (size_t row = 0; row < n; ++row) {
    key.clear();
    for (int i = 0; i < arity_; ++i) {
      if (mask & (uint32_t{1} << i)) key.push_back(data[row * arity_ + i]);
    }
    index[key].push_back(static_cast<uint32_t>(row));
  }
  return indexes_.emplace(mask, std::move(index)).first->second;
}

const std::vector<uint32_t>& Relation::Matches(
    uint32_t mask, const std::vector<uint32_t>& key) const {
  ECRPQ_CHECK(finalized_);
  const Index& index = IndexFor(mask);
  auto it = index.find(key);
  if (it == index.end()) return kNoRows;
  return it->second;
}

}  // namespace ecrpq
