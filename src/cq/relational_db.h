// RelationalDb: a named collection of relations plus a domain size — the
// target structure of the ECRPQ → CQ reduction (Lemma 4.3) and of the CQ
// evaluators.
#ifndef ECRPQ_CQ_RELATIONAL_DB_H_
#define ECRPQ_CQ_RELATIONAL_DB_H_

#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "cq/relation.h"

namespace ecrpq {

class RelationalDb {
 public:
  explicit RelationalDb(uint32_t domain_size) : domain_size_(domain_size) {}

  // Values range over {0, ..., domain_size-1}.
  uint32_t domain_size() const { return domain_size_; }

  // Creates a relation; errors on duplicate names.
  Result<Relation*> AddRelation(std::string_view name, int arity);

  // Creates a finalized relation that shares `rows` — row-major, sorted,
  // duplicate-free — instead of copying them (Relation's adopting
  // constructor); errors on duplicate names.
  Status AdoptRelation(std::string_view name, int arity,
                       Relation::SharedRows rows);

  const Relation* Find(std::string_view name) const;
  Result<const Relation*> Require(std::string_view name) const;

  // Finalizes every relation.
  void FinalizeAll();

  size_t NumRelations() const { return relations_.size(); }
  size_t TotalTuples() const;

 private:
  Result<Relation*> Insert(Relation relation);

  uint32_t domain_size_;
  std::map<std::string, Relation, std::less<>> relations_;
};

}  // namespace ecrpq

#endif  // ECRPQ_CQ_RELATIONAL_DB_H_
