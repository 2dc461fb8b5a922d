#include "cq/relational_db.h"

namespace ecrpq {

Result<Relation*> RelationalDb::AddRelation(std::string_view name,
                                            int arity) {
  return Insert(Relation(std::string(name), arity));
}

Status RelationalDb::AdoptRelation(std::string_view name, int arity,
                                   Relation::SharedRows rows) {
  return Insert(Relation(std::string(name), arity, std::move(rows))).status();
}

Result<Relation*> RelationalDb::Insert(Relation relation) {
  std::string name = relation.name();
  auto [it, inserted] = relations_.emplace(name, std::move(relation));
  if (!inserted) {
    return Status::Invalid("duplicate relation name: " + name);
  }
  return &it->second;
}

const Relation* RelationalDb::Find(std::string_view name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

Result<const Relation*> RelationalDb::Require(std::string_view name) const {
  const Relation* rel = Find(name);
  if (rel == nullptr) {
    return Status::NotFound("no relation named " + std::string(name));
  }
  return rel;
}

void RelationalDb::FinalizeAll() {
  for (auto& [name, rel] : relations_) rel.Finalize();
}

size_t RelationalDb::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.NumTuples();
  return n;
}

}  // namespace ecrpq
