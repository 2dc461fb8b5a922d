#include "cq/count.h"

#include <unordered_map>

#include "common/hash.h"
#include "cq/eval_treedec.h"
#include "eval/reduce_to_cq.h"

namespace ecrpq {
namespace {

using u128 = unsigned __int128;

Result<uint64_t> Narrow(u128 value) {
  if (value > static_cast<u128>(~uint64_t{0})) {
    return Status::CapacityExceeded("assignment count exceeds 2^64-1");
  }
  return static_cast<uint64_t>(value);
}

}  // namespace

Result<uint64_t> CountAssignments(const RelationalDb& db,
                                  const CqQuery& query) {
  ECRPQ_RETURN_NOT_OK(ValidateCq(db, query));
  if (query.num_vars == 0) return uint64_t{1};
  ECRPQ_ASSIGN_OR_RAISE(const BagTree tree,
                        MaterializeBags(db, query, /*obs=*/nullptr));

  // Bottom-up DP: counts[b][i] = #assignments of subtree(b)'s variables
  // restricting to bag tuple i. Children come after their parent in
  // pre-order, so the reverse walk folds every subtree into its root's
  // counts before that root is folded into its parent.
  std::vector<std::vector<u128>> counts(tree.bags.size());
  for (size_t b = 0; b < tree.bags.size(); ++b) {
    counts[b].assign(tree.bags[b].tuples.size(), 1);
  }
  for (auto it = tree.pre_order.rbegin(); it != tree.pre_order.rend(); ++it) {
    const BagTree::Bag& bag = tree.bags[*it];
    if (bag.parent < 0) continue;
    const BagTree::Bag& parent = tree.bags[bag.parent];
    // The bag's counts grouped by its separator projection.
    std::unordered_map<std::vector<uint32_t>, u128, VectorHash<uint32_t>>
        by_sep;
    for (size_t i = 0; i < bag.tuples.size(); ++i) {
      by_sep[ProjectTuple(bag.vars, bag.tuples[i], bag.sep)] +=
          counts[*it][i];
    }
    for (size_t i = 0; i < parent.tuples.size(); ++i) {
      auto found =
          by_sep.find(ProjectTuple(parent.vars, parent.tuples[i], bag.sep));
      // 128-bit intermediates; the final Narrow() guards the result. (A
      // count needing more than 128 bits would require ~2^64 vertices.)
      counts[bag.parent][i] *= (found == by_sep.end()) ? 0 : found->second;
    }
  }

  u128 total = 0;
  for (const u128 c : counts[0]) total += c;
  return Narrow(total);
}

Result<uint64_t> CountAssignmentsBrute(const RelationalDb& db,
                                       const CqQuery& query) {
  ECRPQ_RETURN_NOT_OK(ValidateCq(db, query));
  const uint32_t n = db.domain_size();
  if (query.num_vars == 0) return uint64_t{1};
  if (n == 0) return uint64_t{0};
  std::vector<uint32_t> assignment(query.num_vars, 0);
  u128 count = 0;
  while (true) {
    bool ok = true;
    for (const CqAtom& atom : query.atoms) {
      std::vector<uint32_t> tuple;
      for (CqVarId v : atom.vars) tuple.push_back(assignment[v]);
      if (!db.Find(atom.relation)->Contains(tuple)) {
        ok = false;
        break;
      }
    }
    if (ok) ++count;
    int i = 0;
    for (; i < query.num_vars; ++i) {
      if (++assignment[i] < n) break;
      assignment[i] = 0;
    }
    if (i == query.num_vars) break;
  }
  return Narrow(count);
}

Result<uint64_t> CountEcrpqNodeAssignments(const GraphDb& db,
                                           const EcrpqQuery& query) {
  if (db.NumVertices() == 0) {
    return static_cast<uint64_t>(query.NumNodeVars() == 0 ? 1 : 0);
  }
  ECRPQ_ASSIGN_OR_RAISE(CqReduction reduction, ReduceToCq(db, query));
  return CountAssignments(*reduction.db, reduction.query);
}

}  // namespace ecrpq
