// Tree-decomposition-based CQ evaluation — the |D|^{O(tw)} algorithm behind
// Proposition 2.3(1) and the polynomial upper bounds of Theorem 3.2(3).
//
// Pipeline: tree-decompose the Gaifman graph; assign every atom to a bag
// containing its variables; materialize each bag's relation (all assignments
// of the bag's variables satisfying its atoms, unconstrained bag variables
// ranging over the domain) — MaterializeBags, which the evaluation below
// and the counting DP of cq/count.h share; then semijoin-reduce leaves
// upward (Yannakakis); satisfiable iff the root survives; answers are
// enumerated by a consistent top-down walk.
#ifndef ECRPQ_CQ_EVAL_TREEDEC_H_
#define ECRPQ_CQ_EVAL_TREEDEC_H_

#include <cstdint>
#include <vector>

#include "common/obs.h"
#include "common/result.h"
#include "cq/cq.h"
#include "cq/eval_backtrack.h"

namespace ecrpq {

// A query's tree decomposition rooted at bag 0, each bag with its relation.
struct BagTree {
  struct Bag {
    std::vector<int> vars;  // Sorted bag variables.
    std::vector<int> sep;   // vars ∩ the parent's vars; empty at the root.
    int parent = -1;
    // Assignments of `vars`, aligned with it, satisfying the bag's atoms.
    std::vector<std::vector<uint32_t>> tuples;
  };
  std::vector<Bag> bags;
  // Every bag once, root first, each bag before its children.
  std::vector<int> pre_order;
};

// Decomposes the Gaifman graph of `query` (which has at least one
// variable), roots the tree, places each atom in the first bag that holds
// its variables and materializes every bag with the backtracking
// evaluator. With a session it records the "TreeDec.decompose" and
// "TreeDec.materialize_bags" spans and, per bag, a phase_bag_materialize_ns
// sample, a bag_width sample and its tuples as bag_tuples_materialized,
// and polls CheckBudget() after each bag: a trip returns ResourceExhausted.
// A null session records nothing and has no limit.
Result<BagTree> MaterializeBags(const RelationalDb& db, const CqQuery& query,
                                obs::Session* obs);

// `tuple`, aligned with the sorted `vars`, projected onto `onto` (a sorted
// subset of vars).
std::vector<uint32_t> ProjectTuple(const std::vector<int>& vars,
                                   const std::vector<uint32_t>& tuple,
                                   const std::vector<int>& onto);

Result<CqEvalResult> CqEvaluateTreeDec(const RelationalDb& db,
                                       const CqQuery& query,
                                       const CqEvalOptions& options = {});

}  // namespace ecrpq

#endif  // ECRPQ_CQ_EVAL_TREEDEC_H_
