// The reduction of Lemma 4.3: ECRPQ evaluation → CQ evaluation.
//
// For each G^rel component with path variables π_1..π_r (endpoints x_i, y_i)
// the relation
//   R'_C = {(u_1, v_1, ..., u_r, v_r) : ∃ paths u_i → v_i whose labels are
//           jointly accepted by the component's merged relation}
// is materialized over the vertex domain, and the ECRPQ becomes the CQ
//   ⋀_C R'_C(x_1, y_1, ..., x_r, y_r)
// over 2r pairwise-distinct variables per atom (coinciding endpoints are
// split into fresh copies whose equality is enforced inside R'_C), so each
// atom contributes a full 2r-clique to the Gaifman graph while the atom
// hypergraph keeps the component chain structure. Construction cost is
// O(|D|^{2·cc_vertex}) per component — polynomial when cc_vertex (and, for
// the query-rewriting step, cc_hedge) are bounded, as the lemma states.
//
// A one-tape component — one path variable π with at most one relation
// atom, a unary one — is the case of Corollary 2.4: R'_C is the reach
// relation R_L of π's language (the atom's NFA, or A* for a bare path
// variable), built by RpqReachAll (graphdb/rpq_reach.h). A CRPQ is a query
// whose components are all one-tape, so the CRPQ pipeline is this
// reduction. Every other component is built by TupleReachAll
// (graphdb/tuple_search.h).
#ifndef ECRPQ_EVAL_REDUCE_TO_CQ_H_
#define ECRPQ_EVAL_REDUCE_TO_CQ_H_

#include <memory>

#include "common/result.h"
#include "cq/cq.h"
#include "cq/relational_db.h"
#include "eval/generic_eval.h"
#include "graphdb/graph_db.h"
#include "query/ast.h"

namespace ecrpq {

struct CqReduction {
  std::unique_ptr<RelationalDb> db;
  CqQuery query;
  // Diagnostics for experiment E7: Σ_C |V|^r over the components.
  size_t source_tuples_enumerated = 0;
};

// Honours options.num_threads, options.obs and options.disable_cache; the
// other fields are the CQ phase's. The relations (and any budget error)
// are identical for every num_threads: sweeps run concurrently but their
// rows are concatenated in enumeration order. Unless disable_cache, a
// one-tape component's language is interned (automata/interner.h) and R_L
// is served from, or published to, the reach memo (graphdb/reach_memo.h);
// the relation adopts the memo's rows without a copy, and only a self-loop
// x -L-> x keeps a filtered copy of them. A tripped budget of options.obs
// turns into Status::ResourceExhausted; every materialized row is an
// accepting state some sweep discovered, so the budget's product-state cap
// also bounds the relation sizes. Evaluating the reduced CQ is
// EvaluatePlanned's kCrpqPipeline and kCqReduction (tree decomposition) or
// kCqReductionNp (backtracking) engine.
Result<CqReduction> ReduceToCq(const GraphDb& db, const EcrpqQuery& query,
                               const EvalOptions& options = {});

}  // namespace ecrpq

#endif  // ECRPQ_EVAL_REDUCE_TO_CQ_H_
