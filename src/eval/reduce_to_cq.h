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
#ifndef ECRPQ_EVAL_REDUCE_TO_CQ_H_
#define ECRPQ_EVAL_REDUCE_TO_CQ_H_

#include <memory>

#include "common/obs.h"
#include "common/result.h"
#include "cq/cq.h"
#include "cq/relational_db.h"
#include "graphdb/graph_db.h"
#include "query/ast.h"

namespace ecrpq {

struct CqReduction {
  std::unique_ptr<RelationalDb> db;
  CqQuery query;
  // Diagnostics for experiment E7: Σ_C |V|^r over the components.
  size_t source_tuples_enumerated = 0;
};

struct ReduceOptions {
  // Worker threads for the sweeps that materialize each component relation
  // (TupleReachAll): 0 = ECRPQ_THREADS / hardware default, 1 = sequential.
  // The materialized relations (and any budget error) are identical for
  // every value: sweeps run concurrently but their rows are concatenated
  // in enumeration order.
  int num_threads = 0;
  // Observability & resource-governance session (common/obs.h). A tripped
  // budget turns into Status::ResourceExhausted; the partial StatsReport
  // stays readable via the session. Every materialized row is an accepting
  // state some sweep discovered, so the budget's product-state cap also
  // bounds the relation sizes. The budget is polled once per sweep of 64
  // source tuples. Null = zero overhead.
  obs::Session* obs = nullptr;
};

// Evaluating the reduced CQ is EvaluatePlanned's kCqReduction (tree
// decomposition) or kCqReductionNp (backtracking) engine.
Result<CqReduction> ReduceToCq(const GraphDb& db, const EcrpqQuery& query,
                               const ReduceOptions& options = {});

}  // namespace ecrpq

#endif  // ECRPQ_EVAL_REDUCE_TO_CQ_H_
