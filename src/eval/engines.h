// The engine bodies behind EvaluatePlanned (eval/planner.h), internal to
// src/eval/. EvaluatePlanned calls one only after CheckEngineOptions has
// accepted the options.
#ifndef ECRPQ_EVAL_ENGINES_H_
#define ECRPQ_EVAL_ENGINES_H_

#include <set>
#include <vector>

#include "common/result.h"
#include "eval/generic_eval.h"
#include "graphdb/graph_db.h"
#include "query/ast.h"

namespace ecrpq::internal {

// Lemma 4.3 — and, for a CRPQ, Corollary 2.4: ReduceToCq
// (eval/reduce_to_cq.h), then the tree-decomposition CQ engine
// (use_treedec) or the backtracking one. The CQ's sorted answers are
// replayed through options.on_answer, so that answers ends as exactly the
// delivered tuples.
Result<EvalResult> EvaluateViaCqReduction(const GraphDb& db,
                                          const EcrpqQuery& query,
                                          const EvalOptions& options,
                                          bool use_treedec);

// Delivers each distinct answer once across the evaluations of one request
// (the disjuncts of a union, the phases of adaptive). Wrap(options) routes
// on_answer through here: repeats are dropped, and every evaluation stops
// once the caller's callback returns false or options.max_answers distinct
// answers went out.
struct DeliverOnce {
  DeliverOnce() = default;
  DeliverOnce(const DeliverOnce&) = delete;  // Wrap() hands out `this`.
  DeliverOnce& operator=(const DeliverOnce&) = delete;

  EvalOptions Wrap(EvalOptions options) {
    options.on_answer = [this, inner = options.on_answer,
                         cap = options.max_answers](
                            const std::vector<VertexId>& answer) {
      if (!stopped && delivered.insert(answer).second) {
        stopped = (inner && !inner(answer)) ||
                  (cap != 0 && delivered.size() >= cap);
      }
      return !stopped;
    };
    return options;
  }

  std::set<std::vector<VertexId>> delivered;
  bool stopped = false;
};

}  // namespace ecrpq::internal

#endif  // ECRPQ_EVAL_ENGINES_H_
