// Adaptive evaluation: budgeted lazy search with a regime-aware fallback.
//
// The E12 ablation shows the lazy product evaluator dominates on easy
// (satisfiable, small) instances while the Lemma 4.3 pipeline provides the
// polynomial worst-case guarantee in the tractable regime. The adaptive
// engine combines both, guided by the classification:
//
//   1. run the lazy generic evaluator in a budgeted obs::Session of its
//      own, capped at a product-state budget derived from the database size
//      and the query's cc_vertex (summed over all of phase 1's searches);
//   2. if it finishes, done — its answer is exact;
//   3. if it exhausts that budget, fall back to the engine the planner
//      prescribes for the query's regime (pipeline engines materialize
//      bottom-up and are immune to unlucky search orders; in the PSPACE
//      regime there is nothing better, so the budget is lifted instead).
//
// `eval` must leave `engine` unset and is checked against the planner's
// engine for the query (CheckEngineOptions) before phase 1. The caller's
// session (`eval.obs`) sees both phases: phase 1 runs under the caller's
// limits too, its spans go to the caller's trace buffer and its counters
// are folded into the caller's session before phase 2. A caller budget
// that trips in either phase ends the evaluation with ResourceExhausted
// and no fallback; on_answer sees each answer once.
#ifndef ECRPQ_EVAL_ADAPTIVE_H_
#define ECRPQ_EVAL_ADAPTIVE_H_

#include "common/result.h"
#include "eval/generic_eval.h"
#include "eval/planner.h"

namespace ecrpq {

struct AdaptiveOptions {
  // Budget for phase 1 as a multiple of |V|^min(cc_vertex, cap) · cc_hedge.
  double budget_factor = 64.0;
  int cc_vertex_cap = 2;
  EvalOptions eval;                 // max_answers, on_answer etc.
  PlannerThresholds thresholds;
};

struct AdaptiveReport {
  QueryClassification classification;
  size_t phase1_budget = 0;
  bool fell_back = false;
  EngineChoice fallback_engine = EngineChoice::kGeneric;
};

Result<EvalResult> EvaluateAdaptive(const GraphDb& db,
                                    const EcrpqQuery& query,
                                    const AdaptiveOptions& options = {},
                                    AdaptiveReport* report = nullptr);

}  // namespace ecrpq

#endif  // ECRPQ_EVAL_ADAPTIVE_H_
