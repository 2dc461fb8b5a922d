#include "eval/adaptive.h"

#include <algorithm>
#include <cmath>

#include "eval/engines.h"

namespace ecrpq {

Result<EvalResult> EvaluateAdaptive(const GraphDb& db,
                                    const EcrpqQuery& query,
                                    const AdaptiveOptions& options,
                                    AdaptiveReport* report) {
  if (options.eval.engine.has_value()) {
    return Status::Invalid("EvaluateAdaptive picks its own engines");
  }
  const QueryClassification classification =
      ClassifyQuery(query, options.thresholds);
  if (report != nullptr) {
    report->classification = classification;
    report->fell_back = false;
  }
  // Reject up front what the fallback engine could not honour, so that
  // adaptive accepts exactly the options the planner's route accepts.
  ECRPQ_RETURN_NOT_OK(CheckEngineOptions(classification.engine, options.eval));

  // Phase-1 budget: enough to cover an easy instance's reachable product
  // space, small enough to bail out before exponential blowup.
  const double n = std::max(1, db.NumVertices());
  const int r = std::min(classification.measures.cc_vertex,
                         options.cc_vertex_cap);
  const double raw = options.budget_factor * std::pow(n, r) *
                     std::max(1, classification.measures.cc_hedge);
  // At least 1: a budget of 0 would mean "unlimited" downstream.
  const size_t budget =
      std::max<size_t>(1, static_cast<size_t>(std::min(raw, 1e9)));
  if (report != nullptr) report->phase1_budget = budget;

  // Phase 1 runs under a session of its own, armed with the caller's
  // limits and the phase-1 budget as its product-state cap, whichever is
  // tighter. It records spans into the caller's trace buffer, so they
  // render with the caller's; its counters are folded into the caller's
  // session afterwards, so the caller's Report() and budget see both
  // phases.
  obs::Session* caller = options.eval.obs;
  obs::Session phase1_session;
  obs::EvalBudget limits;
  if (caller != nullptr) {
    if (caller->trace() != nullptr) phase1_session.EnableTrace(caller->trace());
    if (caller->armed()) limits = caller->budget();
  }
  phase1_session.SetBudget(limits.WithProductStateCap(budget));

  // Both phases stream through one deliverer: phase 2 must not re-deliver
  // what phase 1 streamed before it hit the budget.
  internal::DeliverOnce deliver;
  EvalOptions phase1 = deliver.Wrap(options.eval);
  phase1.obs = &phase1_session;
  Result<EvalResult> result = EvaluateGeneric(db, query, phase1);
  if (caller != nullptr) {
    caller->metrics().AcquireShard()->Absorb(phase1_session.Report());
    if (caller->CheckBudget()) return caller->ExhaustedStatus();
  }
  if (!result.ok() &&
      result.status().code() == StatusCode::kResourceExhausted) {
    // Phase 2: the regime-prescribed engine under the caller's options
    // alone (PSPACE regime: the generic engine without the phase-1 budget).
    if (report != nullptr) {
      report->fell_back = true;
      report->fallback_engine = classification.engine;
    }
    EvalOptions phase2 = deliver.Wrap(options.eval);
    phase2.engine = classification.engine;
    result = EvaluatePlanned(db, query, phase2, options.thresholds);
  }
  ECRPQ_RETURN_NOT_OK(result.status());
  result->answers.assign(deliver.delivered.begin(), deliver.delivered.end());
  return result;
}

}  // namespace ecrpq
