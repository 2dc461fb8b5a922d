#include "eval/uecrpq.h"

#include <algorithm>

#include "eval/engines.h"
#include "query/validate.h"

namespace ecrpq {

Status ValidateUnion(const UecrpqQuery& query) {
  if (query.disjuncts.empty()) {
    return Status::Invalid("a UECRPQ needs at least one disjunct");
  }
  const size_t arity = query.disjuncts[0].free_vars().size();
  const Alphabet& alphabet = query.disjuncts[0].alphabet();
  for (const EcrpqQuery& disjunct : query.disjuncts) {
    ECRPQ_RETURN_NOT_OK(ValidateQuery(disjunct));
    if (disjunct.free_vars().size() != arity) {
      return Status::Invalid(
          "all disjuncts of a union must have the same answer arity");
    }
    if (!(disjunct.alphabet() == alphabet)) {
      return Status::Invalid("all disjuncts must share one alphabet");
    }
  }
  return Status::OK();
}

Result<EvalResult> EvaluateUnion(const GraphDb& db, const UecrpqQuery& query,
                                 const EvalOptions& options) {
  ECRPQ_RETURN_NOT_OK(ValidateUnion(query));
  // Disjuncts share answers; each is streamed and counted once.
  internal::DeliverOnce deliver;
  EvalResult merged;
  const bool boolean = query.disjuncts[0].IsBoolean();
  for (const EcrpqQuery& disjunct : query.disjuncts) {
    ECRPQ_ASSIGN_OR_RAISE(EvalResult result,
                          EvaluatePlanned(db, disjunct, deliver.Wrap(options)));
    merged.satisfiable = merged.satisfiable || result.satisfiable;
    if (deliver.stopped || (boolean && merged.satisfiable)) break;
  }
  merged.answers.assign(deliver.delivered.begin(), deliver.delivered.end());
  return merged;
}

QueryClassification ClassifyUnion(const UecrpqQuery& query,
                                  const PlannerThresholds& thresholds) {
  QueryClassification worst;
  bool first = true;
  for (const EcrpqQuery& disjunct : query.disjuncts) {
    const QueryClassification c = ClassifyQuery(disjunct, thresholds);
    if (first) {
      worst = c;
      first = false;
      continue;
    }
    worst.measures.cc_vertex =
        std::max(worst.measures.cc_vertex, c.measures.cc_vertex);
    worst.measures.cc_hedge =
        std::max(worst.measures.cc_hedge, c.measures.cc_hedge);
    worst.measures.treewidth =
        std::max(worst.measures.treewidth, c.measures.treewidth);
    worst.measures.treewidth_exact =
        worst.measures.treewidth_exact && c.measures.treewidth_exact;
    worst.is_crpq = worst.is_crpq && c.is_crpq;
    if (static_cast<int>(c.eval_regime) >
        static_cast<int>(worst.eval_regime)) {
      worst.eval_regime = c.eval_regime;
    }
    if (static_cast<int>(c.param_regime) >
        static_cast<int>(worst.param_regime)) {
      worst.param_regime = c.param_regime;
    }
    if (static_cast<int>(c.engine) > static_cast<int>(worst.engine)) {
      worst.engine = c.engine;
    }
  }
  return worst;
}

}  // namespace ecrpq
