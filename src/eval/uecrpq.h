// UECRPQ: finite unions of ECRPQ queries. The paper's concluding remark
// notes the characterization extends to them; evaluation is simply the
// union of the disjuncts' answer sets (for Boolean queries: disjunction).
#ifndef ECRPQ_EVAL_UECRPQ_H_
#define ECRPQ_EVAL_UECRPQ_H_

#include "common/result.h"
#include "eval/generic_eval.h"
#include "eval/planner.h"
#include "graphdb/graph_db.h"
#include "query/ast.h"

namespace ecrpq {

// Checks that the union is well-formed: at least one disjunct, all
// disjuncts individually valid, same alphabet, and the same number of free
// variables (answer arity).
Status ValidateUnion(const UecrpqQuery& query);

// Evaluates every disjunct through EvaluatePlanned and merges the answer
// sets (sorted, deduplicated). on_answer sees each distinct answer once and
// max_answers caps the union, not each disjunct. A Boolean union
// short-circuits on the first satisfiable disjunct.
Result<EvalResult> EvaluateUnion(const GraphDb& db, const UecrpqQuery& query,
                                 const EvalOptions& options = {});

// The union's regime is the worst regime among its disjuncts (a class
// containing the union contains every disjunct's class).
QueryClassification ClassifyUnion(const UecrpqQuery& query,
                                  const PlannerThresholds& thresholds = {});

}  // namespace ecrpq

#endif  // ECRPQ_EVAL_UECRPQ_H_
