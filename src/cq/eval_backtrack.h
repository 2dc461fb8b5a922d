// Backtracking CQ evaluation — the general (NP) algorithm.
//
// Atoms are ordered greedily to bind variables early; candidate tuples for
// each atom come from per-bound-pattern hash indexes (cq/relation.h).
#ifndef ECRPQ_CQ_EVAL_BACKTRACK_H_
#define ECRPQ_CQ_EVAL_BACKTRACK_H_

#include <cstdint>
#include <vector>

#include "common/obs.h"
#include "common/result.h"
#include "cq/cq.h"

namespace ecrpq {

struct CqEvalOptions {
  // Stop after this many distinct answers (0 = unlimited). Satisfiability
  // checks pass 1.
  size_t max_answers = 0;
  // Observability & resource-governance session (common/obs.h). A tripped
  // budget turns the evaluation into Status::ResourceExhausted. Null =
  // zero overhead.
  obs::Session* obs = nullptr;
  // One kAnswerLatencyNs sample per distinct answer. CqEvaluateTreeDec
  // clears it for its bag materializations, whose tuples are not answers.
  bool record_answer_latency = true;
};

struct CqEvalResult {
  bool satisfiable = false;
  // Distinct answers projected to free_vars (empty vector element for
  // Boolean queries when satisfiable).
  std::vector<std::vector<uint32_t>> answers;
};

Result<CqEvalResult> CqEvaluateBacktracking(const RelationalDb& db,
                                            const CqQuery& query,
                                            const CqEvalOptions& options = {});

// Convenience: Boolean satisfiability.
Result<bool> CqSatisfiable(const RelationalDb& db, const CqQuery& query);

}  // namespace ecrpq

#endif  // ECRPQ_CQ_EVAL_BACKTRACK_H_
