// Counting satisfying assignments of a CQ (homomorphism counting) by
// dynamic programming over a tree decomposition — polynomial for bounded
// treewidth, the counting analogue of the Prop. 2.3 evaluation bound. The
// decomposition and its bag relations are MaterializeBags'
// (cq/eval_treedec.h), the same bags CqEvaluateTreeDec joins; the DP is
// all that is specific to counting.
//
// Counts *full* assignments (all variables), not projected answers:
// projected counting is #·NP-hard even for tractable shapes, while
// homomorphism counting inherits the |D|^{O(tw)} bound.
#ifndef ECRPQ_CQ_COUNT_H_
#define ECRPQ_CQ_COUNT_H_

#include <cstdint>

#include "common/result.h"
#include "cq/cq.h"
#include "graphdb/graph_db.h"
#include "query/ast.h"

namespace ecrpq {

// Number of satisfying assignments of all of `query`'s variables. Overflow
// beyond 2^64-1 is reported as an error.
Result<uint64_t> CountAssignments(const RelationalDb& db,
                                  const CqQuery& query);

// Brute-force reference (enumeration over domain^num_vars) for testing.
Result<uint64_t> CountAssignmentsBrute(const RelationalDb& db,
                                       const CqQuery& query);

// ECRPQ-level wrapper: the number of satisfying node-variable assignments
// of an ECRPQ on a graph database (via the Lemma 4.3 reduction; cost
// inherits its O(|D|^{2·cc_vertex}) materialization).
Result<uint64_t> CountEcrpqNodeAssignments(const GraphDb& db,
                                           const EcrpqQuery& query);

}  // namespace ecrpq

#endif  // ECRPQ_CQ_COUNT_H_
