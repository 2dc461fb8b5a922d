// GenericEvaluator: sound and complete evaluation for arbitrary ECRPQ.
//
// The algorithm mirrors the PSPACE upper bound (Prop. 2.2 / Lemma 4.2): per
// G^rel component, paths are searched simultaneously in the product of
// |component| copies of the database with the component's joint relation
// automaton (lazy Lemma 4.1 join). Node variables are assigned by
// backtracking; for each component, unassigned source variables are
// enumerated, the memoized reachability set Reach(ū) is computed once, and
// its accepting target tuples drive the assignment of target variables.
//
// Cost is exponential only in cc_vertex (tuple width) and in the treewidth
// of the node-variable constraint structure — exactly the measures of the
// characterization.
#ifndef ECRPQ_EVAL_GENERIC_EVAL_H_
#define ECRPQ_EVAL_GENERIC_EVAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/obs.h"
#include "common/result.h"
#include "graphdb/graph_db.h"
#include "graphdb/tuple_search.h"
#include "query/ast.h"

namespace ecrpq {

// The evaluation engines of Theorems 3.1 / 3.2, from the cheapest regime to
// the most general one (ClassifyUnion relies on this order).
enum class EngineChoice {
  kCrpqPipeline,      // Corollary 2.4: R_L materialization + tree-dec CQ.
  kCqReduction,       // Lemma 4.3 pipeline + tree-dec CQ (poly regime).
  kCqReductionNp,     // Lemma 4.3 pipeline + backtracking CQ (NP regime).
  kGeneric,           // Lazy product evaluator (PSPACE regime).
};

// The options of every engine. EvaluatePlanned (eval/planner.h) runs the
// engine named by `engine`; each engine honours every other field or
// rejects it with InvalidArgument before any work starts (the table is
// CheckEngineOptions in eval/planner.h).
struct EvalOptions {
  // The engine to run; unset = the planner routes by classification.
  std::optional<EngineChoice> engine;
  // Worker threads for the engine's parallel phases (branch search,
  // reach-relation builds, source-tuple materialization): 0 = the
  // ECRPQ_THREADS / hardware default, 1 = fully sequential, N > 1 = a pool
  // of N workers. Answers (including max_answers early-stop and on_answer
  // callback sequences) are identical for every value; only work counters
  // of the obs session may grow with parallelism, because branches
  // explored concurrently are not un-explored when an early stop cuts the
  // replay short.
  int num_threads = 0;
  // Stop after this many distinct answers (0 = unlimited; Boolean queries
  // stop at the first satisfying assignment regardless). With a cap k an
  // engine returns min(k, |answers|) true answers, but WHICH ones depends
  // on the engine: generic keeps the first k of its backtracking order, the
  // CQ-side engines the first k of their join enumeration, so auto and
  // generic may return different subsets. For one engine the subset is the
  // same for every num_threads and disable_cache.
  size_t max_answers = 0;
  // Pre-pinned node-variable values (e.g. to certify one concrete answer
  // tuple; see eval/explain.h). Pinned variables are never re-enumerated.
  // Generic engine only.
  std::vector<std::pair<NodeVarId, VertexId>> pin;
  // Record the full node assignment of the first satisfying solution in
  // EvalResult::first_assignment. Generic engine only.
  bool capture_assignment = false;
  // Disable per-source memoization in the component searches (ablation).
  // Generic engine only.
  bool disable_memo = false;
  // Bypass the process-wide cross-query caches — plan cache (eval/planner),
  // automaton interner (automata/interner.h) and reach memo
  // (graphdb/reach_memo.h) — for this evaluation: nothing is looked up and
  // nothing is published. Answers are byte-identical either way (the cache
  // differential suite checks this); the switch exists as an escape hatch
  // (ecrpq_cli --no-cache) and for cold-path benchmarking.
  bool disable_cache = false;
  // Streaming: invoked once per *distinct* answer as it is found (the
  // CQ-side engines replay their sorted answers). Returning false stops the
  // evaluation early; EvalResult::answers is then exactly the tuples
  // delivered so far. Boolean queries stream at most one (empty) tuple.
  std::function<bool(const std::vector<VertexId>&)> on_answer;
  // Observability & resource-governance session (common/obs.h): counters,
  // trace spans and the evaluation-wide budget, the only limit an engine
  // obeys. When the budget trips, the engine returns
  // Status::ResourceExhausted and the partial StatsReport stays readable
  // via the session. Null = zero overhead; answers are byte-identical with
  // or without a session attached.
  obs::Session* obs = nullptr;
};

struct EvalResult {
  bool satisfiable = false;
  // Distinct answers projected to the free variables, sorted. For Boolean
  // queries: one empty tuple when satisfiable.
  std::vector<std::vector<VertexId>> answers;
  // With EvalOptions::capture_assignment: the node assignment of the first
  // satisfying solution (indexed by NodeVarId; ~0u for variables the
  // solution never had to bind). Empty when unsatisfiable or not requested.
  std::vector<VertexId> first_assignment;
};

// The generic engine, called directly: the reference evaluator. Rejects an
// `engine` naming another engine.
Result<EvalResult> EvaluateGeneric(const GraphDb& db, const EcrpqQuery& query,
                                   const EvalOptions& options = {});

}  // namespace ecrpq

#endif  // ECRPQ_EVAL_GENERIC_EVAL_H_
