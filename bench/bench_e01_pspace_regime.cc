// E1 — Theorem 3.2(1) / Prop. 2.2: with cc_vertex unbounded, evaluation cost
// explodes in the query (PSPACE-shaped), while data scaling at fixed query
// stays polynomial.
//
// Workload: eq-len k-stars (cc_vertex = k) on a layered DAG.
//  * Star/k sweep: product-state counts grow exponentially in k.
//  * Data/n sweep at k = 2: polynomial in |D|.
#include <benchmark/benchmark.h>

#include "common/obs.h"
#include "common/rng.h"
#include "eval/generic_eval.h"
#include "workloads/db_gen.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

// Product states one evaluation expands, from an instrumented run outside
// the timing loop.
double ProductStates(const GraphDb& db, const EcrpqQuery& query) {
  obs::Session session;
  EvalOptions options;
  options.obs = &session;
  EvaluateGeneric(db, query, options).ValueOrDie();
  return static_cast<double>(
      session.Report()[obs::CounterId::kProductStatesExpanded]);
}

void BM_PspaceStarWidth(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(7);
  const GraphDb db = LayeredDag(&rng, 4, 4, 2, 2);
  const EcrpqQuery query =
      EqLenStarQuery(Alphabet::OfChars("ab"), k).ValueOrDie();
  bool satisfiable = false;
  for (auto _ : state) {
    EvalResult result = EvaluateGeneric(db, query).ValueOrDie();
    satisfiable = result.satisfiable;
    benchmark::DoNotOptimize(result);
  }
  state.counters["cc_vertex"] = k;
  state.counters["product_states"] = ProductStates(db, query);
  state.counters["satisfiable"] = satisfiable ? 1 : 0;
}
BENCHMARK(BM_PspaceStarWidth)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

void BM_PspaceDataScaling(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  Rng rng(8);
  const GraphDb db = LayeredDag(&rng, 4, width, 2, 2);
  const EcrpqQuery query =
      EqLenStarQuery(Alphabet::OfChars("ab"), 2).ValueOrDie();
  for (auto _ : state) {
    EvalResult result = EvaluateGeneric(db, query).ValueOrDie();
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = db.NumVertices();
  state.counters["product_states"] = ProductStates(db, query);
}
BENCHMARK(BM_PspaceDataScaling)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecrpq
