// E3 — Theorem 3.2(2): with cc bounded but treewidth unbounded, evaluation
// is NP-shaped — exponential in the query's treewidth, polynomial in |D|.
//
// Workload: CRPQ k-cliques (tw = k-1) with the tree-decomposition CQ engine
// (|D|^{O(tw)}); k-sweep at fixed |D|, |D|-sweep at fixed k.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "eval/planner.h"
#include "graphdb/generators.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

// The Corollary 2.4 pipeline: R_L materialization + tree-decomposition CQ.
EvalResult EvaluateCrpqPipeline(const GraphDb& db, const EcrpqQuery& query) {
  EvalOptions options;
  options.engine = EngineChoice::kCrpqPipeline;
  return EvaluatePlanned(db, query, options).ValueOrDie();
}

GraphDb DenseDb(int n) {
  Rng rng(11);
  return RandomGraph(&rng, n, 3.0, 2);
}

void BM_NpCliqueSize(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const GraphDb db = DenseDb(10);
  const EcrpqQuery query =
      CliqueCrpqQuery(Alphabet::OfChars("ab"), k, "a*").ValueOrDie();
  bool satisfiable = false;
  for (auto _ : state) {
    EvalResult result = EvaluateCrpqPipeline(db, query);
    satisfiable = result.satisfiable;
    benchmark::DoNotOptimize(result);
  }
  state.counters["treewidth"] = k - 1;
  state.counters["satisfiable"] = satisfiable ? 1 : 0;
}
BENCHMARK(BM_NpCliqueSize)->DenseRange(2, 6)->Unit(benchmark::kMillisecond);

void BM_NpDataScaling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GraphDb db = DenseDb(n);
  const EcrpqQuery query =
      CliqueCrpqQuery(Alphabet::OfChars("ab"), 3, "a*").ValueOrDie();
  for (auto _ : state) {
    EvalResult result = EvaluateCrpqPipeline(db, query);
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = n;
}
BENCHMARK(BM_NpDataScaling)
    ->RangeMultiplier(2)
    ->Range(8, 64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecrpq
