// E12 — Ablation of the characterization-as-planner: routing queries to the
// engine their regime prescribes vs forcing one engine for everything.
//
// Workload: a mixed batch (tractable chain, NP-regime clique, PSPACE-regime
// star) on a shared database. Expectation: the planner tracks the best
// engine per class; one-size-fits-all loses somewhere.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "eval/adaptive.h"
#include "eval/planner.h"
#include "workloads/db_gen.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

std::vector<EcrpqQuery> MixedBatch() {
  const Alphabet alphabet = Alphabet::OfChars("ab");
  std::vector<EcrpqQuery> batch;
  batch.push_back(ChainEqLenQuery(alphabet, 4).ValueOrDie());
  batch.push_back(CliqueCrpqQuery(alphabet, 3, "a*").ValueOrDie());
  batch.push_back(EqLenStarQuery(alphabet, 2).ValueOrDie());
  return batch;
}

GraphDb Db() {
  Rng rng(71);
  return LayeredDag(&rng, 4, 5, 2, 2);
}

void BM_PlannerRouted(benchmark::State& state) {
  const GraphDb db = Db();
  const std::vector<EcrpqQuery> batch = MixedBatch();
  for (auto _ : state) {
    for (const EcrpqQuery& q : batch) {
      EvalResult result = EvaluatePlanned(db, q).ValueOrDie();
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_PlannerRouted)->Unit(benchmark::kMillisecond);

void BM_ForcedGeneric(benchmark::State& state) {
  const GraphDb db = Db();
  const std::vector<EcrpqQuery> batch = MixedBatch();
  for (auto _ : state) {
    for (const EcrpqQuery& q : batch) {
      EvalResult result = EvaluateGeneric(db, q).ValueOrDie();
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_ForcedGeneric)->Unit(benchmark::kMillisecond);

void BM_ForcedCqReduction(benchmark::State& state) {
  const GraphDb db = Db();
  const std::vector<EcrpqQuery> batch = MixedBatch();
  EvalOptions options;
  options.engine = EngineChoice::kCqReduction;
  for (auto _ : state) {
    for (const EcrpqQuery& q : batch) {
      EvalResult result = EvaluatePlanned(db, q, options).ValueOrDie();
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_ForcedCqReduction)->Unit(benchmark::kMillisecond);

void BM_AdaptiveEngine(benchmark::State& state) {
  const GraphDb db = Db();
  const std::vector<EcrpqQuery> batch = MixedBatch();
  size_t fallbacks = 0;
  for (auto _ : state) {
    for (const EcrpqQuery& q : batch) {
      AdaptiveReport report;
      EvalResult result = EvaluateAdaptive(db, q, {}, &report).ValueOrDie();
      fallbacks += report.fell_back ? 1 : 0;
      benchmark::DoNotOptimize(result);
    }
  }
  state.counters["fallbacks"] = static_cast<double>(fallbacks);
}
BENCHMARK(BM_AdaptiveEngine)->Unit(benchmark::kMillisecond);

// Per-query breakdown so the crossover is visible in the series.
void BM_PerQueryPlannerVsGeneric(benchmark::State& state) {
  const GraphDb db = Db();
  const std::vector<EcrpqQuery> batch = MixedBatch();
  const size_t index = static_cast<size_t>(state.range(0));
  const bool routed = state.range(1) != 0;
  const EcrpqQuery& q = batch[index];
  for (auto _ : state) {
    EvalResult result =
        (routed ? EvaluatePlanned(db, q) : EvaluateGeneric(db, q))
            .ValueOrDie();
    benchmark::DoNotOptimize(result);
  }
  state.counters["query_index"] = static_cast<double>(index);
  state.counters["routed"] = routed ? 1 : 0;
}
BENCHMARK(BM_PerQueryPlannerVsGeneric)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecrpq
