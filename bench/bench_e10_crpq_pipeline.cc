// E10 — Corollary 2.4: CRPQ evaluation reduces to CQ evaluation through the
// polynomial R_L materialization (product BFS). We measure (a) R_L build
// cost scaling in |D| and |Q|, and (b) the CRPQ fast path vs the generic
// product evaluator on the same CRPQs.
#include <benchmark/benchmark.h>

#include "automata/regex.h"
#include "common/rng.h"
#include "eval/planner.h"
#include "graphdb/generators.h"
#include "graphdb/rpq_reach.h"
#include "query/parser.h"

namespace ecrpq {
namespace {

void BM_RpqReachAllDataScaling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(51);
  const GraphDb db = RandomGraph(&rng, n, 2.5, 2);
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = CompileRegex("a(a|b)*b", &alphabet).ValueOrDie();
  size_t pairs = 0;
  for (auto _ : state) {
    auto relation = RpqReachAll(db, lang);
    pairs = relation->size() / 2;  // Row-major (u, v) pairs.
    benchmark::DoNotOptimize(relation);
  }
  state.counters["vertices"] = n;
  state.counters["pairs"] = static_cast<double>(pairs);
}
BENCHMARK(BM_RpqReachAllDataScaling)
    ->RangeMultiplier(2)
    ->Range(16, 256)
    ->Unit(benchmark::kMillisecond);

void BM_RpqReachAllAutomatonScaling(benchmark::State& state) {
  const int reps = static_cast<int>(state.range(0));
  Rng rng(52);
  const GraphDb db = RandomGraph(&rng, 64, 2.5, 2);
  // (ab)^reps (a|b)* — automaton size grows linearly with reps.
  std::string pattern;
  for (int i = 0; i < reps; ++i) pattern += "ab";
  pattern += "(a|b)*";
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = CompileRegex(pattern, &alphabet).ValueOrDie();
  for (auto _ : state) {
    auto relation = RpqReachAll(db, lang);
    benchmark::DoNotOptimize(relation);
  }
  state.counters["nfa_states"] = lang.NumStates();
}
BENCHMARK(BM_RpqReachAllAutomatonScaling)
    ->DenseRange(1, 9, 2)
    ->Unit(benchmark::kMillisecond);

void RunChainCrpq(benchmark::State& state, bool fast_path) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(53);
  const GraphDb db = RandomGraph(&rng, n, 2.5, 2);
  const EcrpqQuery query =
      ParseEcrpq("q() := x -[/a*b/]-> y, y -[/b*a/]-> z, z -[/(ab)*/]-> w",
                 Alphabet::OfChars("ab"))
          .ValueOrDie();
  EvalOptions options;
  options.engine =
      fast_path ? EngineChoice::kCrpqPipeline : EngineChoice::kGeneric;
  // Every iteration builds its relations: with the reach memo on, all but
  // the first would read R_L from the memo instead of materializing it.
  options.disable_cache = true;
  for (auto _ : state) {
    EvalResult result = EvaluatePlanned(db, query, options).ValueOrDie();
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = n;
}

void BM_CrpqFastPath(benchmark::State& state) { RunChainCrpq(state, true); }
void BM_CrpqViaGeneric(benchmark::State& state) { RunChainCrpq(state, false); }

BENCHMARK(BM_CrpqFastPath)
    ->RangeMultiplier(2)
    ->Range(8, 64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CrpqViaGeneric)
    ->RangeMultiplier(2)
    ->Range(8, 64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecrpq
