// E7 — Lemma 4.3: the reduction to CQ materializes, per component, a
// relation over V^{2r} in O(|D|^{2·cc_vertex}) — we measure tuples and time
// against |D| for cc_vertex = 1 (CRPQ-like) and cc_vertex = 2 (Example 2.1).
#include <benchmark/benchmark.h>

#include "eval/reduce_to_cq.h"
#include "graphdb/generators.h"
#include "query/parser.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

void BM_ReduceCcv1(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GraphDb db = CycleGraph(n, "ab");
  const EcrpqQuery query =
      ParseEcrpq("q() := x -[/a(a|b)*/]-> y", db.alphabet()).ValueOrDie();
  // Every iteration builds R_L: with the reach memo on, all but the first
  // would read it from the memo.
  EvalOptions options;
  options.disable_cache = true;
  size_t tuples = 0;
  for (auto _ : state) {
    CqReduction reduction = ReduceToCq(db, query, options).ValueOrDie();
    tuples = reduction.db->TotalTuples();
    benchmark::DoNotOptimize(reduction);
  }
  state.counters["vertices"] = n;
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["cc_vertex"] = 1;
}
BENCHMARK(BM_ReduceCcv1)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Unit(benchmark::kMillisecond);

void BM_ReduceCcv2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GraphDb db = CycleGraph(n, "ab");
  const EcrpqQuery query =
      ExampleTwoOneQuery(db.alphabet()).ValueOrDie();
  size_t tuples = 0;
  size_t sources = 0;
  for (auto _ : state) {
    CqReduction reduction = ReduceToCq(db, query).ValueOrDie();
    tuples = reduction.db->TotalTuples();
    sources = reduction.source_tuples_enumerated;
    benchmark::DoNotOptimize(reduction);
  }
  state.counters["vertices"] = n;
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["source_tuples"] = static_cast<double>(sources);  // = n^2.
  state.counters["cc_vertex"] = 2;
}
BENCHMARK(BM_ReduceCcv2)
    ->RangeMultiplier(2)
    ->Range(4, 16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecrpq
