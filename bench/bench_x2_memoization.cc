// X2 (supplementary) — ablation of per-source-tuple memoization in the
// component searches. The generic evaluator revisits the same source tuples
// across backtracking branches; memoization turns the repeated product BFS
// into a hash lookup.
#include <benchmark/benchmark.h>

#include "common/obs.h"
#include "common/rng.h"
#include "eval/generic_eval.h"
#include "query/parser.h"
#include "workloads/db_gen.h"

namespace ecrpq {
namespace {

// A query whose second component re-derives the same sources repeatedly:
// two eq-len pairs sharing the middle variable.
EcrpqQuery SharedMiddleQuery() {
  return ParseEcrpq(
             "q(x, z) := x -[p1]-> y, x -[p2]-> y, y -[p3]-> z, y -[p4]-> z,"
             " eqlen(p1, p2), eqlen(p3, p4)",
             Alphabet::OfChars("ab"))
      .ValueOrDie();
}

void RunAblation(benchmark::State& state, bool disable_memo) {
  Rng rng(81);
  const GraphDb db = LayeredDag(&rng, 4, static_cast<int>(state.range(0)),
                                2, 2);
  const EcrpqQuery query = SharedMiddleQuery();
  EvalOptions options;
  options.disable_memo = disable_memo;
  // Per-evaluation product states and memo effectiveness, from a fresh
  // session each iteration so the export is a per-evaluation figure, not a
  // running total.
  uint64_t product_states = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  for (auto _ : state) {
    obs::Session session;
    options.obs = &session;
    EvalResult result = EvaluateGeneric(db, query, options).ValueOrDie();
    const obs::StatsReport report = session.Report();
    product_states = report[obs::CounterId::kProductStatesExpanded];
    memo_hits = report[obs::CounterId::kMemoHits];
    memo_misses = report[obs::CounterId::kMemoMisses];
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = db.NumVertices();
  state.counters["product_states"] = static_cast<double>(product_states);
  // cache_-prefixed: informational-only under tools/bench_compare (memo
  // effectiveness is reported, never gated).
  state.counters["cache_memo_hits"] = static_cast<double>(memo_hits);
  state.counters["cache_memo_misses"] = static_cast<double>(memo_misses);
}

void BM_WithMemo(benchmark::State& state) { RunAblation(state, false); }
void BM_WithoutMemo(benchmark::State& state) { RunAblation(state, true); }

BENCHMARK(BM_WithMemo)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WithoutMemo)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecrpq
