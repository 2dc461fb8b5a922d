// X5 (supplementary) — the cross-query caching layer: plan cache
// (eval/planner.h), automaton interner (automata/interner.h) and
// epoch-keyed reach memo (graphdb/reach_memo.h).
//
// The repeated-query workload measures four regimes on one chain CRPQ:
//   cold      every iteration starts from empty caches (ClearGlobalCaches),
//             so it pays classification (exact Held-Karp treewidth of the
//             14-variable node graph), NFA interning and all product BFS.
//   warm      the same query text again: every layer hits.
//   variant   an alpha-renamed copy of the text: CanonicalQueryKey and
//             CanonicalNfaBytes quotient the renaming away, so the variant
//             shares the original's entries — still all hits.
//   mutated   the graph is touched between evaluations (a duplicate edge,
//             so the answer set is unchanged). The epoch bump makes every
//             reach-memo entry unreachable — reach sets recompute — while
//             the plan cache, keyed on the query alone, keeps hitting.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "automata/interner.h"
#include "automata/regex.h"
#include "common/obs.h"
#include "common/rng.h"
#include "eval/planner.h"
#include "graphdb/graph_db.h"
#include "query/parser.h"

namespace ecrpq {
namespace {

// Node-variable chain length. Deliberately short: the treedec CQ engine
// re-runs the exact Held-Karp pass on its Gaifman graph every evaluation,
// so a long chain would put the same 2^n cost on the warm path (which the
// plan cache cannot amortize) as on the cold one. With a short chain both
// decompositions are trivial and the cold/warm gap isolates what the
// caches actually save: per-source product BFS and automaton work.
constexpr int kChainVars = 3;

// q() := p1 -[/(a|b)*b^8/]-> p2, ... — a Boolean chain CRPQ. The language
// is chosen for its BFS-work-per-answer-pair ratio: the (a|b)* prefix
// makes every per-source product sweep saturate the graph (expensive,
// and exactly what the reach memo amortizes), while the b^8 suffix is
// rare under BenchGraph's skewed symbol distribution, so the reach
// relations stay tiny and the warm path's per-evaluation floor — bag
// materialization and semijoins — stays in the noise.
// The variable prefix is the alpha-renaming knob: ChainText("x") and
// ChainText("y") are distinct texts with identical canonical keys.
std::string ChainText(const std::string& prefix) {
  std::string text = "q() := ";
  for (int i = 1; i < kChainVars; ++i) {
    if (i > 1) text += ", ";
    text += prefix + std::to_string(i) + " -[/(a|b)*bbbbbbbb/]-> " + prefix +
            std::to_string(i + 1);
  }
  return text;
}

GraphDb BenchGraph() {
  // A symbol-skewed random graph: ~2.5 a-edges per vertex (so the (a|b)*
  // sweep has plenty to chew on) but only ~0.5 b-edges (so b^8 paths, and
  // with them the materialized reach pairs, are rare). Large enough that
  // the cold per-source BFS sweep dominates everything else.
  constexpr int kVertices = 1024;
  Rng rng(71);
  GraphDb db(Alphabet::OfChars("ab"));
  db.AddVertices(kVertices);
  for (VertexId v = 0; v < kVertices; ++v) {
    const uint64_t a_degree = 2 + rng.Below(2);
    for (uint64_t e = 0; e < a_degree; ++e) {
      db.AddEdge(v, static_cast<Symbol>(0),
                 static_cast<VertexId>(rng.Below(kVertices)));
    }
    if (rng.Below(2) == 0) {
      db.AddEdge(v, static_cast<Symbol>(1),
                 static_cast<VertexId>(rng.Below(kVertices)));
    }
  }
  // Pin an edge the mutated-graph case re-adds: from iteration one on, the
  // AddEdge below it is a duplicate triple (epoch bumps, answers don't).
  db.AddEdge(0, static_cast<Symbol>(0), 1);
  return db;
}

// One instrumented evaluation after the timed loop: per-evaluation cache
// counters for the JSON export (cache_-prefixed => informational-only
// under tools/bench_compare, like sched_).
void ExportCacheCounters(benchmark::State& state, const GraphDb& db,
                         const EcrpqQuery& query) {
  obs::Session session;
  EvalOptions options;
  options.obs = &session;
  EvalResult result = EvaluatePlanned(db, query, options).ValueOrDie();
  benchmark::DoNotOptimize(result);
  const obs::StatsReport report = session.Report();
  state.counters["cache_hits"] =
      static_cast<double>(report[obs::CounterId::kCacheHits]);
  state.counters["cache_misses"] =
      static_cast<double>(report[obs::CounterId::kCacheMisses]);
  state.counters["cache_evictions"] =
      static_cast<double>(report[obs::CounterId::kCacheEvictions]);
}

void BM_QueryColdCache(benchmark::State& state) {
  const GraphDb db = BenchGraph();
  const EcrpqQuery query =
      ParseEcrpq(ChainText("x"), Alphabet::OfChars("ab")).ValueOrDie();
  for (auto _ : state) {
    ClearGlobalCaches();
    EvalResult result = EvaluatePlanned(db, query).ValueOrDie();
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = db.NumVertices();
  ClearGlobalCaches();
  ExportCacheCounters(state, db, query);
}
BENCHMARK(BM_QueryColdCache)->Unit(benchmark::kMillisecond);

void BM_QueryWarmCache(benchmark::State& state) {
  const GraphDb db = BenchGraph();
  const EcrpqQuery query =
      ParseEcrpq(ChainText("x"), Alphabet::OfChars("ab")).ValueOrDie();
  ClearGlobalCaches();
  EvaluatePlanned(db, query).ValueOrDie();  // Prime every layer.
  for (auto _ : state) {
    EvalResult result = EvaluatePlanned(db, query).ValueOrDie();
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = db.NumVertices();
  ExportCacheCounters(state, db, query);
}
BENCHMARK(BM_QueryWarmCache)->Unit(benchmark::kMillisecond);

void BM_QueryWarmVariantText(benchmark::State& state) {
  const GraphDb db = BenchGraph();
  const Alphabet alphabet = Alphabet::OfChars("ab");
  const EcrpqQuery primer = ParseEcrpq(ChainText("x"), alphabet).ValueOrDie();
  const EcrpqQuery variant = ParseEcrpq(ChainText("y"), alphabet).ValueOrDie();
  ClearGlobalCaches();
  EvaluatePlanned(db, primer).ValueOrDie();  // Prime with the OTHER text.
  for (auto _ : state) {
    EvalResult result = EvaluatePlanned(db, variant).ValueOrDie();
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = db.NumVertices();
  ExportCacheCounters(state, db, variant);
}
BENCHMARK(BM_QueryWarmVariantText)->Unit(benchmark::kMillisecond);

void BM_QueryMutatedGraph(benchmark::State& state) {
  GraphDb db = BenchGraph();
  const EcrpqQuery query =
      ParseEcrpq(ChainText("x"), Alphabet::OfChars("ab")).ValueOrDie();
  ClearGlobalCaches();
  EvaluatePlanned(db, query).ValueOrDie();
  for (auto _ : state) {
    // A duplicate triple: the graph (and answer set) is unchanged, but the
    // epoch bump invalidates every reach-memo entry by construction.
    db.AddEdge(0, static_cast<Symbol>(0), 1);
    EvalResult result = EvaluatePlanned(db, query).ValueOrDie();
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = db.NumVertices();
  ExportCacheCounters(state, db, query);
}
BENCHMARK(BM_QueryMutatedGraph)->Unit(benchmark::kMillisecond);

// The DFA leg of the interner, isolated: no evaluation path determinizes
// today, so the memo is exercised directly. Subset construction on
// (a|b)*a(a|b)^k is the textbook exponential case (2^k DFA states).
void RunDeterminize(benchmark::State& state, bool cold) {
  Alphabet alphabet = Alphabet::OfChars("ab");
  std::string pattern = "(a|b)*a";
  for (int i = 0; i < 10; ++i) pattern += "(a|b)";
  const Nfa nfa = CompileRegex(pattern, &alphabet).ValueOrDie();
  const std::vector<Label> universe = {0, 1};
  AutomatonInterner interner;
  InternedNfa interned = interner.Intern(nfa);
  if (!cold) interner.DeterminizeCached(interned, universe);
  for (auto _ : state) {
    if (cold) interner.Clear();
    if (cold) interned = interner.Intern(nfa);
    auto dfa = interner.DeterminizeCached(interned, universe);
    benchmark::DoNotOptimize(dfa);
  }
  state.counters["nfa_states"] = nfa.NumStates();
}

void BM_DeterminizeCold(benchmark::State& state) {
  RunDeterminize(state, true);
}
void BM_DeterminizeWarm(benchmark::State& state) {
  RunDeterminize(state, false);
}
BENCHMARK(BM_DeterminizeCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DeterminizeWarm)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecrpq
