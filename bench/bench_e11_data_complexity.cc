// E11 — §3 of the paper: the *data* complexity of RPQ, CRPQ and ECRPQ is
// the same (NL-complete). Operationally: for any fixed query — whatever its
// regime for combined complexity — evaluation time scales as a low-degree
// polynomial in |D|, with the regime affecting only the constant.
#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "common/obs.h"
#include "common/rng.h"
#include "eval/generic_eval.h"
#include "workloads/db_gen.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

GraphDb Db(int width) {
  Rng rng(61 + bench::BaseSeed());
  return LayeredDag(&rng, 4, width, 2, 2);
}

void RunFixedQuery(benchmark::State& state, const EcrpqQuery& query) {
  const GraphDb db = Db(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    EvalResult result = EvaluateGeneric(db, query).ValueOrDie();
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = db.NumVertices();
  state.counters["n"] = db.NumVertices();  // Canonical size for --json.
  // One instrumented run outside the timing loop: export the engine metrics
  // so BENCH_*.json records the work profile alongside the timings.
  obs::Session session;
  EvalOptions options;
  options.obs = &session;
  EvaluateGeneric(db, query, options).ValueOrDie();
  const obs::StatsReport report = session.Report();
  state.counters["product_states_expanded"] = static_cast<double>(
      report[obs::CounterId::kProductStatesExpanded]);
  state.counters["reach_queries"] =
      static_cast<double>(report[obs::CounterId::kReachQueries]);
  state.counters["assignments_tried"] =
      static_cast<double>(report[obs::CounterId::kAssignmentsTried]);
  state.counters["visited_bytes"] =
      static_cast<double>(report[obs::CounterId::kVisitedBytes]);
  // Histogram summaries of the same instrumented run: the work-shape
  // percentiles are deterministic, the phase-time percentile is the one
  // noisy counter (bench_compare gives *_ns counters time-style slack).
  state.counters["frontier_size_p90"] = static_cast<double>(
      report.hist(obs::HistogramId::kFrontierSize).Percentile(0.90));
  state.counters["reach_set_size_p90"] = static_cast<double>(
      report.hist(obs::HistogramId::kReachSetSize).Percentile(0.90));
  state.counters["phase_bfs_ns_p90"] = static_cast<double>(
      report.hist(obs::HistogramId::kPhaseBfsNs).Percentile(0.90));
  // Work-stealing runtime metrics. The frontier occupancy profile is
  // deterministic; the steal counters depend on the schedule, so the sched_
  // prefix marks them informational for bench_compare (reported, never
  // gated).
  state.counters["frontier_occupancy_p90"] = static_cast<double>(
      report.hist(obs::HistogramId::kFrontierOccupancy).Percentile(0.90));
  state.counters["sched_steal_attempts"] =
      static_cast<double>(report[obs::CounterId::kStealAttempts]);
  state.counters["sched_steals_succeeded"] =
      static_cast<double>(report[obs::CounterId::kStealsSucceeded]);
}

void BM_DataTractableQuery(benchmark::State& state) {
  RunFixedQuery(state,
                ChainEqLenQuery(Alphabet::OfChars("ab"), 3).ValueOrDie());
}
void BM_DataNpRegimeQuery(benchmark::State& state) {
  RunFixedQuery(state,
                CliqueCrpqQuery(Alphabet::OfChars("ab"), 3, "a*").ValueOrDie());
}
void BM_DataPspaceRegimeQuery(benchmark::State& state) {
  RunFixedQuery(state,
                EqLenStarQuery(Alphabet::OfChars("ab"), 3).ValueOrDie());
}

BENCHMARK(BM_DataTractableQuery)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DataNpRegimeQuery)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DataPspaceRegimeQuery)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecrpq
