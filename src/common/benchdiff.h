// Noise-aware comparison of two BENCH_*.json files (the bench_main --json
// format) — the library behind tools/bench_compare and the CI perf gate.
//
// Threshold model:
//  - the time statistic is min-of-repeats (min_ns, falling back to
//    median_ns for baselines written before min_ns existed): the minimum is
//    the repetition least disturbed by scheduling noise, so it is the
//    stable lower envelope of the benchmark's true cost;
//  - a time regression fires only when the current value exceeds
//    baseline * (1 + time_rel_slack) + time_abs_slack_ns — the relative
//    term absorbs proportional jitter, the absolute term keeps
//    microsecond-scale benchmarks from tripping on constant-size noise;
//  - counters are compared per name with their own (tighter) slack, since
//    most are deterministic work counts; counters whose name ends in "_ns"
//    (histogram percentile exports such as phase_bfs_ns_p90) are wall-clock
//    valued and get the time slack instead; counters prefixed "sched_"
//    (work-stealing steal traffic), "cache_" (cross-run cache history),
//    "service_" (admission-control traffic) or "telemetry_" (event-log /
//    span-buffer traffic) are scheduling- or history-dependent by
//    design and are never compared at all;
//  - comparisons are skipped with a note (not a failure) when the records
//    are not comparable: build mode differs, threads differ, seed differs,
//    or a benchmark exists on only one side. Improvements never fail.
#ifndef ECRPQ_COMMON_BENCHDIFF_H_
#define ECRPQ_COMMON_BENCHDIFF_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace ecrpq {
namespace benchdiff {

// One benchmark's record from a BENCH_*.json array.
struct BenchRecord {
  std::string name;
  double n = 0;
  double median_ns = 0;
  // min-of-repeats; == median_ns when the file predates the min_ns field.
  double min_ns = 0;
  uint64_t repeats = 1;
  uint64_t seed = 0;
  uint64_t threads = 0;
  std::string build;
  std::vector<std::pair<std::string, double>> counters;
};

// Parses the --json output of bench_main. Unknown fields are ignored;
// missing optional fields get the defaults above.
Result<std::vector<BenchRecord>> ParseBenchJson(const std::string& text);

struct CompareOptions {
  // Time: fail when current > baseline * (1 + rel) + abs.
  // With rel = 0.40 and abs = 50us, a genuine 2x slowdown trips for any
  // benchmark above ~83us (2x > 1.4x + 50us <=> x > 83us), while
  // microsecond-scale benchmarks never fail on constant-size noise.
  double time_rel_slack = 0.40;
  double time_abs_slack_ns = 50000;  // 50us.
  // Non-time counters: fail when |current - baseline| >
  // baseline * rel + abs. Loose enough for pool-splitting nondeterminism
  // (memo splits make some work counters schedule-dependent), tight enough
  // to catch a 2x work blowup.
  double counter_rel_slack = 0.25;
  double counter_abs_slack = 64;
  // When false, counter mismatches are reported but time regressions alone
  // decide ok().
  bool check_counters = true;
};

struct Regression {
  std::string bench;   // Benchmark name.
  std::string metric;  // "min_ns" or a counter name.
  double baseline = 0;
  double current = 0;
  double limit = 0;    // The threshold the current value exceeded.
};

struct CompareReport {
  std::vector<Regression> regressions;
  std::vector<std::string> notes;  // Skipped/unmatched records, context.
  size_t compared = 0;             // Benchmarks actually compared.

  bool ok() const { return regressions.empty(); }
  std::string ToString() const;
};

CompareReport CompareBenchRecords(const std::vector<BenchRecord>& baseline,
                                  const std::vector<BenchRecord>& current,
                                  const CompareOptions& options);

}  // namespace benchdiff
}  // namespace ecrpq

#endif  // ECRPQ_COMMON_BENCHDIFF_H_
