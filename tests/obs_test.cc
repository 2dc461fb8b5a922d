// Unit tests for the ecrpq::obs layer (common/metrics.h, common/trace.h,
// common/obs.h): deterministic counter aggregation under a real thread
// pool, span nesting, trace JSON schema round-trip, budget trips on every
// axis with a readable partial report, and always-on death tests for the
// budget invariants (suite BudgetInvariantsDeathTest, kept out of the
// TSan ctest regex — fork-based death tests and TSan don't mix).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "eval/generic_eval.h"
#include "workloads/db_gen.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

using obs::CounterId;
using obs::CounterKind;

TEST(ObsTest, CounterVocabularyIsStable) {
  EXPECT_STREQ(obs::CounterName(CounterId::kProductStatesExpanded),
               "product_states_expanded");
  EXPECT_STREQ(obs::CounterName(CounterId::kFrontierPeak), "frontier_peak");
  EXPECT_STREQ(obs::CounterName(CounterId::kAnswersEmitted),
               "answers_emitted");
  EXPECT_STREQ(obs::CounterName(CounterId::kServiceAdmitted),
               "service_admitted");
  for (int i = 0; i < obs::kNumCounters; ++i) {
    const CounterId id = static_cast<CounterId>(i);
    EXPECT_NE(obs::CounterName(id), nullptr);
    // The peak (max-folded) counters: the BFS frontier high-water mark
    // and the service's concurrent-admissions high-water mark.
    EXPECT_EQ(obs::CounterKindOf(id) == CounterKind::kMax,
              id == CounterId::kFrontierPeak ||
                  id == CounterId::kServiceActivePeak)
        << obs::CounterName(id);
  }
}

// Hammer per-worker shards from a real 4-thread pool; the aggregate must
// equal the arithmetic total (sum counters) / maximum (peak counters) no
// matter how the scheduler interleaved the workers. Run under TSan via the
// dedicated ci.sh stage.
TEST(ObsTest, ShardAggregationDeterministicAcrossThreads) {
  constexpr size_t kWorkers = 8;
  constexpr uint64_t kAddsPerWorker = 10000;
  obs::Metrics metrics;
  std::vector<obs::MetricsShard*> shards(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) shards[w] = metrics.AcquireShard();

  ThreadPool pool(4);
  pool.ParallelFor(kWorkers, [&](size_t w) {
    for (uint64_t i = 0; i < kAddsPerWorker; ++i) {
      shards[w]->Add(CounterId::kProductStatesExpanded);
      shards[w]->Add(CounterId::kVisitedBytes, 3);
    }
    shards[w]->RecordMax(CounterId::kFrontierPeak, 100 * (w + 1));
  });

  const obs::StatsReport report = metrics.Aggregate();
  EXPECT_EQ(report[CounterId::kProductStatesExpanded],
            kWorkers * kAddsPerWorker);
  EXPECT_EQ(report[CounterId::kVisitedBytes], kWorkers * kAddsPerWorker * 3);
  EXPECT_EQ(report[CounterId::kFrontierPeak], 100 * kWorkers);
  EXPECT_EQ(report[CounterId::kMemoHits], 0u);
  // Aggregate() is a pure fold: calling it again gives the same report.
  EXPECT_EQ(metrics.Aggregate().values, report.values);
  EXPECT_EQ(metrics.Total(CounterId::kVisitedBytes),
            report[CounterId::kVisitedBytes]);
}

TEST(ObsTest, NullSafeHelpersAndSpansAreNoOps) {
  obs::Add(nullptr, CounterId::kProductStatesExpanded);
  obs::RecordMax(nullptr, CounterId::kFrontierPeak, 42);
  { obs::Span span(nullptr, "never recorded", 7); }
  // Reaching here without a crash is the assertion.
  SUCCEED();
}

TEST(ObsTest, StatsReportRendersEveryCounter) {
  obs::StatsReport report;
  report.at(CounterId::kProductStatesExpanded) = 123;
  const std::string text = report.ToString();
  EXPECT_NE(text.find("product_states_expanded"), std::string::npos);
  EXPECT_NE(text.find("123"), std::string::npos);
  const std::string json = report.ToJson();
  for (int i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_NE(json.find(obs::CounterName(static_cast<CounterId>(i))),
              std::string::npos)
        << json;
  }
}

TEST(ObsTest, SpanNestingIsRecordedWithContainment) {
  obs::Trace trace;
  {
    obs::Span outer(&trace, "outer");
    { obs::Span inner_a(&trace, "inner_a", 0); }
    { obs::Span inner_b(&trace, "inner_b", 1); }
  }
  ASSERT_EQ(trace.NumEvents(), 3u);
  const std::vector<obs::Trace::Event> events = trace.Events();
  // Events() sorts by start time: the outer span started first but is
  // recorded last (RAII), and must contain both inner spans.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner_a");
  EXPECT_STREQ(events[2].name, "inner_b");
  const uint64_t outer_end = events[0].start_ns + events[0].dur_ns;
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[0].start_ns);
    EXPECT_LE(events[i].start_ns + events[i].dur_ns, outer_end);
  }
  EXPECT_TRUE(events[1].has_arg);
  EXPECT_EQ(events[2].arg, 1u);
  // inner_a ended before inner_b started (sequential blocks).
  EXPECT_LE(events[1].start_ns + events[1].dur_ns, events[2].start_ns);
}

TEST(ObsTest, TraceJsonRoundTripValidates) {
  obs::Trace trace;
  {
    obs::Span outer(&trace, "phase \"quoted\"\\slash");  // Escaping path.
    obs::Span inner(&trace, "inner", 9);
  }
  const std::string json = trace.ToJson();
  EXPECT_TRUE(obs::ValidateTraceJson(json, /*min_events=*/2).ok())
      << obs::ValidateTraceJson(json, 2) << "\n"
      << json;
}

TEST(ObsTest, ValidateTraceJsonRejectsMalformedInput) {
  EXPECT_FALSE(obs::ValidateTraceJson("", 0).ok());
  EXPECT_FALSE(obs::ValidateTraceJson("not json", 0).ok());
  EXPECT_FALSE(obs::ValidateTraceJson("{}", 0).ok());
  EXPECT_FALSE(obs::ValidateTraceJson(R"({"traceEvents": 5})", 0).ok());
  EXPECT_FALSE(
      obs::ValidateTraceJson(R"({"traceEvents": [{"name": 1}]})", 0).ok());
  EXPECT_FALSE(obs::ValidateTraceJson(
                   R"({"traceEvents": [{"name": "x", "ph": "X")"
                   R"(, "ts": 0, "dur": 1, "pid": 0}]})",
                   0)
                   .ok())
      << "event missing tid must be rejected";
  // Well-formed empty trace: OK at min_events 0, rejected at 1.
  const std::string empty = obs::Trace().ToJson();
  EXPECT_TRUE(obs::ValidateTraceJson(empty, 0).ok());
  EXPECT_FALSE(obs::ValidateTraceJson(empty, 1).ok());
}

// A PSPACE-regime workload big enough that every budget axis below trips
// well before the evaluation finishes.
struct HardInstance {
  GraphDb db;
  EcrpqQuery query;
};

HardInstance MakeHardInstance() {
  Rng rng(7);
  // ~17k product states / tens of milliseconds even optimized: large
  // enough that the strided CheckBudget polls fire many times per axis.
  return HardInstance{
      LayeredDag(&rng, 6, 32, 3, 2),
      EqualityStarQuery(Alphabet::OfChars("ab"), 3).ValueOrDie()};
}

void ExpectBudgetTrip(const obs::EvalBudget& budget, const char* want_reason,
                      int threads) {
  const HardInstance inst = MakeHardInstance();
  obs::Session session;
  session.SetBudget(budget);
  EvalOptions options;
  options.num_threads = threads;
  options.obs = &session;
  Result<EvalResult> result = EvaluateGeneric(inst.db, inst.query, options);
  ASSERT_FALSE(result.ok()) << "budget did not trip (threads " << threads
                            << ")";
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
  EXPECT_TRUE(session.Exhausted());
  ASSERT_NE(session.exhausted_reason(), nullptr);
  EXPECT_STREQ(session.exhausted_reason(), want_reason);
  EXPECT_EQ(session.ExhaustedStatus().code(),
            StatusCode::kResourceExhausted);
  // The partial report is readable and reflects real work.
  const obs::StatsReport report = session.Report();
  EXPECT_GT(report[CounterId::kProductStatesExpanded], 0u)
      << report.ToString();
}

TEST(ObsTest, StateBudgetTripsSequentialWithPartialReport) {
  obs::EvalBudget budget;
  budget.max_product_states = 256;
  ExpectBudgetTrip(budget, "max_product_states", /*threads=*/1);
}

TEST(ObsTest, StateBudgetTripsParallelWithPartialReport) {
  obs::EvalBudget budget;
  budget.max_product_states = 256;
  ExpectBudgetTrip(budget, "max_product_states", /*threads=*/4);
}

TEST(ObsTest, MemoryBudgetTripsWithPartialReport) {
  obs::EvalBudget budget;
  budget.max_memory_bytes = 1024;
  ExpectBudgetTrip(budget, "max_memory_bytes", /*threads=*/1);
}

TEST(ObsTest, DeadlineBudgetTripsWithPartialReport) {
  obs::EvalBudget budget;
  budget.timeout_millis = 1;  // Far below this instance's runtime.
  ExpectBudgetTrip(budget, "deadline", /*threads=*/1);
}

TEST(ObsTest, UntrippedBudgetLeavesResultIntact) {
  const HardInstance inst = MakeHardInstance();
  Result<EvalResult> plain = EvaluateGeneric(inst.db, inst.query);
  ASSERT_TRUE(plain.ok()) << plain.status();

  obs::Session session;
  obs::EvalBudget budget;
  budget.max_product_states = 1ull << 40;  // Effectively unreachable.
  session.SetBudget(budget);
  EvalOptions options;
  options.obs = &session;
  Result<EvalResult> budgeted = EvaluateGeneric(inst.db, inst.query, options);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  EXPECT_EQ(plain->satisfiable, budgeted->satisfiable);
  EXPECT_EQ(plain->answers, budgeted->answers);
  EXPECT_FALSE(session.Exhausted());
  EXPECT_EQ(session.exhausted_reason(), nullptr);
  EXPECT_TRUE(session.ExhaustedStatus().ok());
}

TEST(ObsTest, CheckBudgetIsNoOpWhenUnarmed) {
  obs::Session session;
  EXPECT_FALSE(session.armed());
  EXPECT_FALSE(session.CheckBudget());
  EXPECT_FALSE(session.Exhausted());
}

TEST(ObsTest, DeadlineMayBeTightenedOnRearm) {
  obs::Session session;
  obs::EvalBudget budget;
  budget.timeout_millis = 60000;
  session.SetBudget(budget);
  budget.timeout_millis = 30000;  // Tightening is allowed...
  session.SetBudget(budget);      // ...and must not die.
  EXPECT_TRUE(session.armed());
  EXPECT_EQ(session.budget().timeout_millis, 30000);
}

// Budget invariants use always-on ECRPQ_CHECK (PR 1), so these die in
// every build mode.
TEST(BudgetInvariantsDeathTest, ArmingAllUnlimitedBudgetDies) {
  obs::Session session;
  EXPECT_DEATH(session.SetBudget(obs::EvalBudget{}), "CHECK failed");
}

TEST(BudgetInvariantsDeathTest, NegativeTimeoutDies) {
  obs::EvalBudget budget;
  budget.timeout_millis = -1;
  EXPECT_DEATH(budget.CheckInvariants(), "CHECK failed");
}

TEST(BudgetInvariantsDeathTest, LooseningDeadlineOnRearmDies) {
  obs::Session session;
  obs::EvalBudget budget;
  budget.timeout_millis = 1000;
  session.SetBudget(budget);
  obs::EvalBudget later = budget;
  later.timeout_millis = 600000;
  EXPECT_DEATH(session.SetBudget(later), "CHECK failed");
}

// ---------------------------------------------------------------------------
// Histograms (PR 5).

using obs::HistogramId;

TEST(ObsHistogramTest, VocabularyIsStable) {
  EXPECT_STREQ(obs::HistogramName(HistogramId::kPhaseBfsNs), "phase_bfs_ns");
  EXPECT_STREQ(obs::HistogramName(HistogramId::kFrontierSize),
               "frontier_size");
  EXPECT_STREQ(obs::HistogramName(HistogramId::kBagWidth), "bag_width");
  for (int i = 0; i < obs::kNumHistograms; ++i) {
    const HistogramId id = static_cast<HistogramId>(i);
    const std::string name = obs::HistogramName(id);
    EXPECT_FALSE(name.empty());
    // The kind is recoverable from the name: time histograms end in _ns.
    const bool name_is_time =
        name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
    EXPECT_EQ(obs::HistogramKindOf(id) == obs::HistogramKind::kTimeNs,
              name_is_time)
        << name;
  }
}

// Log2 bucketing edge cases: 0, 1, the powers of two and their neighbors,
// and the top of the uint64 range.
TEST(ObsHistogramTest, BucketBoundaries) {
  EXPECT_EQ(obs::HistogramBucketOf(0), 0);
  EXPECT_EQ(obs::HistogramBucketOf(1), 1);
  EXPECT_EQ(obs::HistogramBucketOf(2), 2);
  EXPECT_EQ(obs::HistogramBucketOf(3), 2);
  EXPECT_EQ(obs::HistogramBucketOf(4), 3);
  for (int k = 1; k < 64; ++k) {
    const uint64_t low = uint64_t{1} << (k - 1);
    const uint64_t high = (uint64_t{1} << k) - 1;
    EXPECT_EQ(obs::HistogramBucketOf(low), k);
    EXPECT_EQ(obs::HistogramBucketOf(high), k);
    EXPECT_EQ(obs::HistogramBucketUpperBound(k), high);
  }
  EXPECT_EQ(obs::HistogramBucketOf(~uint64_t{0}), 64);
  EXPECT_EQ(obs::HistogramBucketUpperBound(0), 0u);
  EXPECT_EQ(obs::HistogramBucketUpperBound(64), ~uint64_t{0});
  // Every bucket index is in range.
  EXPECT_LT(obs::HistogramBucketOf(~uint64_t{0}),
            obs::kNumHistogramBuckets);
}

TEST(ObsHistogramTest, RecordAndSummarize) {
  obs::Metrics metrics;
  obs::MetricsShard* shard = metrics.AcquireShard();
  // 0 and 1 land in distinct buckets; the max value is exact.
  shard->Record(HistogramId::kFrontierSize, 0);
  shard->Record(HistogramId::kFrontierSize, 1);
  for (int i = 0; i < 98; ++i) shard->Record(HistogramId::kFrontierSize, 5);
  shard->Record(HistogramId::kFrontierSize, ~uint64_t{0});

  const obs::StatsReport report = metrics.Aggregate();
  const obs::HistogramData& h = report.hist(HistogramId::kFrontierSize);
  EXPECT_EQ(h.Count(), 101u);
  EXPECT_EQ(h.max, ~uint64_t{0});
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[3], 98u);  // 5 -> [4,7].
  EXPECT_EQ(h.buckets[64], 1u);
  // p50/p90 fall in the 98-sample bucket; its upper bound (7) stands in.
  EXPECT_EQ(h.Percentile(0.50), 7u);
  EXPECT_EQ(h.Percentile(0.90), 7u);
  // p100 == exact max; the top-bucket representative is clamped to it.
  EXPECT_EQ(h.Percentile(1.0), ~uint64_t{0});
  // Empty histograms summarize to zero.
  EXPECT_TRUE(report.hist(HistogramId::kBagWidth).Empty());
  EXPECT_EQ(report.hist(HistogramId::kBagWidth).Percentile(0.5), 0u);
}

// The fold is a sum of bucket counts / max of maxima, so any partition of
// the same samples across shards — and any concurrent recording order —
// aggregates identically (associativity + commutativity).
TEST(ObsHistogramTest, FoldIsPartitionAndOrderInvariant) {
  // Reference: everything in one shard, sequentially.
  obs::Metrics reference;
  obs::MetricsShard* ref_shard = reference.AcquireShard();
  for (uint64_t v = 0; v < 4000; ++v) {
    ref_shard->Record(HistogramId::kReachSetSize, v % 97);
  }
  const obs::StatsReport want = reference.Aggregate();

  // Same multiset partitioned over 8 shards, recorded from a 4-thread pool.
  obs::Metrics metrics;
  std::vector<obs::MetricsShard*> shards(8);
  for (size_t w = 0; w < shards.size(); ++w) {
    shards[w] = metrics.AcquireShard();
  }
  ThreadPool pool(4);
  pool.ParallelFor(shards.size(), [&](size_t w) {
    for (uint64_t v = w; v < 4000; v += shards.size()) {
      shards[w]->Record(HistogramId::kReachSetSize, v % 97);
    }
  });
  const obs::StatsReport got = metrics.Aggregate();

  const obs::HistogramData& a = want.hist(HistogramId::kReachSetSize);
  const obs::HistogramData& b = got.hist(HistogramId::kReachSetSize);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.Percentile(0.5), b.Percentile(0.5));
}

TEST(ObsHistogramTest, StatsReportToStringIncludesSummaries) {
  obs::Metrics metrics;
  obs::MetricsShard* shard = metrics.AcquireShard();
  shard->Record(HistogramId::kBagWidth, 3);
  const std::string text = metrics.Aggregate().ToString();
  EXPECT_NE(text.find("bag_width"), std::string::npos);
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
  // Histograms nothing recorded into stay silent.
  EXPECT_EQ(text.find("phase_bfs_ns"), std::string::npos);
}

// ToJson -> parse round trip: every counter and every non-empty histogram
// summary survives, with the sparse bucket encoding intact.
TEST(ObsHistogramTest, StatsReportJsonRoundTrips) {
  obs::Metrics metrics;
  obs::MetricsShard* shard = metrics.AcquireShard();
  shard->Add(CounterId::kReachQueries, 17);
  shard->Record(HistogramId::kFrontierSize, 0);
  shard->Record(HistogramId::kFrontierSize, 6);
  shard->Record(HistogramId::kFrontierSize, 6);
  const obs::StatsReport report = metrics.Aggregate();

  Result<json::Value> doc = json::Parse(report.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  const json::Value* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  uint64_t reach_queries = 0;
  EXPECT_TRUE(counters->GetUint64("reach_queries", &reach_queries));
  EXPECT_EQ(reach_queries, 17u);

  const json::Value* hists = doc->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* frontier = hists->Find("frontier_size");
  ASSERT_NE(frontier, nullptr);
  uint64_t count = 0, sum = 0, max = 0, p50 = 0;
  EXPECT_TRUE(frontier->GetUint64("count", &count));
  EXPECT_TRUE(frontier->GetUint64("sum", &sum));
  EXPECT_TRUE(frontier->GetUint64("max", &max));
  EXPECT_TRUE(frontier->GetUint64("p50", &p50));
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(sum, 12u);
  EXPECT_EQ(max, 6u);
  EXPECT_EQ(p50, 6u);  // Clamped to the exact max inside bucket [4,7].
  const json::Value* buckets = frontier->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  // Sparse pairs: [0, 1] and [3, 2].
  ASSERT_EQ(buckets->AsArray().size(), 2u);
  EXPECT_EQ(buckets->AsArray()[0].AsArray()[0].AsUint64(), 0u);
  EXPECT_EQ(buckets->AsArray()[0].AsArray()[1].AsUint64(), 1u);
  EXPECT_EQ(buckets->AsArray()[1].AsArray()[0].AsUint64(), 3u);
  EXPECT_EQ(buckets->AsArray()[1].AsArray()[1].AsUint64(), 2u);
  // Empty histograms are omitted entirely.
  EXPECT_EQ(hists->Find("bag_width"), nullptr);
}

// An instrumented end-to-end evaluation populates the phase and size
// histograms the engines on that code path own.
TEST(ObsHistogramTest, EvaluationPopulatesHistograms) {
  Rng rng(5);
  const GraphDb db = LayeredDag(&rng, 3, 3, 2, 2);
  Result<EcrpqQuery> query = ChainEqLenQuery(Alphabet::OfChars("ab"), 2);
  ASSERT_TRUE(query.ok()) << query.status();

  obs::Session session;
  EvalOptions options;
  options.obs = &session;
  Result<EvalResult> result = EvaluateGeneric(db, *query, options);
  ASSERT_TRUE(result.ok()) << result.status();

  const obs::StatsReport report = session.Report();
  EXPECT_FALSE(report.hist(HistogramId::kFrontierOccupancy).Empty());
  EXPECT_FALSE(report.hist(HistogramId::kPhaseBfsNs).Empty());
  EXPECT_FALSE(report.hist(HistogramId::kPhaseNfaBuildNs).Empty());
  // Every sweep level expanded at least one state, so occupancies are >= 1.
  EXPECT_EQ(report.hist(HistogramId::kFrontierOccupancy).buckets[0], 0u);
}

// ---------------------------------------------------------------------------
// Phase profiles (PR 5).

TEST(PhaseProfileTest, SelfTimesTelescopeOnSingleThreadTrace) {
  obs::Trace trace;
  // outer [0, 1000) with children [100, 400) and [500, 900); the middle
  // child has its own nested [150, 250).
  trace.Record("child_a", 0, 100, 300);
  trace.Record("nested", 0, 150, 100);
  trace.Record("child_b", 0, 500, 400);
  trace.Record("outer", 0, 0, 1000);

  const obs::PhaseProfile profile = obs::BuildPhaseProfile(trace);
  EXPECT_EQ(profile.span_ns, 1000u);
  ASSERT_EQ(profile.per_thread.size(), 1u);

  uint64_t outer_self = 0, child_a_self = 0;
  for (const obs::PhaseStats& p : profile.folded) {
    if (p.name == "outer") {
      EXPECT_EQ(p.count, 1u);
      EXPECT_EQ(p.total_ns, 1000u);
      outer_self = p.self_ns;
    }
    if (p.name == "child_a") {
      EXPECT_EQ(p.total_ns, 300u);
      child_a_self = p.self_ns;
    }
  }
  EXPECT_EQ(outer_self, 300u);    // 1000 - 300 - 400.
  EXPECT_EQ(child_a_self, 200u);  // 300 - 100.
  // The telescoping invariant: self times sum to the root span's duration.
  EXPECT_EQ(profile.TotalSelfNs(), 1000u);

  const std::string text = profile.ToString();
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("self-time coverage"), std::string::npos);
}

TEST(PhaseProfileTest, PerThreadSectionsAreIndependent) {
  obs::Trace trace;
  trace.Record("work", 0, 0, 100);
  trace.Record("work", 1, 0, 100);  // Concurrent, different thread: no nest.
  const obs::PhaseProfile profile = obs::BuildPhaseProfile(trace);
  ASSERT_EQ(profile.per_thread.size(), 2u);
  ASSERT_EQ(profile.folded.size(), 1u);
  EXPECT_EQ(profile.folded[0].count, 2u);
  EXPECT_EQ(profile.folded[0].total_ns, 200u);
  EXPECT_EQ(profile.folded[0].self_ns, 200u);  // Cross-thread: both self.
  EXPECT_EQ(profile.span_ns, 100u);
}

TEST(PhaseProfileTest, SessionProfileCoversTracedEvaluation) {
  Rng rng(7);
  const GraphDb db = LayeredDag(&rng, 3, 3, 2, 2);
  Result<EcrpqQuery> query = ChainEqLenQuery(Alphabet::OfChars("ab"), 2);
  ASSERT_TRUE(query.ok()) << query.status();

  obs::Session session;
  session.EnableTrace();
  EvalOptions options;
  options.obs = &session;
  options.num_threads = 1;  // Single thread: spans nest, self telescopes.
  Result<EvalResult> result = EvaluateGeneric(db, *query, options);
  ASSERT_TRUE(result.ok()) << result.status();

  const obs::PhaseProfile profile = session.PhaseProfile();
  ASSERT_FALSE(profile.folded.empty());
  ASSERT_GT(profile.span_ns, 0u);
  // Single-threaded nesting: self times telescope to (at most) the traced
  // wall span; on this engine the root span covers everything, so coverage
  // is exact up to span bookkeeping.
  EXPECT_LE(profile.TotalSelfNs(), profile.span_ns);
  EXPECT_GE(profile.TotalSelfNs(), profile.span_ns * 95 / 100);
}

}  // namespace
}  // namespace ecrpq
