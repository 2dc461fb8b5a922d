// DifferentialSuite: randomized differential testing of the observability &
// resource-governance layer against the naive oracle.
//
// Three properties, each over many seeded random instances:
//  - attaching an obs::Session (metrics + tracing, no budget) never changes
//    answers, for 1 and 4 worker threads, including the streamed on_answer
//    callback sequence;
//  - the CQ-reduction pipeline under observation still matches the oracle;
//  - a tight budget yields either the exact un-budgeted result or a clean
//    Status::ResourceExhausted with a populated partial StatsReport — never
//    a third behavior, a crash, or a hang — on every engine and adaptive.
//
//  - the pipeline's size-histogram bucket counts are identical at 1 and 4
//    worker threads (its work set is pool-size-independent).
//
// Five parameterized tests x 125 seeds = 625 random instances per run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/obs.h"
#include "common/rng.h"
#include "eval/adaptive.h"
#include "eval/generic_eval.h"
#include "eval/naive_eval.h"
#include "eval/planner.h"
#include "graphdb/generators.h"
#include "query/builder.h"
#include "synchro/builders.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

std::shared_ptr<const SyncRelation> Shared(Result<SyncRelation> r) {
  EXPECT_TRUE(r.ok()) << r.status();
  return std::make_shared<const SyncRelation>(std::move(r).ValueOrDie());
}

// Same instance family as eval_differential_test.cc: 2-4 node vars, 2-4
// path atoms, binary relations drawn from {eqlen, eq, prefix, hamming1}.
Result<EcrpqQuery> RandomEcrpq(Rng* rng) {
  EcrpqBuilder builder(kAb);
  const int num_nodes = 2 + static_cast<int>(rng->Below(3));
  std::vector<NodeVarId> nodes;
  for (int i = 0; i < num_nodes; ++i) {
    nodes.push_back(builder.NodeVar("x" + std::to_string(i)));
  }
  const int num_paths = 2 + static_cast<int>(rng->Below(3));
  std::vector<PathVarId> paths;
  for (int i = 0; i < num_paths; ++i) {
    const PathVarId p = builder.PathVar("p" + std::to_string(i));
    builder.Reach(nodes[rng->Below(num_nodes)], p,
                  nodes[rng->Below(num_nodes)]);
    paths.push_back(p);
  }
  const int num_rel_atoms = 1 + static_cast<int>(rng->Below(2));
  for (int i = 0; i < num_rel_atoms; ++i) {
    const PathVarId a = paths[rng->Below(num_paths)];
    PathVarId b = paths[rng->Below(num_paths)];
    if (b == a) b = paths[(std::find(paths.begin(), paths.end(), a) -
                           paths.begin() + 1) %
                          num_paths];
    if (a == b) {
      builder.Relate(Shared(EqualLengthRelation(kAb, 1)), {a}, "any");
      continue;
    }
    switch (rng->Below(4)) {
      case 0:
        builder.Relate(Shared(EqualLengthRelation(kAb, 2)), {a, b}, "eqlen");
        break;
      case 1:
        builder.Relate(Shared(EqualityRelation(kAb, 2)), {a, b}, "eq");
        break;
      case 2:
        builder.Relate(Shared(PrefixRelation(kAb)), {a, b}, "prefix");
        break;
      default:
        builder.Relate(Shared(HammingAtMostRelation(kAb, 1)), {a, b},
                       "hamming1");
        break;
    }
  }
  if (rng->Chance(0.5)) builder.Free({nodes[0]});
  return builder.Build();
}

GraphDb RandomSmallDb(Rng* rng) {
  const int n = 2 + static_cast<int>(rng->Below(3));  // 2-4 vertices.
  GraphDb db(kAb);
  db.AddVertices(n);
  const int edges = 2 + static_cast<int>(rng->Below(2 * n));
  for (int e = 0; e < edges; ++e) {
    db.AddEdge(static_cast<VertexId>(rng->Below(n)),
               static_cast<Symbol>(rng->Below(2)),
               static_cast<VertexId>(rng->Below(n)));
  }
  return db;
}

class DifferentialSuite : public ::testing::TestWithParam<uint64_t> {};

// Observability attached (metrics + trace, no budget) at 1 and 4 threads:
// answers and the streamed callback sequence are byte-identical to the
// plain run, which itself matches the oracle.
TEST_P(DifferentialSuite, ObsOnOffAgreesWithOracle) {
  Rng rng(GetParam());
  Result<EcrpqQuery> q = RandomEcrpq(&rng);
  ASSERT_TRUE(q.ok()) << q.status();
  const GraphDb db = RandomSmallDb(&rng);

  Result<EvalResult> naive = EvaluateNaive(db, *q);
  ASSERT_TRUE(naive.ok()) << naive.status();

  auto run = [&](obs::Session* session,
                 int threads) -> std::pair<EvalResult,
                                           std::vector<std::vector<VertexId>>> {
    std::vector<std::vector<VertexId>> streamed;
    EvalOptions options;
    options.num_threads = threads;
    options.obs = session;
    options.on_answer = [&](const std::vector<VertexId>& answer) {
      streamed.push_back(answer);
      return true;
    };
    Result<EvalResult> result = EvaluateGeneric(db, *q, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return {std::move(result).ValueOrDie(), std::move(streamed)};
  };

  const auto [plain, plain_stream] = run(nullptr, 1);
  ASSERT_EQ(naive->answers, plain.answers)
      << "seed " << GetParam() << "\nquery: " << q->ToString();

  for (int threads : {1, 4}) {
    obs::Session session;
    session.EnableTrace();
    const auto [observed, observed_stream] = run(&session, threads);
    ASSERT_EQ(plain.satisfiable, observed.satisfiable)
        << "seed " << GetParam() << " threads " << threads;
    ASSERT_EQ(plain.answers, observed.answers)
        << "seed " << GetParam() << " threads " << threads
        << "\nquery: " << q->ToString();
    ASSERT_EQ(plain_stream, observed_stream)
        << "seed " << GetParam() << " threads " << threads;
    // Observation observed something whenever there was work to do.
    if (!q->reach_atoms().empty()) {
      const obs::StatsReport report = session.Report();
      EXPECT_GT(report[obs::CounterId::kReachQueries], 0u)
          << "seed " << GetParam() << " threads " << threads;
      // Histograms are always on with a session attached; a run that
      // issued reach queries sampled sweep phase times and per-level
      // frontier occupancy — and recording them must not have perturbed
      // the answers above.
      EXPECT_FALSE(report.hist(obs::HistogramId::kPhaseBfsNs).Empty())
          << "seed " << GetParam() << " threads " << threads;
      EXPECT_FALSE(report.hist(obs::HistogramId::kFrontierOccupancy).Empty())
          << "seed " << GetParam() << " threads " << threads;
    }
    EXPECT_GT(session.trace()->NumEvents(), 0u);
  }
}

// The Lemma 4.3 pipeline under observation matches the oracle, and the
// session sees the materialization work.
TEST_P(DifferentialSuite, PipelineWithObsAgreesWithOracle) {
  Rng rng(GetParam() + 10000);
  Result<EcrpqQuery> q = RandomEcrpq(&rng);
  ASSERT_TRUE(q.ok()) << q.status();
  const GraphDb db = RandomSmallDb(&rng);

  Result<EvalResult> naive = EvaluateNaive(db, *q);
  ASSERT_TRUE(naive.ok()) << naive.status();

  obs::Session session;
  EvalOptions options;
  options.engine = EngineChoice::kCqReduction;
  options.obs = &session;
  Result<EvalResult> piped = EvaluatePlanned(db, *q, options);
  ASSERT_TRUE(piped.ok()) << piped.status();
  ASSERT_EQ(naive->satisfiable, piped->satisfiable)
      << "seed " << GetParam() << "\nquery: " << q->ToString();
  ASSERT_EQ(naive->answers, piped->answers)
      << "seed " << GetParam() << "\nquery: " << q->ToString();
  EXPECT_GT(session.Report()[obs::CounterId::kProductStatesExpanded], 0u);
}

// Shared tight-budget property: every engine either agrees exactly with
// the oracle (budget never tripped) or fails with a clean
// ResourceExhausted whose session still serves a populated partial
// StatsReport. The engines: generic, cq and cq-np on a random ECRPQ, crpq
// on a random CRPQ, all through EvaluatePlanned, and EvaluateAdaptive,
// whose phase-1 budget is far above the caller's cap, so it must never
// fall back: a trip of the caller's budget ends the evaluation.
void CheckTightBudget(uint64_t seed, int threads) {
  Rng rng(seed);
  Result<EcrpqQuery> q = RandomEcrpq(&rng);
  ASSERT_TRUE(q.ok()) << q.status();
  const GraphDb db = RandomSmallDb(&rng);
  Result<EcrpqQuery> crpq = RandomCrpqQuery(&rng, kAb, 3, 3);
  ASSERT_TRUE(crpq.ok()) << crpq.status();

  obs::EvalBudget budget;
  budget.max_product_states = 1 + seed % 16;  // Tight: trips often.

  auto check = [&](const std::string& engine, const EcrpqQuery& query,
                   auto&& run) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                 std::to_string(threads) + " engine " + engine +
                 "\nquery: " + query.ToString());
    Result<EvalResult> naive = EvaluateNaive(db, query);
    ASSERT_TRUE(naive.ok()) << naive.status();
    obs::Session session;
    session.SetBudget(budget);
    EvalOptions options;
    options.num_threads = threads;
    options.obs = &session;
    Result<EvalResult> result = run(options);
    if (result.ok()) {
      ASSERT_EQ(naive->answers, result->answers);
      return;
    }
    ASSERT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status();
    EXPECT_TRUE(session.Exhausted());
    ASSERT_NE(session.exhausted_reason(), nullptr);
    EXPECT_STREQ(session.exhausted_reason(), "max_product_states");
    // Partial report: tripping the state cap requires having counted
    // states.
    EXPECT_GE(session.Report()[obs::CounterId::kProductStatesExpanded],
              budget.max_product_states);
  };
  auto planned = [&](EngineChoice engine, const EcrpqQuery& query) {
    check(EngineChoiceName(engine), query, [&](EvalOptions options) {
      options.engine = engine;
      return EvaluatePlanned(db, query, options);
    });
  };
  planned(EngineChoice::kGeneric, *q);
  planned(EngineChoice::kCqReduction, *q);
  planned(EngineChoice::kCqReductionNp, *q);
  planned(EngineChoice::kCrpqPipeline, *crpq);
  check("adaptive", *q, [&](const EvalOptions& options) {
    AdaptiveOptions adaptive;
    adaptive.eval = options;
    AdaptiveReport report;
    Result<EvalResult> result = EvaluateAdaptive(db, *q, adaptive, &report);
    EXPECT_FALSE(report.fell_back);
    return result;
  });
}

// Size-histogram determinism across pool sizes: the Lemma 4.3 pipeline
// searches every source tuple exactly once whatever the worker count, so
// the kSize histogram bucket counts (frontier sizes, reach-set sizes, bag
// widths) are identical at 1 and 4 threads — only the kTimeNs histograms
// are allowed to differ. (The generic engine's parallel mode does NOT have
// this property: its per-worker searcher memos split schedule-dependently.)
TEST_P(DifferentialSuite, PipelineSizeHistogramsPoolSizeInvariant) {
  Rng rng(GetParam() + 40000);
  Result<EcrpqQuery> q = RandomEcrpq(&rng);
  ASSERT_TRUE(q.ok()) << q.status();
  const GraphDb db = RandomSmallDb(&rng);

  auto run = [&](int threads) -> std::pair<EvalResult, obs::StatsReport> {
    obs::Session session;
    EvalOptions options;
    options.engine = EngineChoice::kCqReduction;
    options.obs = &session;
    options.num_threads = threads;
    Result<EvalResult> result = EvaluatePlanned(db, *q, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return {std::move(result).ValueOrDie(), session.Report()};
  };

  const auto [r1, s1] = run(1);
  const auto [r4, s4] = run(4);
  ASSERT_EQ(r1.answers, r4.answers)
      << "seed " << GetParam() << "\nquery: " << q->ToString();
  for (int i = 0; i < obs::kNumHistograms; ++i) {
    const obs::HistogramId id = static_cast<obs::HistogramId>(i);
    if (obs::HistogramKindOf(id) != obs::HistogramKind::kSize) continue;
    const obs::HistogramData& a = s1.hist(id);
    const obs::HistogramData& b = s4.hist(id);
    EXPECT_EQ(a.buckets, b.buckets)
        << obs::HistogramName(id) << " seed " << GetParam()
        << "\nquery: " << q->ToString();
    EXPECT_EQ(a.sum, b.sum) << obs::HistogramName(id);
    EXPECT_EQ(a.max, b.max) << obs::HistogramName(id);
  }
}

TEST_P(DifferentialSuite, TightBudgetSequentialAgreesOrExhausts) {
  CheckTightBudget(GetParam() + 20000, /*threads=*/1);
}

TEST_P(DifferentialSuite, TightBudgetParallelAgreesOrExhausts) {
  CheckTightBudget(GetParam() + 30000, /*threads=*/4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSuite,
                         ::testing::Range<uint64_t>(0, 125));

}  // namespace
}  // namespace ecrpq
