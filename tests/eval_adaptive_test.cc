#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/obs.h"
#include "eval/adaptive.h"
#include "eval/naive_eval.h"
#include "graphdb/dot.h"
#include "graphdb/generators.h"
#include "query/parser.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

EcrpqQuery Parse(std::string_view text) {
  Result<EcrpqQuery> q = ParseEcrpq(text, kAb);
  EXPECT_TRUE(q.ok()) << q.status();
  return std::move(q).ValueOrDie();
}

TEST(AdaptiveTest, EasyInstanceStaysInPhaseOne) {
  const GraphDb db = CycleGraph(4, "ab");
  const EcrpqQuery q =
      Parse("q() := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)");
  AdaptiveReport report;
  Result<EvalResult> r = EvaluateAdaptive(db, q, {}, &report);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->satisfiable);
  EXPECT_FALSE(report.fell_back);
  EXPECT_GT(report.phase1_budget, 0u);
}

TEST(AdaptiveTest, TinyBudgetFallsBackAndStaysCorrect) {
  const GraphDb db = CycleGraph(6, "ab");
  const EcrpqQuery q = Parse(
      "q(x, xp) := x -[p1]-> y, xp -[p2]-> y, eqlen(p1, p2),"
      " lang(/ababab(a|b)*/, p1)");
  AdaptiveOptions options;
  options.budget_factor = 0.001;  // Forces phase-1 abort.
  AdaptiveReport report;
  Result<EvalResult> r = EvaluateAdaptive(db, q, options, &report);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(report.fell_back);
  // Answers must still be exact: compare with the naive oracle.
  Result<EvalResult> naive = EvaluateNaive(db, q);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(r->satisfiable, naive->satisfiable);
  EXPECT_EQ(r->answers, naive->answers);
}

TEST(AdaptiveTest, PspaceRegimeFallsBackToUnboundedGeneric) {
  const GraphDb db = CycleGraph(3, "ab");
  const EcrpqQuery q = EqLenStarQuery(kAb, 3).ValueOrDie();
  AdaptiveOptions options;
  options.budget_factor = 0.001;
  AdaptiveReport report;
  Result<EvalResult> r = EvaluateAdaptive(db, q, options, &report);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(report.fell_back);
  EXPECT_EQ(report.fallback_engine, EngineChoice::kGeneric);
  EXPECT_TRUE(r->satisfiable);
}

TEST(AdaptiveTest, StreamsEachAnswerOnceAcrossFallback) {
  // A starved phase 1 falls back to the cq-reduction route (polynomial
  // regime) and to the unbounded generic engine (PSPACE regime). Either
  // way every answer reaches on_answer exactly once, and answers are
  // exactly the streamed tuples.
  const GraphDb db = CycleGraph(6, "ab");
  const struct {
    EcrpqQuery query;
    EngineChoice fallback;
  } cases[] = {
      {Parse("q(x, y) := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)"),
       EngineChoice::kCqReduction},
      {Parse("q(x) := x -[p0]-> y0, x -[p1]-> y1, x -[p2]-> y2,"
             " eqlen(p0, p1, p2)"),
       EngineChoice::kGeneric},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.query.ToString());
    std::vector<std::vector<VertexId>> streamed;
    AdaptiveOptions options;
    options.budget_factor = 0.001;
    options.eval.on_answer = [&](const std::vector<VertexId>& answer) {
      streamed.push_back(answer);
      return true;
    };
    AdaptiveReport report;
    Result<EvalResult> r = EvaluateAdaptive(db, c.query, options, &report);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(report.fell_back);
    EXPECT_EQ(report.fallback_engine, c.fallback);
    EXPECT_EQ(r->answers, EvaluateNaive(db, c.query).ValueOrDie().answers);
    std::sort(streamed.begin(), streamed.end());
    EXPECT_EQ(streamed, r->answers);
  }
}

// The 64-vertex a-cycle over {a, b}. On it, each of the 64 phase-1
// searches of q(x, y) := x -[/a(a|b)*/]-> y interns about 66 product
// states, under the 64 * 64 = 4096 phase-1 budget, but all of them
// together intern 4224.
GraphDb ACycle64() {
  GraphDb db(kAb);
  db.AddVertices(64);
  for (VertexId v = 0; v < 64; ++v) db.AddEdge(v, "a", (v + 1) % 64);
  return db;
}

TEST(AdaptiveTest, PhaseOneBudgetIsSessionWide) {
  const GraphDb db = ACycle64();
  const EcrpqQuery q = Parse("q(x, y) := x -[/a(a|b)*/]-> y");
  AdaptiveReport report;
  Result<EvalResult> r = EvaluateAdaptive(db, q, {}, &report);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(report.phase1_budget, 4096u);
  EXPECT_TRUE(report.fell_back);
  EXPECT_EQ(report.fallback_engine, EngineChoice::kCrpqPipeline);
  Result<EvalResult> generic = EvaluateGeneric(db, q);
  ASSERT_TRUE(generic.ok()) << generic.status();
  EXPECT_EQ(r->answers, generic->answers);
  EXPECT_EQ(r->answers.size(), 64u * 64u);
}

TEST(AdaptiveTest, CallerBudgetBelowPhaseOneTripsWithoutFallback) {
  const GraphDb db = ACycle64();
  const EcrpqQuery q = Parse("q(x, y) := x -[/a(a|b)*/]-> y");
  obs::Session session;
  obs::EvalBudget budget;
  budget.max_product_states = 100;
  session.SetBudget(budget);
  AdaptiveOptions options;
  options.eval.obs = &session;
  AdaptiveReport report;
  Result<EvalResult> r = EvaluateAdaptive(db, q, options, &report);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().ToString().find("max_product_states"),
            std::string::npos)
      << r.status();
  EXPECT_GT(report.phase1_budget, budget.max_product_states);
  EXPECT_FALSE(report.fell_back);
  EXPECT_STREQ(session.exhausted_reason(), "max_product_states");
}

TEST(AdaptiveTest, CallerSessionSeesPhaseOne) {
  const GraphDb db = ACycle64();
  const EcrpqQuery q = Parse("q(x, y) := x -[/a(a|b)*/]-> y");
  obs::Session session;
  session.EnableTrace();
  AdaptiveOptions options;
  options.eval.obs = &session;
  AdaptiveReport report;
  Result<EvalResult> r = EvaluateAdaptive(db, q, options, &report);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(report.fell_back);
  // Phase 1 tripped its budget, so it interned at least that many states,
  // and they are counted in the caller's report.
  EXPECT_GE(session.Report()[obs::CounterId::kProductStatesExpanded],
            report.phase1_budget);
  bool phase1_span = false;
  for (const obs::Trace::Event& event : session.trace()->Events()) {
    if (std::string_view(event.name) == "EvaluateGeneric") phase1_span = true;
  }
  EXPECT_TRUE(phase1_span);
}

class AdaptiveDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdaptiveDifferentialTest, MatchesNaiveUnderAnyBudget) {
  Rng rng(GetParam());
  GraphDb db(kAb);
  const int n = 2 + static_cast<int>(rng.Below(3));
  db.AddVertices(n);
  for (int e = 0; e < 2 * n; ++e) {
    db.AddEdge(static_cast<VertexId>(rng.Below(n)),
               static_cast<Symbol>(rng.Below(2)),
               static_cast<VertexId>(rng.Below(n)));
  }
  const EcrpqQuery q =
      Parse("q(x) := x -[p1]-> y, x -[p2]-> y, prefix(p1, p2)");
  AdaptiveOptions options;
  options.budget_factor = (GetParam() % 3 == 0) ? 0.001 : 64.0;
  Result<EvalResult> adaptive = EvaluateAdaptive(db, q, options);
  Result<EvalResult> naive = EvaluateNaive(db, q);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(adaptive->satisfiable, naive->satisfiable) << GetParam();
  EXPECT_EQ(adaptive->answers, naive->answers) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveDifferentialTest,
                         ::testing::Range<uint64_t>(0, 12));

TEST(DotExportTest, ContainsVerticesEdgesAndNames) {
  GraphDb db(Alphabet::OfChars("ab"));
  db.AddVertices(2);
  db.AddEdge(0, "a", 1);
  DotOptions options;
  options.vertex_names = {"start", "end\"quoted\""};
  const std::string dot = GraphDbToDot(db, options);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("v0 -> v1 [label=\"a\"]"), std::string::npos);
  EXPECT_NE(dot.find("label=\"start\""), std::string::npos);
  EXPECT_NE(dot.find("\\\"quoted\\\""), std::string::npos);
}

}  // namespace
}  // namespace ecrpq
