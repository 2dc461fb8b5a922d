// Hand-verifiable end-to-end evaluations across all engines.
#include <gtest/gtest.h>

#include "automata/interner.h"
#include "automata/regex.h"
#include "common/obs.h"
#include "common/rng.h"

#include "eval/generic_eval.h"
#include "eval/merge.h"
#include "eval/naive_eval.h"
#include "eval/planner.h"
#include "eval/reduce_to_cq.h"
#include "graphdb/generators.h"
#include "graphdb/reach_memo.h"
#include "graphdb/rpq_reach.h"
#include "query/parser.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

// Options that force one engine through EvaluatePlanned.
EvalOptions Forced(EngineChoice engine) {
  EvalOptions options;
  options.engine = engine;
  return options;
}

EcrpqQuery Parse(std::string_view text) {
  Result<EcrpqQuery> q = ParseEcrpq(text, kAb);
  EXPECT_TRUE(q.ok()) << q.status();
  return std::move(q).ValueOrDie();
}

// answer_latency_ns gets one sample per distinct answer on every route.
// The tree-decomposition CQ engine materializes its bags with the
// backtracking one, and bag tuples are not answers.
TEST(AnswerLatencyTest, OneSamplePerAnswerOnEveryRoute) {
  Rng rng(7);
  const GraphDb db = RandomGraph(&rng, 64, 3.0, 2);
  const char* kQueries[] = {
      "q(x) := x -[/ab/]-> y, y -[/ba/]-> z",
      "q(x, z) := x -[/ab/]-> y, y -[/ba/]-> z",
      "q() := x -[/ab/]-> y, y -[/ba/]-> z",
  };
  for (const char* text : kQueries) {
    const EcrpqQuery query = Parse(text);
    for (EngineChoice engine :
         {EngineChoice::kCrpqPipeline, EngineChoice::kCqReduction,
          EngineChoice::kCqReductionNp, EngineChoice::kGeneric}) {
      obs::Session session;
      EvalOptions options = Forced(engine);
      options.num_threads = 1;
      options.obs = &session;
      const EvalResult result =
          EvaluatePlanned(db, query, options).ValueOrDie();
      ASSERT_TRUE(result.satisfiable) << text;
      EXPECT_EQ(
          session.Report().hist(obs::HistogramId::kAnswerLatencyNs).Count(),
          result.answers.size())
          << text << " engine " << static_cast<int>(engine);
      if (query.IsBoolean()) {
        EXPECT_EQ(result.answers.size(), 1u) << text;
      }
    }
  }
}

TEST(GenericEvalTest, PaperExampleOnFork) {
  // Graph: 0 -a-> 2, 1 -b-> 2 (fork into 2), plus a longer branch
  // 1 -a-> 3 -a-> 2. q(x, xp): paths to a common y of equal length.
  GraphDb db(kAb);
  db.AddVertices(4);
  db.AddEdge(0, "a", 2);
  db.AddEdge(1, "b", 2);
  db.AddEdge(1, "a", 3);
  db.AddEdge(3, "a", 2);
  Result<EcrpqQuery> q = ExampleTwoOneQuery(kAb);
  ASSERT_TRUE(q.ok());
  Result<EvalResult> r = EvaluateGeneric(db, *q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->satisfiable);
  // (0, 1) via 0-a->2 and 1-b->2 (both length 1). Also every (v, v) via
  // empty paths, and (1, 0)... check a few.
  auto has = [&](VertexId a, VertexId b) {
    return std::find(r->answers.begin(), r->answers.end(),
                     std::vector<VertexId>{a, b}) != r->answers.end();
  };
  EXPECT_TRUE(has(0, 1));
  EXPECT_TRUE(has(1, 0));
  EXPECT_TRUE(has(2, 2));
  // (0, 3): 0 -a-> 2 (length 1) and 3 -a-> 2 (length 1): yes.
  EXPECT_TRUE(has(0, 3));
  // (3, 1): 3 -a-> 2 length 1; from 1 to 2 length 1 via b: but that's
  // (1,3)... (3,1) needs path from 3 and path from 1 to same y with equal
  // lengths: y=2, lengths 1 and 1: yes.
  EXPECT_TRUE(has(3, 1));
}

TEST(GenericEvalTest, EqualityStarOnCycle) {
  // On an a-labelled cycle, eq of two paths from 0 and 1 always holds for
  // equal-length walks (labels all 'a').
  GraphDb db = CycleGraph(3, "a");
  const EcrpqQuery q =
      Parse("q(y0, y1) := x0 -[p0]-> y0, x1 -[p1]-> y1, eq(p0, p1)");
  Result<EvalResult> r = EvaluateGeneric(db, q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->satisfiable);
  // Any pair (y0, y1) is reachable by equal-length walks from some x0, x1.
  EXPECT_EQ(r->answers.size(), 9u);
}

TEST(GenericEvalTest, UnsatisfiableByLabels) {
  // Graph with only a-edges; query requires a path with a b.
  GraphDb db = PathGraph(4, "a");
  const EcrpqQuery q = Parse("q() := x -[/a*ba*/]-> y");
  Result<EvalResult> r = EvaluateGeneric(db, q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->satisfiable);
}

TEST(GenericEvalTest, EmptyDatabase) {
  GraphDb db(kAb);
  const EcrpqQuery q = Parse("q() := x -[p]-> y");
  Result<EvalResult> r = EvaluateGeneric(db, q);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->satisfiable);
}

TEST(GenericEvalTest, EmptyPathSatisfiesStarLanguages) {
  GraphDb db(kAb);
  db.AddVertices(1);  // No edges at all.
  const EcrpqQuery q = Parse("q() := x -[/a*/]-> y");
  Result<EvalResult> r = EvaluateGeneric(db, q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->satisfiable);  // Empty path from 0 to 0, label ε ∈ a*.
}

TEST(GenericEvalTest, PrefixRelationAcrossBranches) {
  // 0 -a-> 1 -b-> 2; prefix(p1, p2) with p1: 0→1, p2: 0→2.
  GraphDb db(kAb);
  db.AddVertices(3);
  db.AddEdge(0, "a", 1);
  db.AddEdge(1, "b", 2);
  const EcrpqQuery yes =
      Parse("q() := x -[p1]-> y, x -[p2]-> z, prefix(p1, p2),"
            " lang(/a/, p1), lang(/ab/, p2)");
  Result<EvalResult> r1 = EvaluateGeneric(db, yes);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->satisfiable);
  const EcrpqQuery no =
      Parse("q() := x -[p1]-> y, x -[p2]-> z, prefix(p1, p2),"
            " lang(/ab/, p1), lang(/a/, p2)");
  Result<EvalResult> r2 = EvaluateGeneric(db, no);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->satisfiable);
}

TEST(CrpqEvalTest, MatchesGenericOnCrpq) {
  GraphDb db = GridGraph(3, 3);
  const Alphabet rd = db.alphabet();
  Result<EcrpqQuery> q = ParseEcrpq(
      "q(x) := x -[/rr/]-> y, x -[/dd/]-> z, y -[/dd/]-> w, z -[/rr/]-> w",
      rd);
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(q->IsCrpq());
  Result<EvalResult> crpq =
      EvaluatePlanned(db, *q, Forced(EngineChoice::kCrpqPipeline));
  Result<EvalResult> generic = EvaluateGeneric(db, *q);
  ASSERT_TRUE(crpq.ok()) << crpq.status();
  ASSERT_TRUE(generic.ok()) << generic.status();
  EXPECT_EQ(crpq->satisfiable, generic->satisfiable);
  EXPECT_EQ(crpq->answers, generic->answers);
  // Only the top-left corner can anchor the 2x2 square macro-pattern.
  ASSERT_EQ(crpq->answers.size(), 1u);
  EXPECT_EQ(crpq->answers[0], (std::vector<VertexId>{0}));
}

TEST(CrpqEvalTest, RejectsNonCrpq) {
  GraphDb db = PathGraph(3, "a");
  const EcrpqQuery q =
      Parse("q() := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)");
  EXPECT_FALSE(
      EvaluatePlanned(db, q, Forced(EngineChoice::kCrpqPipeline)).ok());
}

TEST(ReduceToCqTest, ProducesExpectedShape) {
  GraphDb db = CycleGraph(3, "a");
  Result<EcrpqQuery> q = ExampleTwoOneQuery(kAb);
  ASSERT_TRUE(q.ok());
  // The database alphabet is {a}, the query's is {a, b}: compatible.
  Result<CqReduction> reduction = ReduceToCq(db, *q);
  ASSERT_TRUE(reduction.ok()) << reduction.status();
  EXPECT_EQ(reduction->query.atoms.size(), 1u);  // One component.
  EXPECT_EQ(reduction->query.atoms[0].vars.size(), 4u);  // R'(x, y, xp, y).
  EXPECT_EQ(reduction->source_tuples_enumerated, 9u);    // |V|^2.
  const Relation* rel = reduction->db->Find("comp0");
  ASSERT_NE(rel, nullptr);
  EXPECT_GT(rel->NumTuples(), 0u);
}

TEST(ReduceToCqTest, PipelineMatchesGeneric) {
  GraphDb db = CycleGraph(4, "ab");
  const EcrpqQuery q =
      Parse("q(x, xp) := x -[p1]-> y, xp -[p2]-> y, eqlen(p1, p2)");
  Result<EvalResult> generic = EvaluateGeneric(db, q);
  Result<EvalResult> via_td =
      EvaluatePlanned(db, q, Forced(EngineChoice::kCqReduction));
  Result<EvalResult> via_bt =
      EvaluatePlanned(db, q, Forced(EngineChoice::kCqReductionNp));
  ASSERT_TRUE(generic.ok()) << generic.status();
  ASSERT_TRUE(via_td.ok()) << via_td.status();
  ASSERT_TRUE(via_bt.ok()) << via_bt.status();
  EXPECT_EQ(generic->satisfiable, via_td->satisfiable);
  EXPECT_EQ(generic->answers, via_td->answers);
  EXPECT_EQ(generic->answers, via_bt->answers);
}

std::vector<VertexId> RowsOf(const Relation& relation) {
  std::vector<VertexId> rows;
  for (size_t i = 0; i < relation.NumTuples(); ++i) {
    const std::span<const VertexId> tuple = relation.Tuple(i);
    rows.insert(rows.end(), tuple.begin(), tuple.end());
  }
  return rows;
}

// A one-tape component (one path variable, at most one relation atom, a
// unary one) is R_L of its language: RpqReachAll's rows, only (u, u) for a
// self-loop. A second cached reduction adopts the memo's rows without a
// copy and materializes only its other components; with disable_cache
// nothing is interned or published.
TEST(ReduceToCqTest, OneTapeComponentsAreReachRelations) {
  Rng rng(17);
  const GraphDb db = RandomGraph(&rng, 40, 2.5, 2);
  struct Case {
    const char* query;
    const char* language;  // Of every one-tape component.
    size_t one_tape;       // Components that are one-tape.
  };
  const Case cases[] = {
      {"q(x, y) := x -[/a(a|b)*/]-> y", "a(a|b)*", 1},
      {"q(x) := x -[/ab*/]-> x", "ab*", 1},
      {"q(x, y) := x -[p]-> y", "(a|b)*", 1},
      // ecrpq_engines' K4 text: four one-tape .+ components beside eqlen.
      {"q() := x -[p1]-> y, x -[/.+/]-> z, x -[/.+/]-> w, y -[p2]-> z, "
       "y -[/.+/]-> w, z -[/.+/]-> w, eqlen(p1, p2)",
       ".+", 4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query);
    const EcrpqQuery query = Parse(c.query);
    const bool self_loop = query.reach_atoms()[0].from ==
                           query.reach_atoms()[0].to;
    Alphabet alphabet = kAb;
    const std::vector<VertexId> reach =
        *RpqReachAll(db, CompileRegex(c.language, &alphabet).ValueOrDie());
    std::vector<VertexId> expected;
    for (size_t row = 0; row < reach.size(); row += 2) {
      if (!self_loop || reach[row] == reach[row + 1]) {
        expected.insert(expected.end(), {reach[row], reach[row + 1]});
      }
    }
    auto reduce = [&](bool disable_cache, obs::Session* session) {
      EvalOptions options;
      options.num_threads = 1;
      options.disable_cache = disable_cache;
      options.obs = session;
      return ReduceToCq(db, query, options).ValueOrDie();
    };
    ClearGlobalCaches();
    const CqReduction cold = reduce(false, nullptr);
    obs::Session warm_session;
    const CqReduction warm = reduce(false, &warm_session);
    ClearGlobalCaches();
    const CqReduction uncached = reduce(true, nullptr);
    EXPECT_EQ(ReachMemo::Global().NumEntries(), 0u);
    EXPECT_EQ(AutomatonInterner::Global().SizeBytes(), 0u);

    const std::vector<ComponentPlan> plans = PlanComponents(query);
    size_t one_tape = 0;
    uint64_t other_rows = 0;
    for (size_t i = 0; i < plans.size(); ++i) {
      const std::string name = "comp" + std::to_string(i);
      if (plans[i].paths.size() > 1) {
        other_rows += warm.db->Find(name)->NumTuples();
        continue;
      }
      ++one_tape;
      const Relation& shared = *warm.db->Find(name);
      EXPECT_EQ(RowsOf(shared), expected) << name;
      EXPECT_EQ(RowsOf(*cold.db->Find(name)), expected) << name;
      EXPECT_EQ(RowsOf(*uncached.db->Find(name)), expected) << name;
      ASSERT_GT(shared.NumTuples(), 0u) << name;
      EXPECT_EQ(shared.Tuple(0).data() == cold.db->Find(name)->Tuple(0).data(),
                !self_loop)
          << name;
    }
    EXPECT_EQ(one_tape, c.one_tape);
    EXPECT_EQ(warm_session.Report()[obs::CounterId::kTuplesMaterialized],
              other_rows);
  }
}

TEST(NaiveEvalTest, AgreesOnHandCase) {
  GraphDb db(kAb);
  db.AddVertices(4);
  db.AddEdge(0, "a", 2);
  db.AddEdge(1, "b", 2);
  db.AddEdge(1, "a", 3);
  db.AddEdge(3, "a", 2);
  Result<EcrpqQuery> q = ExampleTwoOneQuery(kAb);
  ASSERT_TRUE(q.ok());
  Result<EvalResult> naive = EvaluateNaive(db, *q);
  Result<EvalResult> generic = EvaluateGeneric(db, *q);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(generic.ok());
  EXPECT_EQ(naive->satisfiable, generic->satisfiable);
  EXPECT_EQ(naive->answers, generic->answers);
}

TEST(GenericEvalTest, BudgetAbortSurfaces) {
  Rng rng(1);
  GraphDb db = RandomGraph(&rng, 30, 3.0, 2);
  const EcrpqQuery q =
      Parse("q() := x0 -[p0]-> y0, x1 -[p1]-> y1, x2 -[p2]-> y2,"
            " eqlen(p0, p1, p2), lang(/ababab(a|b)*/, p0)");
  obs::Session session;
  obs::EvalBudget budget;
  budget.max_product_states = 5;
  session.SetBudget(budget);
  EvalOptions options;
  options.obs = &session;
  Result<EvalResult> r = EvaluateGeneric(db, q, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().ToString().find("max_product_states"),
            std::string::npos)
      << r.status();
}

}  // namespace
}  // namespace ecrpq
