// Error-path coverage: every engine entry point must reject bad inputs
// with a descriptive Status (never crash, never silently succeed).
#include <gtest/gtest.h>

#include "common/obs.h"

#include "eval/adaptive.h"
#include "eval/explain.h"
#include "eval/generic_eval.h"
#include "eval/planner.h"
#include "eval/reduce_to_cq.h"
#include "eval/satisfiability.h"
#include "graphdb/generators.h"
#include "query/parser.h"
#include "synchro/builders.h"

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

TEST(ErrorPathsTest, AlphabetMismatchRejectedEverywhere) {
  // Database alphabet {x, y} is not a prefix of the query's {a, b}.
  GraphDb db(Alphabet::OfChars("xy"));
  db.AddVertices(2);
  db.AddEdge(0, "x", 1);
  const EcrpqQuery q = Parse("q() := u -[p]-> v, lang(/a/, p)");
  EXPECT_FALSE(EvaluateGeneric(db, q).ok());
  EXPECT_FALSE(
      EvaluatePlanned(db, q, Forced(EngineChoice::kCqReduction)).ok());
  EXPECT_FALSE(
      EvaluatePlanned(db, q, Forced(EngineChoice::kCrpqPipeline)).ok());
  EXPECT_FALSE(ReduceToCq(db, q).ok());
}

TEST(ErrorPathsTest, CompatiblePrefixAlphabetAccepted) {
  // Database over {a} only; query knows {a, b}: fine.
  GraphDb db(Alphabet::OfChars("a"));
  db.AddVertices(2);
  db.AddEdge(0, "a", 1);
  const EcrpqQuery q = Parse("q() := u -[p]-> v, lang(/a|b/, p)");
  Result<EvalResult> r = EvaluateGeneric(db, q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->satisfiable);
}

TEST(ErrorPathsTest, PinValidation) {
  const GraphDb db = CycleGraph(3, "ab");
  const EcrpqQuery q = Parse("q(x) := x -[p]-> y");
  EvalOptions options;
  options.pin = {{99, 0}};  // Unknown variable.
  EXPECT_FALSE(EvaluateGeneric(db, q, options).ok());
  options.pin = {{0, 99}};  // Vertex out of range.
  EXPECT_FALSE(EvaluateGeneric(db, q, options).ok());
}

TEST(ErrorPathsTest, ReductionBudgets) {
  // The session's product-state cap bounds both the searches and the
  // relations they materialize: the reduction trips with
  // ResourceExhausted, at every pool size.
  const GraphDb db = CycleGraph(6, "ab");
  const EcrpqQuery q =
      Parse("q() := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)");
  for (int num_threads : {1, 4}) {
    obs::Session session;
    obs::EvalBudget budget;
    budget.max_product_states = 1;
    session.SetBudget(budget);
    EvalOptions options;
    options.num_threads = num_threads;
    options.obs = &session;
    Result<CqReduction> r = ReduceToCq(db, q, options);
    ASSERT_FALSE(r.ok()) << "pool size " << num_threads;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_STREQ(session.exhausted_reason(), "max_product_states");
  }
}

TEST(ErrorPathsTest, InvalidQueriesRejectedBeforeEvaluation) {
  // Built by hand to bypass the builder's validation-on-build.
  GraphDb db(kAb);
  db.AddVertices(1);
  EcrpqQuery empty;  // Zero atoms, zero vars: valid and trivially true.
  Result<EvalResult> r = EvaluateGeneric(db, empty);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->satisfiable);
}

TEST(ErrorPathsTest, ExplainOnWrongArity) {
  const GraphDb db = CycleGraph(3, "ab");
  const EcrpqQuery q = Parse("q(x) := x -[p]-> y");
  EXPECT_FALSE(ExplainAnswer(db, q, {0, 1}).ok());
}

TEST(ErrorPathsTest, SatisfiabilityOfRelationWithImpossibleArity) {
  // eq over more tapes than the packer allows for this alphabet: the
  // builder rejects it at construction, the earliest possible point.
  Result<SyncRelation> too_wide = EqualityRelation(kAb, 40);
  EXPECT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.status().code(), StatusCode::kCapacityExceeded);
}

TEST(ErrorPathsTest, AdaptiveSurfacesPhaseTwoErrors) {
  // Alphabet mismatch must propagate through the adaptive wrapper too.
  GraphDb db(Alphabet::OfChars("xy"));
  db.AddVertices(1);
  const EcrpqQuery q = Parse("q() := u -[p]-> v, lang(/a/, p)");
  EXPECT_FALSE(EvaluateAdaptive(db, q).ok());
}

}  // namespace
}  // namespace ecrpq
