// UECRPQ unions and ECRPQ satisfiability (the paper's closing remarks made
// executable).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "eval/generic_eval.h"
#include "eval/satisfiability.h"
#include "eval/uecrpq.h"
#include "graphdb/generators.h"
#include "query/parser.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

EcrpqQuery Parse(std::string_view text) {
  Result<EcrpqQuery> q = ParseEcrpq(text, kAb);
  EXPECT_TRUE(q.ok()) << q.status();
  return std::move(q).ValueOrDie();
}

TEST(UecrpqTest, ValidationRejectsMixedArity) {
  UecrpqQuery u;
  u.disjuncts.push_back(Parse("q(x) := x -[/a/]-> y"));
  u.disjuncts.push_back(Parse("q() := x -[/b/]-> y"));
  EXPECT_FALSE(ValidateUnion(u).ok());
  UecrpqQuery empty;
  EXPECT_FALSE(ValidateUnion(empty).ok());
}

TEST(UecrpqTest, UnionOfAnswersIsMerged) {
  const GraphDb db = PathGraph(4, "ab");  // 0 -a-> 1 -b-> 2 -a-> 3.
  UecrpqQuery u;
  u.disjuncts.push_back(Parse("q(x) := x -[/a/]-> y"));   // x ∈ {0, 2}.
  u.disjuncts.push_back(Parse("q(x) := x -[/b/]-> y"));   // x ∈ {1}.
  Result<EvalResult> r = EvaluateUnion(db, u);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->satisfiable);
  ASSERT_EQ(r->answers.size(), 3u);
  EXPECT_EQ(r->answers[0], (std::vector<VertexId>{0}));
  EXPECT_EQ(r->answers[1], (std::vector<VertexId>{1}));
  EXPECT_EQ(r->answers[2], (std::vector<VertexId>{2}));
}

TEST(UecrpqTest, BooleanShortCircuits) {
  const GraphDb db = PathGraph(3, "aa");
  UecrpqQuery u;
  u.disjuncts.push_back(Parse("q() := x -[/a/]-> y"));      // Satisfiable.
  u.disjuncts.push_back(Parse("q() := x -[/bbbb/]-> y"));   // Not.
  Result<EvalResult> r = EvaluateUnion(db, u);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->satisfiable);
  // Unsatisfiable union.
  UecrpqQuery bad;
  bad.disjuncts.push_back(Parse("q() := x -[/b/]-> y"));
  bad.disjuncts.push_back(Parse("q() := x -[/ab/]-> y"));
  Result<EvalResult> rb = EvaluateUnion(db, bad);
  ASSERT_TRUE(rb.ok());
  EXPECT_FALSE(rb->satisfiable);
}

TEST(UecrpqTest, StreamsEachAnswerOnceAndStopsWhenAsked) {
  // Two identical PSPACE-regime disjuncts (generic engine): every answer
  // is found twice, but must reach the callback once.
  const GraphDb db = CycleGraph(4, "ab");
  UecrpqQuery u;
  for (int i = 0; i < 2; ++i) {
    u.disjuncts.push_back(
        Parse("q(x) := x -[p0]-> y0, x -[p1]-> y1, x -[p2]-> y2,"
              " eqlen(p0, p1, p2)"));
  }
  std::vector<std::vector<VertexId>> streamed;
  EvalOptions options;
  options.on_answer = [&](const std::vector<VertexId>& answer) {
    streamed.push_back(answer);
    return true;
  };
  Result<EvalResult> r = EvaluateUnion(db, u, options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->answers.size(), 4u);
  std::sort(streamed.begin(), streamed.end());
  EXPECT_EQ(streamed, r->answers);

  // A callback that says stop after the first answer stops the union, not
  // just the disjunct it came from.
  streamed.clear();
  options.on_answer = [&](const std::vector<VertexId>& answer) {
    streamed.push_back(answer);
    return false;
  };
  r = EvaluateUnion(db, u, options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(streamed.size(), 1u);
  EXPECT_EQ(r->answers, streamed);
}

TEST(UecrpqTest, ClassifyUnionTakesWorstRegime) {
  UecrpqQuery u;
  u.disjuncts.push_back(Parse("q() := x -[/a*/]-> y"));  // Tractable CRPQ.
  u.disjuncts.push_back(
      Parse("q() := x -[p0]-> y0, x -[p1]-> y1, x -[p2]-> y2,"
            " eqlen(p0, p1, p2)"));  // cc_vertex = 3: PSPACE regime.
  const QueryClassification c = ClassifyUnion(u);
  EXPECT_EQ(c.eval_regime, EvalRegime::kPspace);
  EXPECT_EQ(c.measures.cc_vertex, 3);
  EXPECT_FALSE(c.is_crpq);
}

TEST(SatisfiabilityTest, SatisfiableQueryYieldsWorkingWitness) {
  const EcrpqQuery q = Parse(
      "q() := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2), lang(/ab/, p1),"
      " lang(/ba|bb/, p2)");
  Result<SatisfiabilityResult> sat = CheckSatisfiable(q);
  ASSERT_TRUE(sat.ok()) << sat.status();
  ASSERT_TRUE(sat->satisfiable);
  ASSERT_TRUE(sat->witness.has_value());
  // The witness database must actually satisfy the query.
  Result<EvalResult> check = EvaluateGeneric(*sat->witness, q);
  ASSERT_TRUE(check.ok()) << check.status();
  EXPECT_TRUE(check->satisfiable);
}

TEST(SatisfiabilityTest, ContradictoryRelationsUnsatisfiable) {
  // p1 must spell "ab" and equal p2 which must spell "ba": impossible.
  const EcrpqQuery q = Parse(
      "q() := x -[p1]-> y, x -[p2]-> y, eq(p1, p2), lang(/ab/, p1),"
      " lang(/ba/, p2)");
  Result<SatisfiabilityResult> sat = CheckSatisfiable(q);
  ASSERT_TRUE(sat.ok()) << sat.status();
  EXPECT_FALSE(sat->satisfiable);
  EXPECT_FALSE(sat->witness.has_value());
}

TEST(SatisfiabilityTest, EmptyWordsGlueEndpoints) {
  // p1 forced to ε: its endpoints coincide; p2 then runs from that vertex.
  const EcrpqQuery q = Parse(
      "q() := x -[p1]-> y, y -[p2]-> z, lang(//, p1), lang(/ab/, p2)");
  Result<SatisfiabilityResult> sat = CheckSatisfiable(q);
  ASSERT_TRUE(sat.ok()) << sat.status();
  ASSERT_TRUE(sat->satisfiable);
  Result<EvalResult> check = EvaluateGeneric(*sat->witness, q);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->satisfiable);
}

TEST(SatisfiabilityTest, UnconstrainedQueryTriviallySatisfiable) {
  const EcrpqQuery q = Parse("q() := x -[p]-> y");
  Result<SatisfiabilityResult> sat = CheckSatisfiable(q);
  ASSERT_TRUE(sat.ok());
  ASSERT_TRUE(sat->satisfiable);
  Result<EvalResult> check = EvaluateGeneric(*sat->witness, q);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->satisfiable);
}

TEST(SatisfiabilityTest, CrossComponentWitness) {
  // Two independent components with different label constraints.
  const EcrpqQuery q = Parse(
      "q() := x -[p1]-> y, u -[p2]-> v, u -[p3]-> v,"
      " lang(/aaa/, p1), eq(p2, p3), lang(/b+/, p2)");
  Result<SatisfiabilityResult> sat = CheckSatisfiable(q);
  ASSERT_TRUE(sat.ok()) << sat.status();
  ASSERT_TRUE(sat->satisfiable);
  Result<EvalResult> check = EvaluateGeneric(*sat->witness, q);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->satisfiable);
}

}  // namespace
}  // namespace ecrpq
