// Exhaustive differential testing over a complete small world: every
// database on 2 vertices with up to 4 labelled edges (over {a, b}) × a
// fixed battery of queries × every engine. No sampling — if an engine
// disagrees with the oracle anywhere in this space, this test finds it.
#include <gtest/gtest.h>

#include "eval/adaptive.h"
#include "eval/generic_eval.h"
#include "eval/naive_eval.h"
#include "eval/planner.h"
#include "query/parser.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

// All possible directed labelled edges on 2 vertices over 2 symbols.
constexpr int kNumPossibleEdges = 2 * 2 * 2;  // from × symbol × to.

GraphDb DbFromEdgeMask(unsigned mask) {
  GraphDb db(kAb);
  db.AddVertices(2);
  int index = 0;
  for (VertexId from = 0; from < 2; ++from) {
    for (Symbol symbol = 0; symbol < 2; ++symbol) {
      for (VertexId to = 0; to < 2; ++to) {
        if (mask & (1u << index)) db.AddEdge(from, symbol, to);
        ++index;
      }
    }
  }
  return db;
}

std::vector<EcrpqQuery> QueryBattery() {
  std::vector<EcrpqQuery> battery;
  for (const char* text : {
           "q() := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2),"
           " lang(/ab/, p1)",
           "q(x) := x -[p1]-> y, y -[p2]-> x, eq(p1, p2)",
           "q(x, y) := x -[p1]-> z, y -[p2]-> z, prefix(p1, p2)",
           "q() := x -[/a(a|b)*b/]-> y",
           "q(x) := x -[p1]-> y, x -[p2]-> y, hamming(1, p1, p2),"
           " lang(/(a|b)(a|b)/, p1)",
       }) {
    Result<EcrpqQuery> q = ParseEcrpq(text, kAb);
    EXPECT_TRUE(q.ok()) << q.status();
    battery.push_back(std::move(q).ValueOrDie());
  }
  return battery;
}

class ExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustiveTest, AllEnginesMatchOracleOnEveryDatabase) {
  const std::vector<EcrpqQuery> battery = QueryBattery();
  const EcrpqQuery& query = battery[GetParam()];
  for (unsigned mask = 0; mask < (1u << kNumPossibleEdges); ++mask) {
    const GraphDb db = DbFromEdgeMask(mask);
    const EvalResult oracle = EvaluateNaive(db, query).ValueOrDie();
    const EvalResult generic = EvaluateGeneric(db, query).ValueOrDie();
    ASSERT_EQ(oracle.satisfiable, generic.satisfiable) << "mask " << mask;
    ASSERT_EQ(oracle.answers, generic.answers) << "mask " << mask;
    const EvalResult planned = EvaluatePlanned(db, query).ValueOrDie();
    ASSERT_EQ(oracle.answers, planned.answers) << "mask " << mask;
    // Spot-check the heavier pipelines on a subsample to keep runtime sane.
    if (mask % 16 == 0) {
      EvalOptions via_cq_options;
      via_cq_options.engine = EngineChoice::kCqReduction;
      const EvalResult via_cq =
          EvaluatePlanned(db, query, via_cq_options).ValueOrDie();
      ASSERT_EQ(oracle.answers, via_cq.answers) << "mask " << mask;
      const EvalResult adaptive = EvaluateAdaptive(db, query).ValueOrDie();
      ASSERT_EQ(oracle.answers, adaptive.answers) << "mask " << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Battery, ExhaustiveTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace ecrpq
