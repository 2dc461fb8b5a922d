// Lemma 5.1 (INE ≤p eval-ECRPQ): the reduction's verdict through the ECRPQ
// engines must match the independent INE solver's, for both proof cases.
#include <gtest/gtest.h>

#include "automata/ine.h"
#include "automata/regex.h"
#include "eval/generic_eval.h"
#include "query/abstraction.h"
#include "reductions/ine_to_ecrpq.h"
#include "structure/measures.h"
#include "workloads/db_gen.h"

namespace ecrpq {
namespace {

IneInstance HandInstance(std::initializer_list<const char*> patterns) {
  IneInstance ine;
  ine.alphabet = Alphabet::OfChars("ab");
  for (const char* pattern : patterns) {
    Alphabet scratch = ine.alphabet;
    Result<Nfa> nfa = CompileRegex(pattern, &scratch);
    EXPECT_TRUE(nfa.ok()) << nfa.status();
    ine.languages.push_back(std::move(nfa).ValueOrDie());
  }
  return ine;
}

bool DirectIne(const IneInstance& ine) {
  std::vector<const Nfa*> ptrs;
  for (const Nfa& nfa : ine.languages) ptrs.push_back(&nfa);
  return IntersectionNonEmpty(ptrs).non_empty;
}

bool EvaluateReduction(const IneReduction& reduction) {
  Result<EvalResult> r = EvaluateGeneric(reduction.db, reduction.query);
  EXPECT_TRUE(r.ok()) << r.status();
  return r->satisfiable;
}

TEST(IneReductionTest, Case1NonEmptyIntersection) {
  const IneInstance ine = HandInstance({"a*b", "(a|b)*b", "aa(a|b)*"});
  ASSERT_TRUE(DirectIne(ine));
  Result<IneReduction> reduction = IneToEcrpq(ine, IneWitnessShapeCase1(3));
  ASSERT_TRUE(reduction.ok()) << reduction.status();
  EXPECT_EQ(reduction->case_used, 1);
  EXPECT_TRUE(EvaluateReduction(*reduction));
}

TEST(IneReductionTest, Case1EmptyIntersection) {
  const IneInstance ine = HandInstance({"a+", "b+"});
  ASSERT_FALSE(DirectIne(ine));
  Result<IneReduction> reduction = IneToEcrpq(ine, IneWitnessShapeCase1(2));
  ASSERT_TRUE(reduction.ok()) << reduction.status();
  EXPECT_FALSE(EvaluateReduction(*reduction));
}

TEST(IneReductionTest, ChainShapeSharesWordAcrossComponent) {
  // Binary hyperedges chained: the shared-u propagation argument.
  const IneInstance ine = HandInstance({"a*b", "(a|b)b*", "(a|b)*"});
  ASSERT_TRUE(DirectIne(ine));  // "ab" or "bb"... check: a*b ∩ (a|b)b* ∋ "ab"? a*b: ends b. (a|b)b*: one letter then b's: "ab" yes.
  Result<IneReduction> reduction = IneToEcrpq(ine, IneWitnessShapeChain(3));
  ASSERT_TRUE(reduction.ok()) << reduction.status();
  EXPECT_EQ(reduction->case_used, 1);
  EXPECT_TRUE(EvaluateReduction(*reduction));
}

TEST(IneReductionTest, ChainShapeEmptyIntersection) {
  const IneInstance ine = HandInstance({"a*b", "(a|b)*a", "(a|b)*"});
  ASSERT_FALSE(DirectIne(ine));  // Cannot end with both a and b.
  Result<IneReduction> reduction = IneToEcrpq(ine, IneWitnessShapeChain(3));
  ASSERT_TRUE(reduction.ok()) << reduction.status();
  EXPECT_FALSE(EvaluateReduction(*reduction));
}

TEST(IneReductionTest, Case2BothVerdicts) {
  const IneInstance yes = HandInstance({"a(a|b)*", "(a|b)*b", "ab*"});
  ASSERT_TRUE(DirectIne(yes));
  Result<IneReduction> ry = IneToEcrpq(yes, IneWitnessShapeCase2(3));
  ASSERT_TRUE(ry.ok()) << ry.status();
  EXPECT_EQ(ry->case_used, 2);
  EXPECT_TRUE(EvaluateReduction(*ry));

  const IneInstance no = HandInstance({"aa*", "bb*", "(a|b)*"});
  ASSERT_FALSE(DirectIne(no));
  Result<IneReduction> rn = IneToEcrpq(no, IneWitnessShapeCase2(3));
  ASSERT_TRUE(rn.ok()) << rn.status();
  EXPECT_FALSE(EvaluateReduction(*rn));
}

TEST(IneReductionTest, QueryAbstractionMatchesShape) {
  const IneInstance ine = HandInstance({"a*", "b*"});
  const TwoLevelGraph shape = IneWitnessShapeChain(2);
  Result<IneReduction> reduction = IneToEcrpq(ine, shape);
  ASSERT_TRUE(reduction.ok()) << reduction.status();
  const TwoLevelGraph abstraction =
      QueryAbstraction(reduction->query, /*implicit_universal_singletons=*/false);
  EXPECT_EQ(abstraction.num_vertices, shape.num_vertices);
  EXPECT_EQ(abstraction.NumEdges(), shape.NumEdges());
  EXPECT_EQ(abstraction.NumHyperedges(), shape.NumHyperedges());
  EXPECT_EQ(CcVertex(abstraction), CcVertex(shape));
  EXPECT_EQ(CcHedge(abstraction), CcHedge(shape));
}

TEST(IneReductionTest, InadequateShapeRejected) {
  const IneInstance ine = HandInstance({"a*", "b*", "a*"});
  // A shape with two disconnected singleton-hyperedge edges witnesses
  // neither case for n = 3.
  TwoLevelGraph weak;
  weak.num_vertices = 2;
  weak.first_edges = {{0, 1}, {1, 0}};
  weak.hyperedges = {{0}, {1}};
  EXPECT_FALSE(IneToEcrpq(ine, weak).ok());
}

TEST(IneReductionTest, ReductionSizeIsPolynomial) {
  // Database grows linearly with total automata size; query size depends
  // only on the shape.
  Rng rng(5);
  const IneInstance small = RandomIneInstance(&rng, 3, 4, 2, true);
  const IneInstance big = RandomIneInstance(&rng, 3, 16, 2, true);
  Result<IneReduction> rs = IneToEcrpq(small, IneWitnessShapeCase1(3));
  Result<IneReduction> rb = IneToEcrpq(big, IneWitnessShapeCase1(3));
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_GT(rb->db.NumVertices(), rs->db.NumVertices());
  EXPECT_LT(rb->db.NumVertices(), 3 * (16 + 16 * 3 + 2) + 10);
  // Query (relation automata) size identical: it never embeds the inputs.
  EXPECT_EQ(rs->query.relation(0).nfa().NumStates(),
            rb->query.relation(0).nfa().NumStates());
}

class IneReductionRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IneReductionRandomTest, MatchesDirectSolverAllShapes) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.Below(2));
  const bool plant = rng.Chance(0.5);
  const IneInstance ine = RandomIneInstance(&rng, n, 3, 2, plant);
  const bool expected = DirectIne(ine);
  if (plant) {
    ASSERT_TRUE(expected);
  }

  for (const TwoLevelGraph& shape :
       {IneWitnessShapeCase1(n), IneWitnessShapeChain(n),
        IneWitnessShapeCase2(n)}) {
    Result<IneReduction> reduction = IneToEcrpq(ine, shape);
    ASSERT_TRUE(reduction.ok()) << reduction.status();
    EXPECT_EQ(EvaluateReduction(*reduction), expected)
        << "seed " << GetParam() << " case " << reduction->case_used;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IneReductionRandomTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace ecrpq
