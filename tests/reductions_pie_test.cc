// Lemma 5.4 (p-IE ≤fpt p-eval-ECRPQ), both cases.
#include <gtest/gtest.h>

#include "automata/ine.h"
#include "eval/generic_eval.h"
#include "reductions/pie_to_ecrpq.h"
#include "workloads/db_gen.h"

namespace ecrpq {
namespace {

bool DirectPie(const PieInstance& pie) {
  std::vector<const Dfa*> ptrs;
  for (const Dfa& dfa : pie.automata) ptrs.push_back(&dfa);
  return IntersectionNonEmpty(ptrs).non_empty;
}

bool EvaluateReduction(const IneReduction& reduction) {
  Result<EvalResult> r = EvaluateGeneric(reduction.db, reduction.query);
  EXPECT_TRUE(r.ok()) << r.status();
  return r->satisfiable;
}

TEST(PieReductionTest, RejectsEmptyInstance) {
  PieInstance pie;
  pie.alphabet = Alphabet::OfChars("ab");
  EXPECT_FALSE(PieToEcrpqBoundedHyperedges(pie).ok());
  EXPECT_FALSE(PieToEcrpqUnboundedHyperedge(pie).ok());
}

TEST(PieReductionTest, PlantedInstancesSatisfiable) {
  Rng rng(1);
  const PieInstance pie = RandomPieInstance(&rng, 3, 5, 2, true);
  ASSERT_TRUE(DirectPie(pie));
  Result<IneReduction> chain = PieToEcrpqBoundedHyperedges(pie);
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_TRUE(EvaluateReduction(*chain));
  Result<IneReduction> star = PieToEcrpqUnboundedHyperedge(pie);
  ASSERT_TRUE(star.ok()) << star.status();
  EXPECT_TRUE(EvaluateReduction(*star));
}

TEST(PieReductionTest, FptParameterBound) {
  // Query size must depend only on k, not on the automata sizes.
  Rng rng(2);
  const PieInstance small = RandomPieInstance(&rng, 3, 4, 2, false);
  const PieInstance big = RandomPieInstance(&rng, 3, 20, 2, false);
  Result<IneReduction> rs = PieToEcrpqBoundedHyperedges(small);
  Result<IneReduction> rb = PieToEcrpqBoundedHyperedges(big);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rs->query.NumPathVars(), rb->query.NumPathVars());
  EXPECT_EQ(rs->query.rel_atoms().size(), rb->query.rel_atoms().size());
  size_t total_small = 0, total_big = 0;
  for (const auto& rel : rs->query.relations()) {
    total_small += rel->nfa().NumStates();
  }
  for (const auto& rel : rb->query.relations()) {
    total_big += rel->nfa().NumStates();
  }
  EXPECT_EQ(total_small, total_big);
}

class PieRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PieRandomTest, BothCasesMatchDirectSolver) {
  Rng rng(GetParam());
  const int k = 2 + static_cast<int>(rng.Below(2));
  const PieInstance pie =
      RandomPieInstance(&rng, k, 3 + static_cast<int>(rng.Below(3)), 2,
                        rng.Chance(0.4));
  const bool expected = DirectPie(pie);

  Result<IneReduction> chain = PieToEcrpqBoundedHyperedges(pie);
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_EQ(EvaluateReduction(*chain), expected)
      << "seed " << GetParam() << " (chain)";

  Result<IneReduction> star = PieToEcrpqUnboundedHyperedge(pie);
  ASSERT_TRUE(star.ok()) << star.status();
  EXPECT_EQ(EvaluateReduction(*star), expected)
      << "seed " << GetParam() << " (star)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PieRandomTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace ecrpq
