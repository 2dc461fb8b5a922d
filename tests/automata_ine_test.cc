#include <gtest/gtest.h>

#include "automata/ine.h"
#include "automata/ops.h"
#include "automata/random.h"
#include "automata/regex.h"
#include "common/rng.h"

namespace ecrpq {
namespace {

Nfa Compile(std::string_view pattern) {
  Alphabet alphabet = Alphabet::OfChars("ab");
  Result<Nfa> nfa = CompileRegex(pattern, &alphabet);
  EXPECT_TRUE(nfa.ok()) << nfa.status();
  return std::move(nfa).ValueOrDie();
}

TEST(IneTest, EmptyFamilyIsNonEmpty) {
  const IneResult r = IntersectionNonEmpty(std::vector<const Nfa*>{});
  EXPECT_TRUE(r.non_empty);
}

TEST(IneTest, SingleAutomaton) {
  const Nfa a = Compile("ab*");
  const IneResult r = IntersectionNonEmpty(std::vector<const Nfa*>{&a});
  EXPECT_TRUE(r.non_empty);
  EXPECT_EQ(r.witness, (std::vector<Label>{0}));  // "a" is shortest.
}

TEST(IneTest, NonEmptyIntersectionWithWitness) {
  const Nfa a = Compile("a*b");       // Ends with b, only a's before.
  const Nfa b = Compile("(a|b)*b");   // Ends with b.
  const Nfa c = Compile("aa(a|b)*");  // Starts with aa.
  const IneResult r =
      IntersectionNonEmpty(std::vector<const Nfa*>{&a, &b, &c});
  ASSERT_TRUE(r.non_empty);
  // Witness must be accepted by all three; shortest is "aab".
  EXPECT_EQ(r.witness, (std::vector<Label>{0, 0, 1}));
  for (const Nfa* nfa : {&a, &b, &c}) {
    EXPECT_TRUE(nfa->Accepts(r.witness));
  }
}

TEST(IneTest, EmptyIntersection) {
  const Nfa a = Compile("a+");
  const Nfa b = Compile("b+");
  const IneResult r = IntersectionNonEmpty(std::vector<const Nfa*>{&a, &b});
  EXPECT_FALSE(r.non_empty);
}

TEST(IneTest, CoprimeLengthsMeetAtTheirLeastSolution) {
  // Lengths ≡ 0 (mod 3) ∩ lengths ≡ 1 (mod 5): the shortest witness has
  // length 6, found only after several product states.
  const Nfa a = Compile("(aaa)*");
  const Nfa b = Compile("a(aaaaa)*");
  const IneResult r = IntersectionNonEmpty(std::vector<const Nfa*>{&a, &b});
  ASSERT_TRUE(r.non_empty);
  EXPECT_EQ(r.witness.size(), 6u);
  EXPECT_GT(r.explored_states, 2u);
}

TEST(IneTest, DfaOverload) {
  Dfa even(2, {0, 1});  // Even number of a's (label 0).
  even.SetInitial(0);
  even.SetAccepting(0);
  even.SetNext(0, 0, 1);
  even.SetNext(0, 1, 0);
  even.SetNext(1, 0, 0);
  even.SetNext(1, 1, 1);
  Dfa odd = even;
  odd.Complement();
  const IneResult empty =
      IntersectionNonEmpty(std::vector<const Dfa*>{&even, &odd});
  EXPECT_FALSE(empty.non_empty);
  const IneResult full =
      IntersectionNonEmpty(std::vector<const Dfa*>{&even, &even});
  EXPECT_TRUE(full.non_empty);
}

// Differential: INE verdict vs product-automaton emptiness.
class IneDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IneDifferentialTest, MatchesProductEmptiness) {
  Rng rng(GetParam());
  RandomNfaOptions options;
  options.num_states = 3 + static_cast<int>(rng.Below(5));
  options.alphabet_size = 2;
  options.density = 0.7;
  options.accept_prob = 0.2;
  options.force_accepting = false;
  const Nfa a = RandomNfa(&rng, options);
  const Nfa b = RandomNfa(&rng, options);
  const Nfa c = RandomNfa(&rng, options);

  const IneResult r =
      IntersectionNonEmpty(std::vector<const Nfa*>{&a, &b, &c});
  const Nfa product = Intersect(Intersect(a, b), c);
  EXPECT_EQ(r.non_empty, !product.IsEmpty()) << "seed " << GetParam();
  if (r.non_empty) {
    EXPECT_TRUE(a.Accepts(r.witness));
    EXPECT_TRUE(b.Accepts(r.witness));
    EXPECT_TRUE(c.Accepts(r.witness));
    // Shortest witness: compare length with the product's.
    const auto product_witness = product.ShortestWitness();
    ASSERT_TRUE(product_witness.has_value());
    EXPECT_EQ(r.witness.size(), product_witness->size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IneDifferentialTest,
                         ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace ecrpq
