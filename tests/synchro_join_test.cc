// JoinMachine (the lazy Lemma 4.1 join) vs the materialized JoinComponents:
// both must accept exactly the same tuples.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "synchro/builders.h"
#include "synchro/convolution.h"
#include "synchro/join.h"
#include "synchro/ops.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

SyncRelation Make(Result<SyncRelation> r) {
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).ValueOrDie();
}

Word RandomWordOf(Rng* rng, int max_len, int alphabet_size) {
  Word w(rng->Below(max_len + 1));
  for (Symbol& s : w) s = static_cast<Symbol>(rng->Below(alphabet_size));
  return w;
}

// Runs the machine over the canonical convolution of `words`.
bool MachineAccepts(JoinMachine* machine, const std::vector<Word>& words) {
  const std::vector<Label> conv = Convolve(words, machine->pack());
  JoinMachine::State state = machine->Initial();
  for (const Label l : conv) {
    state = machine->Next(state, l);
    if (machine->IsDead(state)) return false;
  }
  return machine->IsAccepting(state);
}

TEST(JoinMachineTest, SingleComponentMatchesRelation) {
  const SyncRelation prefix = Make(PrefixRelation(kAb));
  Result<JoinMachine> machine =
      JoinMachine::Create(kAb, {{&prefix, {0, 1}}}, 2);
  ASSERT_TRUE(machine.ok()) << machine.status();
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const std::vector<Word> t = {RandomWordOf(&rng, 4, 2),
                                 RandomWordOf(&rng, 4, 2)};
    ASSERT_EQ(MachineAccepts(&*machine, t), prefix.Contains(t));
  }
}

TEST(JoinMachineTest, EmptyJoinIsUniversal) {
  Result<JoinMachine> machine = JoinMachine::Create(kAb, {}, 2);
  ASSERT_TRUE(machine.ok());
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const std::vector<Word> t = {RandomWordOf(&rng, 4, 2),
                                 RandomWordOf(&rng, 4, 2)};
    EXPECT_TRUE(MachineAccepts(&*machine, t));
  }
}

TEST(JoinMachineTest, RejectsBadTapeMaps) {
  const SyncRelation eq = Make(EqualityRelation(kAb, 2));
  EXPECT_FALSE(JoinMachine::Create(kAb, {{&eq, {0, 0}}}, 2).ok());
  EXPECT_FALSE(JoinMachine::Create(kAb, {{&eq, {0, 5}}}, 2).ok());
  EXPECT_FALSE(JoinMachine::Create(kAb, {{&eq, {0}}}, 2).ok());
  EXPECT_FALSE(JoinMachine::Create(kAb, {{nullptr, {0, 1}}}, 2).ok());
}

class JoinAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinAgreementTest, LazyMachineAgreesWithMaterializedJoin) {
  Rng rng(GetParam());
  // Random small component: 2-3 relations from a pool on 3 joint tapes.
  const SyncRelation pool[] = {
      Make(EqualLengthRelation(kAb, 2)), Make(EqualityRelation(kAb, 2)),
      Make(PrefixRelation(kAb)), Make(HammingAtMostRelation(kAb, 1))};
  const int joint_arity = 3;
  const int parts = 2 + static_cast<int>(rng.Below(2));
  std::vector<JoinMachine::Component> components;
  std::vector<TapeMapping> mappings;
  for (int p = 0; p < parts; ++p) {
    const SyncRelation* rel = &pool[rng.Below(4)];
    // Random injective 2-of-3 tape map.
    const int first = static_cast<int>(rng.Below(3));
    int second = static_cast<int>(rng.Below(3));
    if (second == first) second = (second + 1) % 3;
    components.push_back({rel, {first, second}});
    mappings.push_back({rel, {first, second}});
  }
  Result<JoinMachine> machine =
      JoinMachine::Create(kAb, components, joint_arity);
  ASSERT_TRUE(machine.ok()) << machine.status();
  Result<SyncRelation> merged = JoinComponents(kAb, mappings, joint_arity);
  ASSERT_TRUE(merged.ok()) << merged.status();

  for (int i = 0; i < 200; ++i) {
    std::vector<Word> tuple;
    const Word base = RandomWordOf(&rng, 3, 2);
    for (int t = 0; t < joint_arity; ++t) {
      // Bias toward related words so positives occur.
      tuple.push_back(rng.Chance(0.5) ? base : RandomWordOf(&rng, 3, 2));
    }
    const bool lazy = MachineAccepts(&*machine, tuple);
    const bool materialized = merged->Contains(tuple);
    ASSERT_EQ(lazy, materialized)
        << "seed " << GetParam() << " iteration " << i;
  }
}

// Machine ids with a step cache must walk like the uncached subset steps:
// a walk on a machine that has already cached every step it takes accepts
// exactly what the same walk accepts on a fresh machine, for every word.
TEST(JoinMachineTest, CachedStepsMatchUncachedWalks) {
  const SyncRelation eqlen = Make(EqualLengthRelation(kAb, 2));
  const SyncRelation prefix = Make(PrefixRelation(kAb));
  const std::vector<JoinMachine::Component> components = {
      {&eqlen, {0, 1}}, {&prefix, {1, 2}}};
  Result<JoinMachine> warm = JoinMachine::Create(kAb, components, 3);
  ASSERT_TRUE(warm.ok()) << warm.status();
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    std::vector<Word> tuple;
    const Word base = RandomWordOf(&rng, 4, 2);
    for (int t = 0; t < 3; ++t) {
      tuple.push_back(rng.Chance(0.5) ? base : RandomWordOf(&rng, 4, 2));
    }
    Result<JoinMachine> fresh = JoinMachine::Create(kAb, components, 3);
    ASSERT_TRUE(fresh.ok());
    const bool uncached = MachineAccepts(&*fresh, tuple);
    ASSERT_EQ(MachineAccepts(&*warm, tuple), uncached) << "word " << i;
    // Re-walking the same word is served from the cache: no new state.
    const size_t states_after_first = warm->NumStates();
    ASSERT_EQ(MachineAccepts(&*warm, tuple), uncached) << "word " << i;
    EXPECT_EQ(warm->NumStates(), states_after_first);
  }
  // Ids are dense and stable: Initial() is always the first one issued.
  EXPECT_EQ(warm->Initial(), JoinMachine::State{0});
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinAgreementTest,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace ecrpq
