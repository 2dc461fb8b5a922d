#include <gtest/gtest.h>

#include "common/obs.h"
#include "common/rng.h"
#include "graphdb/generators.h"
#include "graphdb/tuple_search.h"
#include "synchro/builders.h"

namespace ecrpq {
namespace {

SyncRelation Make(Result<SyncRelation> r) {
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).ValueOrDie();
}

TEST(TupleSearchTest, EqLengthPathsOnCycle) {
  // Two tapes on a 4-cycle with eq-length: from (0, 2), targets are the
  // vertex pairs at equal distance.
  GraphDb db = CycleGraph(4, "a");
  SyncRelation eqlen = Make(EqualLengthRelation(db.alphabet(), 2));
  Result<JoinMachine> machine =
      JoinMachine::Create(db.alphabet(), {{&eqlen, {0, 1}}}, 2);
  ASSERT_TRUE(machine.ok());
  Result<TupleSearcher> searcher = TupleSearcher::Create(&db, &*machine);
  ASSERT_TRUE(searcher.ok());

  const ReachSet& reach = searcher->Reach({0, 2});
  EXPECT_FALSE(reach.aborted);
  // Equal distance d: (d mod 4, (2+d) mod 4) — four distinct pairs.
  EXPECT_EQ(reach.targets.size(), 4u);
  EXPECT_TRUE(searcher->Check({0, 2}, {0, 2}));  // d = 0 (empty paths).
  EXPECT_TRUE(searcher->Check({0, 2}, {1, 3}));  // d = 1.
  EXPECT_TRUE(searcher->Check({0, 2}, {2, 0}));  // d = 2.
  EXPECT_FALSE(searcher->Check({0, 2}, {1, 2}));
}

TEST(TupleSearchTest, EqualityNeedsIdenticalLabels) {
  // Path graph abab...: equality of two paths starting at 0 and 1. Labels
  // from 0: a, ab, aba...; from 1: b, ba, ... — never equal unless empty.
  GraphDb db = PathGraph(6, "ab");
  SyncRelation eq = Make(EqualityRelation(db.alphabet(), 2));
  Result<JoinMachine> machine =
      JoinMachine::Create(db.alphabet(), {{&eq, {0, 1}}}, 2);
  ASSERT_TRUE(machine.ok());
  Result<TupleSearcher> searcher = TupleSearcher::Create(&db, &*machine);
  ASSERT_TRUE(searcher.ok());
  const ReachSet& reach = searcher->Reach({0, 1});
  EXPECT_EQ(reach.targets.size(), 1u);  // Only (0, 1) via empty paths.
  // From 0 and 2 the labels line up (both read "abab..."):
  const ReachSet& reach2 = searcher->Reach({0, 2});
  EXPECT_TRUE(reach2.targets.count({2, 4}) > 0);
  EXPECT_TRUE(reach2.targets.count({1, 3}) > 0);
  EXPECT_FALSE(reach2.targets.count({1, 4}) > 0);
}

TEST(TupleSearchTest, MemoizationReusesSearches) {
  GraphDb db = CycleGraph(3, "a");
  SyncRelation eqlen = Make(EqualLengthRelation(db.alphabet(), 2));
  Result<JoinMachine> machine =
      JoinMachine::Create(db.alphabet(), {{&eqlen, {0, 1}}}, 2);
  ASSERT_TRUE(machine.ok());
  Result<TupleSearcher> searcher = TupleSearcher::Create(&db, &*machine);
  ASSERT_TRUE(searcher.ok());
  searcher->Reach({0, 1});
  const size_t explored_once = searcher->TotalExploredStates();
  searcher->Reach({0, 1});  // Memoized: no new exploration.
  EXPECT_EQ(searcher->TotalExploredStates(), explored_once);
  EXPECT_EQ(searcher->NumMemoizedSources(), 1u);
  searcher->Reach({1, 2});
  EXPECT_EQ(searcher->NumMemoizedSources(), 2u);
  EXPECT_GT(searcher->TotalExploredStates(), explored_once);
}

TEST(TupleSearchTest, BudgetAborts) {
  // The session's budget is the searcher's only limit: the BFS polls it
  // every 1024 pops, so a 3-state cap trips at the first poll and the
  // reach set comes back marked aborted.
  Rng rng(3);
  GraphDb db = RandomGraph(&rng, 64, 3.0, 2);
  SyncRelation eqlen = Make(EqualLengthRelation(db.alphabet(), 2));
  Result<JoinMachine> machine =
      JoinMachine::Create(db.alphabet(), {{&eqlen, {0, 1}}}, 2);
  ASSERT_TRUE(machine.ok());
  obs::Session session;
  obs::EvalBudget budget;
  budget.max_product_states = 3;
  session.SetBudget(budget);
  TupleSearchOptions options;
  options.obs = &session;
  Result<TupleSearcher> searcher =
      TupleSearcher::Create(&db, &*machine, options);
  ASSERT_TRUE(searcher.ok());
  const ReachSet& reach = searcher->Reach({0, 1});
  EXPECT_TRUE(reach.aborted);
  EXPECT_TRUE(session.Exhausted());
  EXPECT_STREQ(session.exhausted_reason(), "max_product_states");
}

TEST(TupleSearchTest, WitnessPathsAreConsistent) {
  GraphDb db = CycleGraph(5, "a");
  SyncRelation eqlen = Make(EqualLengthRelation(db.alphabet(), 2));
  Result<JoinMachine> machine =
      JoinMachine::Create(db.alphabet(), {{&eqlen, {0, 1}}}, 2);
  ASSERT_TRUE(machine.ok());
  Result<TupleSearcher> searcher = TupleSearcher::Create(&db, &*machine);
  ASSERT_TRUE(searcher.ok());
  const auto witness = searcher->WitnessPaths({0, 1}, {2, 3});
  ASSERT_TRUE(witness.has_value());
  ASSERT_EQ(witness->size(), 2u);
  EXPECT_EQ((*witness)[0].size(), (*witness)[1].size());  // Equal lengths.
  const std::vector<VertexId> starts = {0, 1};
  const std::vector<VertexId> ends = {2, 3};
  for (int tape = 0; tape < 2; ++tape) {
    VertexId cur = starts[tape];
    for (const PathStep& step : (*witness)[tape]) {
      EXPECT_EQ(step.from, cur);
      EXPECT_TRUE(db.HasEdge(step.from, step.symbol, step.to));
      cur = step.to;
    }
    EXPECT_EQ(cur, ends[tape]);
  }
  EXPECT_FALSE(searcher->WitnessPaths({0, 1}, {2, 4}).has_value());
}

TEST(TupleSearchTest, UnconstrainedComponentIsPlainReachability) {
  // Empty join machine over one tape: Reach = reachable vertices.
  GraphDb db = PathGraph(4, "a");
  Result<JoinMachine> machine = JoinMachine::Create(db.alphabet(), {}, 1);
  ASSERT_TRUE(machine.ok());
  Result<TupleSearcher> searcher = TupleSearcher::Create(&db, &*machine);
  ASSERT_TRUE(searcher.ok());
  const ReachSet& reach = searcher->Reach({1});
  EXPECT_EQ(reach.targets.size(), 3u);  // 1, 2, 3.
  EXPECT_TRUE(reach.targets.count({3}) > 0);
  EXPECT_FALSE(reach.targets.count({0}) > 0);
}

TEST(TupleSearchTest, PrefixAcrossTwoTapes) {
  // label(p0) must be a prefix of label(p1): on a path graph both paths
  // from the same vertex walk the same labels, so any (t0, t1) with
  // t0 - s <= t1 - s works.
  GraphDb db = PathGraph(5, "ab");
  SyncRelation prefix = Make(PrefixRelation(db.alphabet()));
  Result<JoinMachine> machine =
      JoinMachine::Create(db.alphabet(), {{&prefix, {0, 1}}}, 2);
  ASSERT_TRUE(machine.ok());
  Result<TupleSearcher> searcher = TupleSearcher::Create(&db, &*machine);
  ASSERT_TRUE(searcher.ok());
  EXPECT_TRUE(searcher->Check({0, 0}, {2, 3}));
  EXPECT_TRUE(searcher->Check({0, 0}, {2, 2}));
  EXPECT_FALSE(searcher->Check({0, 0}, {3, 2}));
}

}  // namespace
}  // namespace ecrpq
