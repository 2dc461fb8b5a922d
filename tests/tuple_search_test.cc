#include <gtest/gtest.h>

#include <algorithm>

#include "automata/regex.h"
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
  // Equal distance d: (d mod 4, (2+d) mod 4) — four distinct pairs, in
  // target-code order (the second tape's vertex varies slowest).
  EXPECT_EQ(reach.targets, (std::vector<VertexId>{2, 0, 3, 1, 0, 2, 1, 3}));
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
  // Only (0, 1) via empty paths.
  EXPECT_EQ(reach.targets, (std::vector<VertexId>{0, 1}));
  // From 0 and 2 the labels line up (both read "abab...") until the path
  // ends at 5, so (1, 4) is not reached.
  const ReachSet& reach2 = searcher->Reach({0, 2});
  EXPECT_EQ(reach2.targets,
            (std::vector<VertexId>{0, 2, 1, 3, 2, 4, 3, 5}));
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
  // The session's budget is the searcher's only limit: the sweep polls it
  // every 1024 expanded states, so a 3-state cap trips at the first poll
  // and the reach set comes back marked aborted.
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
  EXPECT_EQ(reach.targets, (std::vector<VertexId>{1, 2, 3}));
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

// Rows of a row-major relation of `arity`, sorted, for set comparison.
std::vector<std::vector<VertexId>> SortedRows(
    const std::vector<VertexId>& flat, int arity) {
  std::vector<std::vector<VertexId>> rows;
  for (size_t i = 0; i < flat.size(); i += arity) {
    rows.emplace_back(flat.begin() + i, flat.begin() + i + arity);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// The next source or target tuple in mixed-radix order (first tape
// fastest); false after the last one.
bool NextTuple(std::vector<VertexId>* tuple, int n) {
  for (VertexId& v : *tuple) {
    if (++v < static_cast<VertexId>(n)) return true;
    v = 0;
  }
  return false;
}

// TupleReachAll at sweep boundaries: |V|^r below, at and above one 64-tuple
// sweep and over several sweeps, with and without a coinciding endpoint
// position, at pool sizes 1, 2 and 4. Rows must be those (ū, v̄) for which
// the sparse search finds witness paths; product_states_expanded must equal
// what one-tuple sweeps (Reach per source tuple) explore.
TEST(TupleSearchTest, SweepBoundariesMatchPerTupleReach) {
  const Alphabet ab = Alphabet::OfChars("ab");
  Alphabet lang_alphabet = ab;
  Result<Nfa> lang = CompileRegex("a(a|b)*", &lang_alphabet);
  ASSERT_TRUE(lang.ok()) << lang.status();
  const SyncRelation starts_with_a = Make(FromLanguage(ab, *lang));
  const SyncRelation eqlen = Make(EqualLengthRelation(ab, 2));
  const SyncRelation prefix = Make(PrefixRelation(ab));
  struct Case {
    int r;
    std::vector<JoinMachine::Component> components;
    std::vector<int> num_vertices;  // |V|^r: 1, 63, 64, 65, several sweeps.
  };
  const std::vector<Case> cases = {
      {1, {{&starts_with_a, {0}}}, {1, 63, 64, 65, 130}},
      {2, {{&eqlen, {0, 1}}}, {1, 8, 9, 12}},
      {3, {{&eqlen, {0, 1}}, {&prefix, {1, 2}}}, {1, 4, 5}},
  };
  Rng rng(17);
  for (const Case& c : cases) {
    for (const int n : c.num_vertices) {
      const GraphDb db = RandomGraph(&rng, n, 1.5, 2);
      Result<JoinMachine> machine =
          JoinMachine::Create(ab, c.components, c.r);
      ASSERT_TRUE(machine.ok()) << machine.status();
      // Oracle: the sparse search's witness paths for every (ū, v̄), and the
      // one-tuple sweeps' explored states.
      Result<JoinMachine> oracle_machine =
          JoinMachine::Create(ab, c.components, c.r);
      ASSERT_TRUE(oracle_machine.ok());
      Result<TupleSearcher> oracle =
          TupleSearcher::Create(&db, &*oracle_machine);
      ASSERT_TRUE(oracle.ok());
      std::vector<std::vector<VertexId>> related;  // Rows (u_1, v_1, ...).
      std::vector<VertexId> sources(c.r, 0);
      std::vector<VertexId> row(2 * c.r);
      do {
        oracle->Reach(sources);
        std::vector<VertexId> targets(c.r, 0);
        do {
          if (!oracle->WitnessPaths(sources, targets).has_value()) continue;
          for (int i = 0; i < c.r; ++i) {
            row[2 * i] = sources[i];
            row[2 * i + 1] = targets[i];
          }
          related.push_back(row);
        } while (NextTuple(&targets, n));
      } while (NextTuple(&sources, n));

      // Plain rows, and rows whose second source equals the first (the
      // template of a query that starts two paths at one variable).
      std::vector<std::vector<int>> same_as_cases = {
          std::vector<int>(2 * c.r, -1)};
      if (c.r >= 2) {
        same_as_cases.push_back(std::vector<int>(2 * c.r, -1));
        same_as_cases.back()[2] = 0;
      }
      for (const std::vector<int>& same_as : same_as_cases) {
        SCOPED_TRACE("r=" + std::to_string(c.r) + " |V|=" +
                     std::to_string(n) + " same_as[2]=" +
                     std::to_string(c.r >= 2 ? same_as[2] : -1));
        std::vector<std::vector<VertexId>> expected_rows;
        for (const std::vector<VertexId>& rel_row : related) {
          bool keep = true;
          for (int i = 0; i < 2 * c.r; ++i) {
            keep = keep &&
                   (same_as[i] < 0 || rel_row[i] == rel_row[same_as[i]]);
          }
          if (keep) expected_rows.push_back(rel_row);
        }
        std::sort(expected_rows.begin(), expected_rows.end());

        std::vector<VertexId> first_rows;
        for (const int threads : {1, 2, 4}) {
          obs::Session session;
          Result<std::vector<VertexId>> rows =
              TupleReachAll(db, *machine, same_as, threads, &session);
          ASSERT_TRUE(rows.ok()) << rows.status();
          EXPECT_EQ(SortedRows(*rows, 2 * c.r), expected_rows)
              << "threads " << threads;
          if (threads == 1) first_rows = *rows;
          EXPECT_EQ(*rows, first_rows) << "threads " << threads;
          const obs::StatsReport report = session.Report();
          EXPECT_EQ(report[obs::CounterId::kTuplesMaterialized],
                    expected_rows.size())
              << "threads " << threads;
          EXPECT_EQ(report[obs::CounterId::kProductStatesExpanded],
                    oracle->TotalExploredStates())
              << "threads " << threads;
        }
      }
    }
  }
}

TEST(TupleSearchTest, SweepRejectsMalformedSameAs) {
  const GraphDb db = CycleGraph(3, "a");
  Result<JoinMachine> machine = JoinMachine::Create(db.alphabet(), {}, 1);
  ASSERT_TRUE(machine.ok());
  EXPECT_FALSE(TupleReachAll(db, *machine, std::vector<int>{-1}).ok());
  EXPECT_FALSE(TupleReachAll(db, *machine, std::vector<int>{-1, 1}).ok());
  EXPECT_TRUE(TupleReachAll(db, *machine, std::vector<int>{-1, 0}).ok());
}

TEST(TupleSearchTest, SweepBudgetTripReturnsResourceExhausted) {
  // 40^2 = 1600 source tuples are 25 sweeps; a 3-state cap trips at the
  // first sweep's poll after 1024 expanded states.
  Rng rng(3);
  const GraphDb db = RandomGraph(&rng, 40, 3.0, 2);
  const SyncRelation eqlen = Make(EqualLengthRelation(db.alphabet(), 2));
  Result<JoinMachine> machine =
      JoinMachine::Create(db.alphabet(), {{&eqlen, {0, 1}}}, 2);
  ASSERT_TRUE(machine.ok());
  for (const int threads : {1, 4}) {
    obs::Session session;
    obs::EvalBudget budget;
    budget.max_product_states = 3;
    session.SetBudget(budget);
    Result<std::vector<VertexId>> rows = TupleReachAll(
        db, *machine, std::vector<int>(4, -1), threads, &session);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
    EXPECT_STREQ(session.exhausted_reason(), "max_product_states");
  }
}

// One sweep (|V|^r = 64) whose own totals cross the cap: the polls before
// and inside it see no trip, so only the final check turns the rows into
// ResourceExhausted.
TEST(TupleSearchTest, SingleSweepOverBudgetIsExhausted) {
  Rng rng(5);
  const GraphDb db = RandomGraph(&rng, 8, 2.0, 2);
  const SyncRelation eqlen = Make(EqualLengthRelation(db.alphabet(), 2));
  Result<JoinMachine> machine =
      JoinMachine::Create(db.alphabet(), {{&eqlen, {0, 1}}}, 2);
  ASSERT_TRUE(machine.ok());
  for (const int threads : {1, 4}) {
    obs::Session session;
    obs::EvalBudget budget;
    budget.max_product_states = 3;
    session.SetBudget(budget);
    Result<std::vector<VertexId>> rows = TupleReachAll(
        db, *machine, std::vector<int>(4, -1), threads, &session);
    ASSERT_FALSE(rows.ok()) << "threads " << threads;
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
    EXPECT_STREQ(session.exhausted_reason(), "max_product_states");
  }
}

}  // namespace
}  // namespace ecrpq
