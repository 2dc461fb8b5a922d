#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "automata/regex.h"
#include "common/obs.h"
#include "common/rng.h"
#include "graphdb/generators.h"
#include "graphdb/rpq_reach.h"

namespace ecrpq {
namespace {

Nfa Compile(std::string_view pattern, Alphabet* alphabet) {
  Result<Nfa> nfa = CompileRegex(pattern, alphabet);
  EXPECT_TRUE(nfa.ok()) << nfa.status();
  return std::move(nfa).ValueOrDie();
}

// RpqReachAll's rows; an error fails the test and gives no rows.
std::vector<VertexId> ReachAll(const GraphDb& db, const Nfa& lang,
                               int num_threads = 0) {
  Result<std::vector<VertexId>> rows = RpqReachAll(db, lang, num_threads);
  EXPECT_TRUE(rows.ok()) << rows.status();
  return rows.ok() ? std::move(rows).ValueOrDie() : std::vector<VertexId>{};
}

// Source u's block of the row-major (u, v) rows: its targets, in order.
std::vector<VertexId> TargetsOf(const std::vector<VertexId>& rows,
                                VertexId u) {
  std::vector<VertexId> targets;
  for (size_t i = 0; i < rows.size(); i += 2) {
    if (rows[i] == u) targets.push_back(rows[i + 1]);
  }
  return targets;
}

TEST(RpqReachTest, SingleSourceOnPath) {
  // Path a a a a: from vertex 0, language a* reaches everything; language
  // aa reaches exactly vertex 2.
  const GraphDb db = PathGraph(5, "a");
  Alphabet alphabet = Alphabet::OfChars("a");
  const Nfa astar = Compile("a*", &alphabet);
  EXPECT_EQ(TargetsOf(ReachAll(db, astar), 0),
            (std::vector<VertexId>{0, 1, 2, 3, 4}));
  const std::vector<VertexId> aa = ReachAll(db, Compile("aa", &alphabet));
  EXPECT_EQ(TargetsOf(aa, 0), (std::vector<VertexId>{2}));
  EXPECT_EQ(TargetsOf(aa, 3), (std::vector<VertexId>{}));
}

TEST(RpqReachTest, EmptyPathMatchesEpsilonLanguage) {
  const GraphDb db = PathGraph(3, "a");
  Alphabet alphabet = Alphabet::OfChars("a");
  const Nfa eps = Compile("", &alphabet);
  EXPECT_EQ(TargetsOf(ReachAll(db, eps), 1), (std::vector<VertexId>{1}));
}

TEST(RpqReachTest, AlternatingLabelsOnCycle) {
  // Cycle abab: from 0, (ab)* returns to even positions.
  const GraphDb db = CycleGraph(4, "ab");
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa abstar = Compile("(ab)*", &alphabet);
  EXPECT_EQ(TargetsOf(ReachAll(db, abstar), 0),
            (std::vector<VertexId>{0, 2}));
}

TEST(RpqReachTest, ReachAllMatchesPerSource) {
  // Each source's block of the rows holds exactly the targets the witness
  // search, an independent 0/1-BFS, finds a path to.
  Rng rng(10);
  const GraphDb db = RandomGraph(&rng, 15, 2.0, 2);
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = Compile("a(a|b)*b", &alphabet);
  const std::vector<VertexId> rows = ReachAll(db, lang);
  ASSERT_EQ(rows.size() % 2, 0u);
  std::set<std::pair<VertexId, VertexId>> all;
  for (size_t i = 0; i < rows.size(); i += 2) {
    all.emplace(rows[i], rows[i + 1]);
  }
  EXPECT_EQ(all.size() * 2, rows.size());  // No duplicate rows.
  for (VertexId u = 0; u < 15; ++u) {
    const std::vector<VertexId> from_u = TargetsOf(rows, u);
    for (VertexId v = 0; v < 15; ++v) {
      const bool in_from =
          std::find(from_u.begin(), from_u.end(), v) != from_u.end();
      ASSERT_EQ(in_from, RpqWitnessPath(db, lang, u, v).has_value())
          << u << " -> " << v;
    }
  }
}

TEST(RpqReachTest, DenseGraphMatchesWitnessOracle) {
  // A dense random graph with a permissive language saturates the product
  // space within a couple of levels, so most states are reached along many
  // paths at once. Correctness cross-check: the witness search runs a
  // separate sparse 0/1-BFS, so agreement between each source's block of
  // RpqReachAll's rows and RpqWitnessPath.has_value() checks the sweep
  // against an independent traversal.
  Rng rng(77);
  const GraphDb db = RandomGraph(&rng, 24, 6.0, 2);
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = Compile("(a|b)*", &alphabet);
  const std::vector<VertexId> rows = ReachAll(db, lang);
  for (VertexId u = 0; u < 24; ++u) {
    const std::vector<VertexId> reached = TargetsOf(rows, u);
    for (VertexId v = 0; v < 24; ++v) {
      const bool in_reach =
          std::find(reached.begin(), reached.end(), v) != reached.end();
      ASSERT_EQ(in_reach, RpqWitnessPath(db, lang, u, v).has_value())
          << u << " -> " << v;
    }
  }
}

// a+ b with ε-moves inside and after the word: 0 -a-> 1, 1 -ε-> 0,
// 1 -ε-> 2, 2 -b-> 3, 3 -ε-> 4, only 4 accepting.
Nfa EpsilonMovesNfa() {
  constexpr Label kA = 0;
  constexpr Label kB = 1;
  Nfa nfa(5);
  nfa.SetInitial(0);
  nfa.AddTransition(0, kA, 1);
  nfa.AddTransition(1, kEpsilon, 0);
  nfa.AddTransition(1, kEpsilon, 2);
  nfa.AddTransition(2, kB, 3);
  nfa.AddTransition(3, kEpsilon, 4);
  nfa.SetAccepting(4);
  return nfa;
}

// a | b+ with two initial states: 0 -a-> 2, 1 -b-> 3, 3 -b-> 3.
Nfa TwoInitialStatesNfa() {
  constexpr Label kA = 0;
  constexpr Label kB = 1;
  Nfa nfa(4);
  nfa.SetInitial(0);
  nfa.SetInitial(1);
  nfa.AddTransition(0, kA, 2);
  nfa.AddTransition(1, kB, 3);
  nfa.AddTransition(3, kB, 3);
  nfa.SetAccepting(2);
  nfa.SetAccepting(3);
  return nfa;
}

TEST(RpqReachTest, SweepBoundariesMatchWitnessOracle) {
  // RpqReachAll searches 64 sources per sweep. The sizes give one partial
  // sweep, one full sweep, a full sweep plus a one-source tail, and three
  // sweeps; the pool sizes split them across workers. The oracle is the
  // witness search, an independent 0/1-BFS per pair, and its pairs are
  // listed in row-major order, so equality also checks the row order.
  Alphabet alphabet = Alphabet::OfChars("ab");
  const std::vector<Nfa> langs = {
      Compile("", &alphabet),   Compile("a", &alphabet),
      Compile("a*b", &alphabet), Compile("(a|b)*", &alphabet),
      EpsilonMovesNfa(),        TwoInitialStatesNfa()};
  for (int n : {1, 63, 64, 65, 130}) {
    Rng rng(static_cast<uint64_t>(n));
    const GraphDb db = RandomGraph(&rng, n, 1.5, 2);
    const VertexId num_vertices = static_cast<VertexId>(n);
    for (size_t l = 0; l < langs.size(); ++l) {
      std::vector<VertexId> expected;
      for (VertexId u = 0; u < num_vertices; ++u) {
        for (VertexId v = 0; v < num_vertices; ++v) {
          if (RpqWitnessPath(db, langs[l], u, v).has_value()) {
            expected.push_back(u);
            expected.push_back(v);
          }
        }
      }
      if (l == 0) {
        // ε: exactly the reflexive pairs.
        ASSERT_EQ(expected.size(), 2 * num_vertices) << n << " vertices";
      }
      for (int threads : {1, 2, 4}) {
        const std::vector<VertexId> rows = ReachAll(db, langs[l], threads);
        EXPECT_EQ(rows, expected)
            << n << " vertices, language " << l << ", " << threads
            << " threads";
        EXPECT_EQ(rows.capacity(), rows.size());
        for (size_t i = 2; i < rows.size(); i += 2) {
          ASSERT_LT(std::tie(rows[i - 2], rows[i - 1]),
                    std::tie(rows[i], rows[i + 1]))
              << "row " << i / 2;
        }
      }
    }
  }
}

// The sweep driver with a stand-in kernel whose rows are its sources, one
// value each: 1026 sweeps are two rounds, the second a partial one.
TEST(RpqReachTest, DriverAppendsRoundsInSweepOrder) {
  const GraphDb db = PathGraph(2, "a");
  const uint64_t num_sources = (kSweepsPerRound + 2) * kSweepWidth - 5;
  const uint64_t num_sweeps = (num_sources + kSweepWidth - 1) / kSweepWidth;
  for (int threads : {1, 4}) {
    obs::Session session;
    std::atomic<int> workers_made{0};
    Result<std::vector<VertexId>> rows = RunSweeps(
        db, num_sources, /*row_width=*/1, threads, &session,
        [&](obs::MetricsShard*) -> SweepFn {
          ++workers_made;
          return [](uint64_t first, size_t width,
                    std::vector<VertexId>* out) {
            for (size_t i = 0; i < width; ++i) {
              out->push_back(static_cast<VertexId>(first + i));
            }
            return Status::OK();
          };
        });
    ASSERT_TRUE(rows.ok()) << rows.status();
    ASSERT_EQ(rows->size(), num_sources) << threads << " threads";
    for (uint64_t i = 0; i < num_sources; ++i) {
      ASSERT_EQ((*rows)[i], i) << threads << " threads";
    }
    EXPECT_EQ(rows->capacity(), rows->size()) << threads << " threads";
    EXPECT_GE(workers_made.load(), 1) << threads << " threads";
    EXPECT_LE(workers_made.load(), threads) << threads << " threads";
    const obs::StatsReport report = session.Report();
    EXPECT_EQ(report[obs::CounterId::kTuplesMaterialized], num_sources);
    EXPECT_EQ(report.hist(obs::HistogramId::kPhaseBfsNs).Count(), num_sweeps);
  }
}

// A kernel error ends the build, and wins over the budget trip that the
// failing sweep's own charge causes. The first sweep to poll sees nothing
// charged, so some sweep always runs and fails.
TEST(RpqReachTest, DriverKernelErrorBeatsBudgetTrip) {
  const GraphDb db = PathGraph(2, "a");
  for (int threads : {1, 4}) {
    obs::Session session;
    obs::EvalBudget budget;
    budget.max_product_states = 1;
    session.SetBudget(budget);
    Result<std::vector<VertexId>> rows = RunSweeps(
        db, 8 * kSweepWidth, /*row_width=*/1, threads, &session,
        [](obs::MetricsShard* shard) -> SweepFn {
          return [shard](uint64_t, size_t, std::vector<VertexId>*) {
            obs::Add(shard, obs::CounterId::kProductStatesExpanded, 10);
            return Status::CapacityExceeded("the sweep fails");
          };
        });
    ASSERT_FALSE(rows.ok()) << threads << " threads";
    EXPECT_EQ(rows.status().code(), StatusCode::kCapacityExceeded)
        << threads << " threads";
  }
}

TEST(RpqReachTest, WitnessPathIsValidAndInLanguage) {
  Rng rng(11);
  const GraphDb db = RandomGraph(&rng, 12, 2.5, 2);
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = Compile("(a|b)*ab", &alphabet);
  const std::vector<VertexId> rows = ReachAll(db, lang);
  int found = 0;
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v : TargetsOf(rows, u)) {
      const auto path = RpqWitnessPath(db, lang, u, v);
      ASSERT_TRUE(path.has_value()) << u << " -> " << v;
      // Path is connected, starts at u, ends at v, uses real edges.
      VertexId cur = u;
      std::vector<Label> word;
      for (const PathStep& step : *path) {
        EXPECT_EQ(step.from, cur);
        EXPECT_TRUE(db.HasEdge(step.from, step.symbol, step.to));
        word.push_back(step.symbol);
        cur = step.to;
      }
      EXPECT_EQ(cur, v);
      EXPECT_TRUE(lang.Accepts(word));
      ++found;
    }
  }
  EXPECT_GT(found, 0);
}

TEST(RpqReachTest, WitnessAbsentWhenUnreachable) {
  const GraphDb db = PathGraph(3, "a");
  Alphabet alphabet = Alphabet::OfChars("a");
  const Nfa lang = Compile("a", &alphabet);
  EXPECT_FALSE(RpqWitnessPath(db, lang, 2, 0).has_value());
  EXPECT_TRUE(RpqWitnessPath(db, lang, 0, 1).has_value());
}

TEST(RpqReachTest, SelfLoopWitness) {
  // Self-loop edge must appear in the witness even though from == to.
  GraphDb db(Alphabet::OfChars("a"));
  db.AddVertices(1);
  db.AddEdge(0, "a", 0);
  Alphabet alphabet = Alphabet::OfChars("a");
  const Nfa lang = Compile("aa", &alphabet);
  const auto path = RpqWitnessPath(db, lang, 0, 0);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 2u);
}

}  // namespace
}  // namespace ecrpq
