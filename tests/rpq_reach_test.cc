#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "automata/regex.h"
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

TEST(RpqReachTest, SingleSourceOnPath) {
  // Path a a a a: from vertex 0, language a* reaches everything; language
  // aa reaches exactly vertex 2.
  const GraphDb db = PathGraph(5, "a");
  Alphabet alphabet = Alphabet::OfChars("a");
  const Nfa astar = Compile("a*", &alphabet);
  EXPECT_EQ(RpqReachFrom(db, astar, 0),
            (std::vector<VertexId>{0, 1, 2, 3, 4}));
  const Nfa aa = Compile("aa", &alphabet);
  EXPECT_EQ(RpqReachFrom(db, aa, 0), (std::vector<VertexId>{2}));
  EXPECT_EQ(RpqReachFrom(db, aa, 3), (std::vector<VertexId>{}));
}

TEST(RpqReachTest, EmptyPathMatchesEpsilonLanguage) {
  const GraphDb db = PathGraph(3, "a");
  Alphabet alphabet = Alphabet::OfChars("a");
  const Nfa eps = Compile("", &alphabet);
  EXPECT_EQ(RpqReachFrom(db, eps, 1), (std::vector<VertexId>{1}));
}

TEST(RpqReachTest, AlternatingLabelsOnCycle) {
  // Cycle abab: from 0, (ab)* returns to even positions.
  const GraphDb db = CycleGraph(4, "ab");
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa abstar = Compile("(ab)*", &alphabet);
  EXPECT_EQ(RpqReachFrom(db, abstar, 0), (std::vector<VertexId>{0, 2}));
}

TEST(RpqReachTest, ReachAllMatchesPerSource) {
  Rng rng(10);
  const GraphDb db = RandomGraph(&rng, 15, 2.0, 2);
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = Compile("a(a|b)*b", &alphabet);
  const std::vector<VertexId> rows = RpqReachAll(db, lang);
  ASSERT_EQ(rows.size() % 2, 0u);
  std::set<std::pair<VertexId, VertexId>> all;
  for (size_t i = 0; i < rows.size(); i += 2) {
    all.emplace(rows[i], rows[i + 1]);
  }
  EXPECT_EQ(all.size() * 2, rows.size());  // No duplicate rows.
  for (VertexId u = 0; u < 15; ++u) {
    const auto from_u = RpqReachFrom(db, lang, u);
    for (VertexId v = 0; v < 15; ++v) {
      const bool in_all = all.count({u, v}) > 0;
      const bool in_from =
          std::find(from_u.begin(), from_u.end(), v) != from_u.end();
      ASSERT_EQ(in_all, in_from) << u << " -> " << v;
    }
  }
}

TEST(RpqReachTest, DenseGraphMatchesWitnessOracle) {
  // A dense random graph with a permissive language saturates the product
  // space within a couple of levels, so most states are reached along many
  // paths at once. Correctness cross-check: the witness search runs a
  // separate sparse 0/1-BFS, so agreement between RpqReachFrom and
  // RpqWitnessPath.has_value() checks the sweep against an independent
  // traversal.
  Rng rng(77);
  const GraphDb db = RandomGraph(&rng, 24, 6.0, 2);
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = Compile("(a|b)*", &alphabet);
  for (VertexId u = 0; u < 24; ++u) {
    const std::vector<VertexId> reached = RpqReachFrom(db, lang, u);
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
        const std::vector<VertexId> rows = RpqReachAll(db, langs[l], threads);
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

TEST(RpqReachTest, WitnessPathIsValidAndInLanguage) {
  Rng rng(11);
  const GraphDb db = RandomGraph(&rng, 12, 2.5, 2);
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = Compile("(a|b)*ab", &alphabet);
  int found = 0;
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v : RpqReachFrom(db, lang, u)) {
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
