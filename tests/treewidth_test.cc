#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "structure/tree_decomposition.h"
#include "structure/treewidth.h"

namespace ecrpq {
namespace {

SimpleGraph PathGraphSimple(int n) {
  SimpleGraph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

SimpleGraph CycleGraphSimple(int n) {
  SimpleGraph g = PathGraphSimple(n);
  g.AddEdge(n - 1, 0);
  return g;
}

SimpleGraph CompleteGraph(int n) {
  SimpleGraph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) g.AddEdge(i, j);
  }
  return g;
}

SimpleGraph GridGraphSimple(int w, int h) {
  SimpleGraph g(w * h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (x + 1 < w) g.AddEdge(y * w + x, y * w + x + 1);
      if (y + 1 < h) g.AddEdge(y * w + x, (y + 1) * w + x);
    }
  }
  return g;
}

SimpleGraph RandomSimpleGraph(Rng* rng, int n, double p) {
  SimpleGraph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng->Chance(p)) g.AddEdge(i, j);
    }
  }
  return g;
}

TEST(TreewidthExactTest, KnownValues) {
  EXPECT_EQ(TreewidthExact(SimpleGraph(0))->width, 0);
  EXPECT_EQ(TreewidthExact(SimpleGraph(3))->width, 0);  // No edges.
  EXPECT_EQ(TreewidthExact(PathGraphSimple(8))->width, 1);
  EXPECT_EQ(TreewidthExact(CycleGraphSimple(8))->width, 2);
  EXPECT_EQ(TreewidthExact(CompleteGraph(5))->width, 4);
  EXPECT_EQ(TreewidthExact(GridGraphSimple(3, 3))->width, 3);
  EXPECT_EQ(TreewidthExact(GridGraphSimple(4, 4))->width, 4);
}

TEST(TreewidthExactTest, RefusesLargeGraphs) {
  EXPECT_FALSE(TreewidthExact(PathGraphSimple(25), 20).ok());
}

TEST(TreewidthHeuristicTest, UpperBoundsExact) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const SimpleGraph g = RandomSimpleGraph(&rng, 9, 0.3);
    const int exact = TreewidthExact(g)->width;
    EXPECT_GE(TreewidthMinDegree(g).width, exact);
    EXPECT_GE(TreewidthMinFill(g).width, exact);
    EXPECT_GE(exact, DegeneracyLowerBound(g));
  }
}

TEST(TreewidthHeuristicTest, ExactOnEasyFamilies) {
  // Min-fill is exact on chordal-ish families like paths and cliques.
  EXPECT_EQ(TreewidthMinFill(PathGraphSimple(10)).width, 1);
  EXPECT_EQ(TreewidthMinFill(CompleteGraph(6)).width, 5);
  EXPECT_EQ(TreewidthMinDegree(CycleGraphSimple(10)).width, 2);
}

// Valid, as wide as the elimination order says, and non-redundant: no bag
// is a subset of a tree neighbour.
void ExpectValidNonRedundant(const SimpleGraph& g,
                             const TreewidthResult& tw) {
  const TreeDecomposition td =
      DecompositionFromEliminationOrder(g, tw.elimination_order);
  const Status valid = ValidateTreeDecomposition(g, td);
  EXPECT_TRUE(valid.ok()) << valid;
  EXPECT_EQ(td.Width(), tw.width);
  for (const auto& [a, b] : td.edges) {
    const std::vector<int>& x = td.bags[a];
    const std::vector<int>& y = td.bags[b];
    EXPECT_FALSE(std::includes(y.begin(), y.end(), x.begin(), x.end()))
        << "bag " << a << " is a subset of its neighbour " << b;
    EXPECT_FALSE(std::includes(x.begin(), x.end(), y.begin(), y.end()))
        << "bag " << b << " is a subset of its neighbour " << a;
  }
}

TEST(TreeDecompositionTest, FromEliminationOrderIsValid) {
  Rng rng(2);
  std::vector<SimpleGraph> graphs;
  for (int trial = 0; trial < 20; ++trial) {
    graphs.push_back(RandomSimpleGraph(&rng, 10, 0.25));
  }
  graphs.push_back(CompleteGraph(1));
  graphs.push_back(CompleteGraph(4));
  graphs.push_back(CompleteGraph(7));
  graphs.push_back(CycleGraphSimple(3));
  graphs.push_back(CycleGraphSimple(9));
  graphs.push_back(GridGraphSimple(3, 3));
  graphs.push_back(GridGraphSimple(4, 5));
  SimpleGraph disconnected(9);  // A triangle, an edge, a path, and a loner.
  disconnected.AddEdge(0, 1);
  disconnected.AddEdge(1, 2);
  disconnected.AddEdge(2, 0);
  disconnected.AddEdge(3, 4);
  disconnected.AddEdge(5, 6);
  disconnected.AddEdge(6, 7);
  graphs.push_back(disconnected);
  graphs.push_back(SimpleGraph(5));  // No edges at all.
  for (size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE("graph " + std::to_string(i));
    ExpectValidNonRedundant(graphs[i], TreewidthMinFill(graphs[i]));
    ExpectValidNonRedundant(graphs[i], TreewidthMinDegree(graphs[i]));
  }
}

TEST(TreeDecompositionTest, CliqueIsOneBag) {
  // Elimination leaves nested bags of 4, 3, 2 and 1 vertices; all but the
  // first are subsets of a neighbour.
  const SimpleGraph g = CompleteGraph(4);
  const TreeDecomposition td =
      DecompositionFromEliminationOrder(g, {0, 1, 2, 3});
  ASSERT_EQ(td.bags.size(), 1u);
  EXPECT_EQ(td.bags[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(td.edges.empty());
}

TEST(TreeDecompositionTest, ExactOrderYieldsExactWidthDecomposition) {
  const SimpleGraph g = GridGraphSimple(3, 3);
  Result<TreewidthResult> tw = TreewidthExact(g);
  ASSERT_TRUE(tw.ok());
  const TreeDecomposition td =
      DecompositionFromEliminationOrder(g, tw->elimination_order);
  EXPECT_TRUE(ValidateTreeDecomposition(g, td).ok());
  EXPECT_EQ(td.Width(), tw->width);
}

TEST(TreeDecompositionTest, DisconnectedGraphBecomesOneTree) {
  SimpleGraph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);  // Two components + isolated vertices 4, 5.
  const TreewidthResult tw = TreewidthMinDegree(g);
  const TreeDecomposition td =
      DecompositionFromEliminationOrder(g, tw.elimination_order);
  EXPECT_TRUE(ValidateTreeDecomposition(g, td).ok());
}

TEST(TreeDecompositionTest, ValidatorCatchesViolations) {
  const SimpleGraph g = PathGraphSimple(3);
  // Missing edge coverage.
  TreeDecomposition bad;
  bad.bags = {{0, 1}, {2}};
  bad.edges = {{0, 1}};
  EXPECT_FALSE(ValidateTreeDecomposition(g, bad).ok());
  // Disconnected occurrence of vertex 1.
  TreeDecomposition split;
  split.bags = {{0, 1}, {2}, {1, 2}};
  split.edges = {{0, 1}, {1, 2}};
  EXPECT_FALSE(ValidateTreeDecomposition(g, split).ok());
  // Valid decomposition for reference.
  TreeDecomposition good;
  good.bags = {{0, 1}, {1, 2}};
  good.edges = {{0, 1}};
  EXPECT_TRUE(ValidateTreeDecomposition(g, good).ok());
  EXPECT_EQ(good.Width(), 1);
}

TEST(TreewidthBestTest, PicksExactWhenSmall) {
  const TreewidthResult r = TreewidthBest(CycleGraphSimple(10));
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.width, 2);
  // 25 vertices, beyond the DP's threshold, and the bounds differ
  // (degeneracy 2, treewidth 5): the result is a heuristic upper bound.
  const TreewidthResult big = TreewidthBest(GridGraphSimple(5, 5));
  EXPECT_FALSE(big.exact);
  EXPECT_GE(big.width, 5);
}

TEST(TreewidthBestTest, MeetingBoundsSkipTheExactDp) {
  // Paths: min-fill width 1 = degeneracy 1, proven exact at any size.
  const TreewidthResult path = TreewidthBest(PathGraphSimple(40));
  EXPECT_TRUE(path.exact);
  EXPECT_EQ(path.width, 1);
  // The 3x3 grid has degeneracy 2 but treewidth 3: the bounds differ, so
  // the exact DP still runs and proves 3.
  const SimpleGraph grid = GridGraphSimple(3, 3);
  EXPECT_EQ(DegeneracyLowerBound(grid), 2);
  const TreewidthResult exact = TreewidthBest(grid);
  EXPECT_TRUE(exact.exact);
  EXPECT_EQ(exact.width, 3);
}

}  // namespace
}  // namespace ecrpq
