#include "structure/treewidth.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/check.h"
#include "structure/tree_decomposition.h"

namespace ecrpq {
namespace {

// Debug invariant: the decomposition induced by the reported elimination
// order is valid for the graph and its bags realize the declared width.
void CheckWidthMatchesOrder(const SimpleGraph& graph,
                            const TreewidthResult& result) {
#if ECRPQ_DCHECK_IS_ON
  if (graph.NumVertices() == 0) return;
  const TreeDecomposition td =
      DecompositionFromEliminationOrder(graph, result.elimination_order);
  td.CheckInvariantsFor(graph);
  ECRPQ_CHECK_EQ(td.Width(), result.width)
      << "TreewidthResult: declared width does not match the bags of its "
         "elimination order";
#else
  (void)graph;
  (void)result;
#endif
}

// Shared greedy elimination: pick(v, adj) returns the cost of eliminating v
// next; the minimum-cost vertex is eliminated.
template <typename CostFn>
TreewidthResult GreedyElimination(const SimpleGraph& graph, CostFn cost) {
  const int n = graph.NumVertices();
  std::vector<std::set<int>> adj(n);
  for (int u = 0; u < n; ++u) {
    for (int v : graph.Neighbors(u)) adj[u].insert(v);
  }
  std::vector<bool> eliminated(n, false);
  TreewidthResult result;
  result.width = -1;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    long best_cost = 0;
    for (int v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      const long c = cost(v, adj);
      if (best < 0 || c < best_cost) {
        best = v;
        best_cost = c;
      }
    }
    result.elimination_order.push_back(best);
    result.width = std::max(result.width, static_cast<int>(adj[best].size()));
    // Eliminate: clique-ify neighbors, remove best.
    std::vector<int> nbrs(adj[best].begin(), adj[best].end());
    for (int u : nbrs) adj[u].erase(best);
    for (size_t a = 0; a < nbrs.size(); ++a) {
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        adj[nbrs[a]].insert(nbrs[b]);
        adj[nbrs[b]].insert(nbrs[a]);
      }
    }
    adj[best].clear();
    eliminated[best] = true;
  }
  result.width = std::max(result.width, 0);
  if (n == 0) result.width = 0;
  return result;
}

}  // namespace

TreewidthResult TreewidthMinDegree(const SimpleGraph& graph) {
  TreewidthResult r = GreedyElimination(
      graph, [](int v, const std::vector<std::set<int>>& adj) {
        return static_cast<long>(adj[v].size());
      });
  r.exact = false;
  CheckWidthMatchesOrder(graph, r);
  return r;
}

TreewidthResult TreewidthMinFill(const SimpleGraph& graph) {
  TreewidthResult r = GreedyElimination(
      graph, [](int v, const std::vector<std::set<int>>& adj) {
        long fill = 0;
        const std::set<int>& nbrs = adj[v];
        for (auto it = nbrs.begin(); it != nbrs.end(); ++it) {
          auto jt = it;
          for (++jt; jt != nbrs.end(); ++jt) {
            if (!adj[*it].count(*jt)) ++fill;
          }
        }
        return fill;
      });
  r.exact = false;
  CheckWidthMatchesOrder(graph, r);
  return r;
}

Result<TreewidthResult> TreewidthExact(const SimpleGraph& graph,
                                       int max_vertices) {
  const int n = graph.NumVertices();
  if (n > max_vertices) {
    return Status::CapacityExceeded(
        "exact treewidth limited to " + std::to_string(max_vertices) +
        " vertices; got " + std::to_string(n));
  }
  TreewidthResult result;
  result.exact = true;
  if (n == 0) {
    result.width = 0;
    return result;
  }
  ECRPQ_CHECK_LE(n, 30);

  // Adjacency bitmasks.
  std::vector<uint32_t> adj(n, 0);
  for (int u = 0; u < n; ++u) {
    for (int v : graph.Neighbors(u)) adj[u] |= uint32_t{1} << v;
  }

  // q(S, v) = |{w ∉ S ∪ {v} : w reachable from v via vertices of S}| — the
  // degree of v at elimination time if S was eliminated before it.
  auto q = [&](uint32_t s, int v) -> int {
    uint32_t reached = uint32_t{1} << v;
    uint32_t frontier = reached;
    uint32_t result_set = 0;
    while (frontier != 0) {
      uint32_t next = 0;
      uint32_t f = frontier;
      while (f != 0) {
        const int x = __builtin_ctz(f);
        f &= f - 1;
        next |= adj[x];
      }
      next &= ~reached;
      result_set |= next & ~s;
      // Continue expanding only through S.
      frontier = next & s;
      reached |= next;
    }
    result_set &= ~(uint32_t{1} << v);
    return __builtin_popcount(result_set);
  };

  // DP over subsets: g[S] = min over elimination orders of S (eliminated
  // first) of the max elimination degree, where later vertices are intact.
  const uint32_t full = (n == 32) ? ~uint32_t{0} : ((uint32_t{1} << n) - 1);
  std::vector<uint8_t> g(static_cast<size_t>(full) + 1, 255);
  std::vector<int8_t> choice(static_cast<size_t>(full) + 1, -1);
  g[0] = 0;
  for (uint32_t s = 1; s <= full; ++s) {
    uint32_t bits = s;
    int best = 255;
    int best_v = -1;
    while (bits != 0) {
      const int v = __builtin_ctz(bits);
      bits &= bits - 1;
      const uint32_t prev = s & ~(uint32_t{1} << v);
      const int cand = std::max<int>(g[prev], q(prev, v));
      if (cand < best) {
        best = cand;
        best_v = v;
      }
    }
    g[s] = static_cast<uint8_t>(best);
    choice[s] = static_cast<int8_t>(best_v);
  }
  result.width = g[full];

  // Reconstruct the elimination order.
  std::vector<int> order;
  uint32_t s = full;
  while (s != 0) {
    const int v = choice[s];
    order.push_back(v);
    s &= ~(uint32_t{1} << v);
  }
  std::reverse(order.begin(), order.end());
  result.elimination_order = std::move(order);
  CheckWidthMatchesOrder(graph, result);
  return result;
}

int DegeneracyLowerBound(const SimpleGraph& graph) {
  const int n = graph.NumVertices();
  std::vector<int> degree(n);
  std::vector<bool> removed(n, false);
  for (int v = 0; v < n; ++v) {
    degree[v] = static_cast<int>(graph.Neighbors(v).size());
  }
  int degeneracy = 0;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (!removed[v] && (best < 0 || degree[v] < degree[best])) best = v;
    }
    degeneracy = std::max(degeneracy, degree[best]);
    removed[best] = true;
    for (int u : graph.Neighbors(best)) {
      if (!removed[u]) --degree[u];
    }
  }
  return degeneracy;
}

TreewidthResult TreewidthBest(const SimpleGraph& graph, int exact_threshold) {
  TreewidthResult a = TreewidthMinFill(graph);
  TreewidthResult b = TreewidthMinDegree(graph);
  TreewidthResult best = a.width <= b.width ? std::move(a) : std::move(b);
  if (best.width == DegeneracyLowerBound(graph)) {
    best.exact = true;  // The upper bound meets the lower bound.
    return best;
  }
  if (graph.NumVertices() <= exact_threshold) {
    Result<TreewidthResult> exact = TreewidthExact(graph, exact_threshold);
    if (exact.ok()) return std::move(exact).ValueOrDie();
  }
  return best;
}

}  // namespace ecrpq
