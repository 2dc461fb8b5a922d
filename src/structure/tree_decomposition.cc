#include "structure/tree_decomposition.h"

#include <algorithm>
#include <set>
#include <string>

#include "common/check.h"

namespace ecrpq {
namespace {

// Merges every bag that is a subset of a tree neighbour into that
// neighbour, until no tree edge joins a bag to a superset of it. Merging
// contracts the edge, and the merged bag is the neighbour's, so the
// decomposition stays valid and its width is unchanged. Surviving bags keep
// their relative order.
void ContractSubsumedBags(TreeDecomposition* td) {
  const int num_bags = static_cast<int>(td->bags.size());
  std::vector<std::vector<int>> adj(num_bags);
  for (const auto& [a, b] : td->edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<bool> alive(num_bags, true);
  auto subset_of = [td](int a, int b) {
    return std::includes(td->bags[b].begin(), td->bags[b].end(),
                         td->bags[a].begin(), td->bags[a].end());
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (int b = 0; b < num_bags; ++b) {
      if (!alive[b]) continue;
      const auto into = std::find_if(adj[b].begin(), adj[b].end(),
                                     [&](int c) { return subset_of(b, c); });
      if (into == adj[b].end()) continue;
      const int keep = *into;
      std::erase(adj[keep], b);
      for (const int c : adj[b]) {
        if (c == keep) continue;
        std::replace(adj[c].begin(), adj[c].end(), b, keep);
        adj[keep].push_back(c);
      }
      adj[b].clear();
      alive[b] = false;
      changed = true;
    }
  }
  std::vector<int> id(num_bags, -1);
  std::vector<std::vector<int>> bags;
  for (int b = 0; b < num_bags; ++b) {
    if (!alive[b]) continue;
    id[b] = static_cast<int>(bags.size());
    bags.push_back(std::move(td->bags[b]));
  }
  td->edges.clear();
  for (int b = 0; b < num_bags; ++b) {
    for (const int c : adj[b]) {
      if (b < c) td->edges.emplace_back(id[b], id[c]);
    }
  }
  td->bags = std::move(bags);
}

}  // namespace

int TreeDecomposition::Width() const {
  int width = -1;
  for (const auto& bag : bags) {
    width = std::max(width, static_cast<int>(bag.size()) - 1);
  }
  return width;
}

void TreeDecomposition::CheckInvariants() const {
  const int num_bags = static_cast<int>(bags.size());
  for (int b = 0; b < num_bags; ++b) {
    const std::vector<int>& bag = bags[b];
    ECRPQ_CHECK(std::is_sorted(bag.begin(), bag.end()))
        << "TreeDecomposition: bag " << b << " is not sorted";
    ECRPQ_CHECK(std::adjacent_find(bag.begin(), bag.end()) == bag.end())
        << "TreeDecomposition: bag " << b << " has duplicate vertices";
    for (const int v : bag) {
      ECRPQ_CHECK_GE(v, 0) << "TreeDecomposition: negative vertex in bag "
                           << b;
    }
  }
  ECRPQ_CHECK(edges.empty() ||
              static_cast<int>(edges.size()) <= num_bags - 1)
      << "TreeDecomposition: more tree edges than a tree allows";
  for (const auto& [a, b] : edges) {
    ECRPQ_CHECK(a >= 0 && a < num_bags && b >= 0 && b < num_bags)
        << "TreeDecomposition: tree edge (" << a << ", " << b
        << ") references a missing bag";
    ECRPQ_CHECK_NE(a, b) << "TreeDecomposition: self-loop tree edge";
  }
}

void TreeDecomposition::CheckInvariantsFor(const SimpleGraph& graph) const {
  CheckInvariants();
  const Status status = ValidateTreeDecomposition(graph, *this);
  ECRPQ_CHECK(status.ok())
      << "TreeDecomposition: invalid for graph: " << status.ToString();
  int max_bag = -1;
  for (const auto& bag : bags) {
    max_bag = std::max(max_bag, static_cast<int>(bag.size()) - 1);
  }
  ECRPQ_CHECK_EQ(Width(), max_bag)
      << "TreeDecomposition: declared width out of sync with bags";
}

Status ValidateTreeDecomposition(const SimpleGraph& graph,
                                 const TreeDecomposition& td) {
  const int n = graph.NumVertices();
  if (n == 0) return Status::OK();
  if (td.bags.empty()) return Status::Invalid("no bags for non-empty graph");

  // Vertex and edge coverage.
  std::vector<bool> vertex_covered(n, false);
  for (const auto& bag : td.bags) {
    for (int v : bag) {
      if (v < 0 || v >= n) return Status::Invalid("bag vertex out of range");
      vertex_covered[v] = true;
    }
  }
  for (int v = 0; v < n; ++v) {
    if (!vertex_covered[v]) {
      return Status::Invalid("vertex " + std::to_string(v) + " not in a bag");
    }
  }
  auto bag_contains = [&](int b, int v) {
    return std::binary_search(td.bags[b].begin(), td.bags[b].end(), v);
  };
  for (int u = 0; u < n; ++u) {
    for (int v : graph.Neighbors(u)) {
      if (v < u) continue;
      bool found = false;
      for (size_t b = 0; b < td.bags.size() && !found; ++b) {
        found = bag_contains(static_cast<int>(b), u) &&
                bag_contains(static_cast<int>(b), v);
      }
      if (!found) {
        return Status::Invalid("edge (" + std::to_string(u) + ", " +
                               std::to_string(v) + ") not inside any bag");
      }
    }
  }

  // Tree-ness: connected and |edges| == |bags| - 1.
  const int num_bags = static_cast<int>(td.bags.size());
  if (static_cast<int>(td.edges.size()) != num_bags - 1) {
    return Status::Invalid("bag graph is not a tree (edge count)");
  }
  std::vector<std::vector<int>> adj(num_bags);
  for (const auto& [a, b] : td.edges) {
    if (a < 0 || a >= num_bags || b < 0 || b >= num_bags) {
      return Status::Invalid("tree edge out of range");
    }
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<bool> seen(num_bags, false);
  std::vector<int> stack{0};
  seen[0] = true;
  int count = 1;
  while (!stack.empty()) {
    const int b = stack.back();
    stack.pop_back();
    for (int nb : adj[b]) {
      if (!seen[nb]) {
        seen[nb] = true;
        ++count;
        stack.push_back(nb);
      }
    }
  }
  if (count != num_bags) return Status::Invalid("bag graph is disconnected");

  // Connected-occurrence condition: for each vertex, the bags containing it
  // form a subtree. Since the bag graph is a tree, it suffices to check the
  // induced subgraph is connected.
  for (int v = 0; v < n; ++v) {
    std::vector<int> holder;
    for (int b = 0; b < num_bags; ++b) {
      if (bag_contains(b, v)) holder.push_back(b);
    }
    if (holder.empty()) continue;
    std::set<int> holder_set(holder.begin(), holder.end());
    std::vector<int> stack2{holder[0]};
    std::set<int> reached{holder[0]};
    while (!stack2.empty()) {
      const int b = stack2.back();
      stack2.pop_back();
      for (int nb : adj[b]) {
        if (holder_set.count(nb) && !reached.count(nb)) {
          reached.insert(nb);
          stack2.push_back(nb);
        }
      }
    }
    if (reached.size() != holder_set.size()) {
      return Status::Invalid("bags containing vertex " + std::to_string(v) +
                             " are not connected");
    }
  }
  return Status::OK();
}

TreeDecomposition DecompositionFromEliminationOrder(
    const SimpleGraph& graph, const std::vector<int>& order) {
  const int n = graph.NumVertices();
  ECRPQ_CHECK_EQ(static_cast<int>(order.size()), n);
  TreeDecomposition td;
  if (n == 0) return td;

  std::vector<int> position(n);
  for (int i = 0; i < n; ++i) position[order[i]] = i;

  // Fill-in simulation with neighbor sets.
  std::vector<std::set<int>> adj(n);
  for (int u = 0; u < n; ++u) {
    for (int v : graph.Neighbors(u)) adj[u].insert(v);
  }

  td.bags.resize(n);
  std::vector<int> bag_of(n);
  std::vector<std::pair<int, int>> pending;  // (bag index, successor vertex).
  for (int i = 0; i < n; ++i) {
    const int v = order[i];
    bag_of[v] = i;
    std::vector<int> bag(adj[v].begin(), adj[v].end());
    bag.push_back(v);
    std::sort(bag.begin(), bag.end());
    td.bags[i] = std::move(bag);
    // Fill in: connect all remaining neighbors pairwise; remove v.
    std::vector<int> nbrs(adj[v].begin(), adj[v].end());
    for (int u : nbrs) adj[u].erase(v);
    for (size_t a = 0; a < nbrs.size(); ++a) {
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        adj[nbrs[a]].insert(nbrs[b]);
        adj[nbrs[b]].insert(nbrs[a]);
      }
    }
    // Tree edge to the earliest-later-eliminated neighbor.
    int successor = -1;
    for (int u : nbrs) {
      if (successor < 0 || position[u] < position[successor]) successor = u;
    }
    if (successor >= 0) {
      // The successor's bag is created later; record the edge afterwards.
      pending.push_back({i, successor});
    }
  }
  for (const auto& [bag_idx, succ_vertex] : pending) {
    td.edges.emplace_back(bag_idx, bag_of[succ_vertex]);
  }
  // If the graph is disconnected, the bags form a forest; connect arbitrary
  // roots so the decomposition is a single tree.
  if (static_cast<int>(td.edges.size()) < n - 1) {
    std::vector<int> comp(n, -1);
    std::vector<std::vector<int>> badj(n);
    for (const auto& [a, b] : td.edges) {
      badj[a].push_back(b);
      badj[b].push_back(a);
    }
    int num_comps = 0;
    std::vector<int> roots;
    for (int b = 0; b < n; ++b) {
      if (comp[b] >= 0) continue;
      roots.push_back(b);
      std::vector<int> stack{b};
      comp[b] = num_comps;
      while (!stack.empty()) {
        const int x = stack.back();
        stack.pop_back();
        for (int y : badj[x]) {
          if (comp[y] < 0) {
            comp[y] = num_comps;
            stack.push_back(y);
          }
        }
      }
      ++num_comps;
    }
    for (size_t i = 1; i < roots.size(); ++i) {
      td.edges.emplace_back(roots[0], roots[i]);
    }
  }
  ContractSubsumedBags(&td);
  ECRPQ_DCHECK_INVARIANT(td);
  return td;
}

}  // namespace ecrpq
