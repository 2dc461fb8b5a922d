// Tree decompositions of simple graphs.
#ifndef ECRPQ_STRUCTURE_TREE_DECOMPOSITION_H_
#define ECRPQ_STRUCTURE_TREE_DECOMPOSITION_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "structure/two_level_graph.h"

namespace ecrpq {

struct TreeDecomposition {
  std::vector<std::vector<int>> bags;         // Sorted vertex lists.
  std::vector<std::pair<int, int>> edges;     // Tree edges between bag ids.

  // Width = max bag size - 1 (or -1 for the empty decomposition).
  int Width() const;

  // Structural invariants independent of any graph (fires ECRPQ_CHECK on
  // violation, any build mode): bags sorted/deduped with non-negative
  // members, tree edges between existing bags, and no more than |bags|-1
  // tree edges. Graph-dependent conditions (edge coverage, connected
  // occurrence) stay in ValidateTreeDecomposition / CheckInvariantsFor.
  void CheckInvariants() const;

  // Full tree-decomposition invariant against `graph`: CheckInvariants()
  // plus vertex/edge coverage and the connected-occurrence property, and
  // that the declared width matches the bags. Fires ECRPQ_CHECK on
  // violation.
  void CheckInvariantsFor(const SimpleGraph& graph) const;
};

// Checks the two tree-decomposition conditions plus tree-ness:
//  1. every graph edge is inside some bag (and every vertex in some bag);
//  2. the bags containing any fixed vertex induce a connected subtree;
//  3. the bag graph is a tree (connected, acyclic) — unless there is at most
//     one bag.
Status ValidateTreeDecomposition(const SimpleGraph& graph,
                                 const TreeDecomposition& td);

// The decomposition induced by an elimination order: eliminating v creates
// the bag {v} ∪ N(v) in the current fill-in graph, connected to the bag of
// the first later-eliminated neighbor. `order` must be a permutation of the
// vertices.
//
// The result is non-redundant: every bag that is a subset of a tree
// neighbour is merged into that neighbour before returning, so no bag is a
// subset of an adjacent one. A k-clique, which the elimination order leaves
// as nested bags of k, k-1, ..., 1 vertices, becomes the one bag of k. The
// merge contracts tree edges into the larger bag, so validity and width are
// those of the per-vertex decomposition; bag ids follow elimination order
// among the bags that remain. Evaluators pay per bag tuple (cq/eval_treedec,
// cq/count), and a bag that holds no atom of its own ranges over the whole
// domain, so the merged bags are pure saving.
TreeDecomposition DecompositionFromEliminationOrder(
    const SimpleGraph& graph, const std::vector<int>& order);

}  // namespace ecrpq

#endif  // ECRPQ_STRUCTURE_TREE_DECOMPOSITION_H_
