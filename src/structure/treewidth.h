// Treewidth computation: exact dynamic programming for small graphs,
// min-degree / min-fill heuristics for larger ones, and a degeneracy lower
// bound.
#ifndef ECRPQ_STRUCTURE_TREEWIDTH_H_
#define ECRPQ_STRUCTURE_TREEWIDTH_H_

#include <vector>

#include "common/result.h"
#include "structure/two_level_graph.h"

namespace ecrpq {

struct TreewidthResult {
  int width = 0;
  std::vector<int> elimination_order;
  bool exact = false;
};

// Greedy elimination by minimum current degree. Upper bound.
TreewidthResult TreewidthMinDegree(const SimpleGraph& graph);

// Greedy elimination by minimum fill-in. Upper bound; usually tighter.
TreewidthResult TreewidthMinFill(const SimpleGraph& graph);

// Exact treewidth by Held–Karp-style DP over vertex subsets
// (Bodlaender et al.): O*(2^n). Errors if n > max_vertices.
Result<TreewidthResult> TreewidthExact(const SimpleGraph& graph,
                                       int max_vertices = 20);

// Degeneracy of the graph — a lower bound on treewidth.
int DegeneracyLowerBound(const SimpleGraph& graph);

// The better of the two heuristics, marked exact, when its width equals
// DegeneracyLowerBound; otherwise the exact DP when n <= exact_threshold,
// else the better heuristic. Never errors.
TreewidthResult TreewidthBest(const SimpleGraph& graph,
                              int exact_threshold = 18);

}  // namespace ecrpq

#endif  // ECRPQ_STRUCTURE_TREEWIDTH_H_
