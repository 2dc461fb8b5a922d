// Intersection non-emptiness (INE) — the paper's complexity yardstick.
//
// INE for regular languages is PSPACE-complete [Kozen'77]; its parameterized
// version p-IE (parameter = number of automata) is XNL-complete [20 in the
// paper]. The lower-bound reductions of Lemmas 5.1 and 5.4 reduce (p-)INE to
// (p-)eval-ECRPQ; this module provides the independent solver used to
// differential-test those reductions and to benchmark against.
#ifndef ECRPQ_AUTOMATA_INE_H_
#define ECRPQ_AUTOMATA_INE_H_

#include <optional>
#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"

namespace ecrpq {

struct IneResult {
  // True iff the intersection is non-empty.
  bool non_empty = false;
  // Shortest word in the intersection when non-empty.
  std::vector<Label> witness;
  // Number of product states explored (the PSPACE-ness made visible).
  size_t explored_states = 0;
};

// On-the-fly BFS over the product of the automata. Never materializes the
// product automaton. Works for NFAs with ε-transitions.
IneResult IntersectionNonEmpty(const std::vector<const Nfa*>& automata);

// Convenience overload for DFAs.
IneResult IntersectionNonEmpty(const std::vector<const Dfa*>& automata);

}  // namespace ecrpq

#endif  // ECRPQ_AUTOMATA_INE_H_
