#include "automata/ine.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"

namespace ecrpq {
namespace {

using Tuple = std::vector<StateId>;

struct Search {
  const std::vector<const Nfa*>& automata;

  std::unordered_map<Tuple, uint32_t, VectorHash<StateId>> id_of;
  std::vector<Tuple> tuples;
  // parent[i] = (predecessor id, label taken); label == kEpsilon for ε.
  std::vector<std::pair<uint32_t, Label>> parent;
  std::deque<uint32_t> queue;

  // Interns a tuple; pushes it to the front (ε edge) or back (letter edge)
  // of the 0/1-BFS deque if new.
  void Visit(Tuple tuple, uint32_t from, Label label, bool front) {
    auto [it, inserted] =
        id_of.emplace(std::move(tuple), static_cast<uint32_t>(tuples.size()));
    if (!inserted) return;
    tuples.push_back(it->first);
    parent.emplace_back(from, label);
    if (front) {
      queue.push_front(it->second);
    } else {
      queue.push_back(it->second);
    }
  }

  bool AllAccepting(const Tuple& tuple) const {
    for (size_t i = 0; i < automata.size(); ++i) {
      if (!automata[i]->IsAccepting(tuple[i])) return false;
    }
    return true;
  }

  std::vector<Label> ReconstructWitness(uint32_t id) const {
    std::vector<Label> word;
    while (parent[id].first != id) {
      if (parent[id].second != kEpsilon) word.push_back(parent[id].second);
      id = parent[id].first;
    }
    std::reverse(word.begin(), word.end());
    return word;
  }

  // Enumerates all successor tuples of `tuple` under letter `a`, where
  // component i must pick one of succs[i].
  void EmitLetterSuccessors(uint32_t from,
                            const std::vector<std::vector<StateId>>& succs,
                            Label a) {
    Tuple scratch(succs.size());
    EmitRec(from, succs, a, 0, &scratch);
  }

  void EmitRec(uint32_t from, const std::vector<std::vector<StateId>>& succs,
               Label a, size_t i, Tuple* scratch) {
    if (i == succs.size()) {
      Visit(*scratch, from, a, /*front=*/false);
      return;
    }
    for (StateId s : succs[i]) {
      (*scratch)[i] = s;
      EmitRec(from, succs, a, i + 1, scratch);
    }
  }
};

}  // namespace

IneResult IntersectionNonEmpty(const std::vector<const Nfa*>& automata) {
  IneResult result;
  if (automata.empty()) {
    // Empty intersection over A* — conventionally non-empty (ε).
    result.non_empty = true;
    return result;
  }

  Search search{automata, {}, {}, {}, {}};

  // Seed with the cartesian product of initial states.
  {
    Tuple scratch(automata.size());
    // Iterative cartesian product over initial-state lists.
    std::vector<size_t> idx(automata.size(), 0);
    for (const Nfa* a : automata) {
      if (a->initial().empty()) {
        result.non_empty = false;
        return result;
      }
    }
    bool done = false;
    while (!done) {
      for (size_t i = 0; i < automata.size(); ++i) {
        scratch[i] = automata[i]->initial()[idx[i]];
      }
      Tuple seed = scratch;
      auto [it, inserted] = search.id_of.emplace(
          std::move(seed), static_cast<uint32_t>(search.tuples.size()));
      if (inserted) {
        search.tuples.push_back(it->first);
        search.parent.emplace_back(it->second, kEpsilon);
        search.queue.push_back(it->second);
      }
      // Advance mixed-radix counter.
      size_t i = 0;
      for (; i < automata.size(); ++i) {
        if (++idx[i] < automata[i]->initial().size()) break;
        idx[i] = 0;
      }
      done = (i == automata.size());
    }
  }

  while (!search.queue.empty()) {
    const uint32_t id = search.queue.front();
    search.queue.pop_front();
    const Tuple tuple = search.tuples[id];  // Copy: vector may reallocate.

    if (search.AllAccepting(tuple)) {
      result.non_empty = true;
      result.witness = search.ReconstructWitness(id);
      result.explored_states = search.tuples.size();
      return result;
    }

    // ε moves: one component at a time.
    for (size_t i = 0; i < automata.size(); ++i) {
      for (const Nfa::Transition& t : automata[i]->TransitionsFrom(tuple[i])) {
        if (t.label != kEpsilon) continue;
        Tuple next = tuple;
        next[i] = t.to;
        search.Visit(std::move(next), id, kEpsilon, /*front=*/true);
      }
    }

    // Letter moves: candidate letters come from component 0's transitions.
    std::vector<Label> letters;
    for (const Nfa::Transition& t : automata[0]->TransitionsFrom(tuple[0])) {
      if (t.label != kEpsilon) letters.push_back(t.label);
    }
    std::sort(letters.begin(), letters.end());
    letters.erase(std::unique(letters.begin(), letters.end()), letters.end());

    for (const Label a : letters) {
      std::vector<std::vector<StateId>> succs(automata.size());
      bool feasible = true;
      for (size_t i = 0; i < automata.size(); ++i) {
        for (const Nfa::Transition& t :
             automata[i]->TransitionsFrom(tuple[i])) {
          if (t.label == a) succs[i].push_back(t.to);
        }
        if (succs[i].empty()) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      search.EmitLetterSuccessors(id, succs, a);
    }
  }

  result.non_empty = false;
  result.explored_states = search.tuples.size();
  return result;
}

IneResult IntersectionNonEmpty(const std::vector<const Dfa*>& automata) {
  std::vector<Nfa> nfas;
  nfas.reserve(automata.size());
  for (const Dfa* d : automata) nfas.push_back(d->ToNfa());
  std::vector<const Nfa*> ptrs;
  ptrs.reserve(nfas.size());
  for (const Nfa& n : nfas) ptrs.push_back(&n);
  return IntersectionNonEmpty(ptrs);
}

}  // namespace ecrpq
