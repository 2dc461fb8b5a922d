// JoinMachine: the *lazy* counterpart of JoinComponents (Lemma 4.1).
//
// Evaluating an ECRPQ requires running the conjunction of all relation atoms
// in one G^rel connected component over a shared set of path variables.
// Materializing the merged automaton (ops.h JoinComponents) pays an
// (|A|+1)^r letter-enumeration cost up front. The evaluator instead only
// ever feeds *concrete* packed letters derived from graph edges, so this
// class exposes the merged automaton as a deterministic transition system,
// built on demand:
//
//  - each component relation is determinized lazily (subset construction,
//    subsets interned per component);
//  - a joint state is a vector of per-component subset ids, interned per
//    machine to a dense State id, so a product search keys its states on
//    one uint32_t and never copies the vector;
//  - Next(id, label) looks the step up in a per-machine (id, label) → id
//    table and runs the per-component subset steps only on a miss; IsDead
//    and IsAccepting are per-id flags;
//  - padding is handled with a virtual "pad" element inside subsets: once
//    all tapes of a component read ⊥, the component survives iff it had
//    accepted (or its NFA explicitly continues on ⊥^k letters).
//
// The machine is deterministic, which makes it directly usable as the
// automaton component of the graph-product searches in graphdb/tuple_search.
// Initial() and Next() write its caches, so a machine belongs to one thread
// at a time; parallel searches give each worker a copy of its own, and ids
// are meaningful only within the machine that issued them.
#ifndef ECRPQ_SYNCHRO_JOIN_H_
#define ECRPQ_SYNCHRO_JOIN_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "synchro/sync_relation.h"

namespace ecrpq {

class JoinMachine {
 public:
  struct Component {
    const SyncRelation* relation;
    // tape i of *relation -> tape tape_map[i] of the joint machine.
    std::vector<int> tape_map;
  };

  // Joint state: a dense id, interned per machine (Initial() is the first
  // id issued).
  using State = uint32_t;

  // Validates arities/alphabets and tape maps. Relations must stay alive for
  // the lifetime of the machine.
  static Result<JoinMachine> Create(const Alphabet& alphabet,
                                    std::vector<Component> components,
                                    int joint_arity);

  int joint_arity() const { return joint_arity_; }
  const TapePack& pack() const { return pack_; }

  State Initial();

  // Deterministic step on a packed joint letter. A present but empty
  // component subset marks a dead state — test with IsDead.
  State Next(State state, Label joint_label);

  bool IsDead(State state) const { return dead_[state]; }

  // True iff every component currently accepts (contains an accepting NFA
  // state or the pad marker).
  bool IsAccepting(State state) const { return accepting_[state]; }

  // Joint states interned so far; ids are 0 .. NumStates() - 1.
  size_t NumStates() const { return joint_states_.size(); }

  // Diagnostics: total interned subsets across components.
  size_t NumInternedSubsets() const;

 private:
  // Lazily determinized view of one component.
  struct Lazy {
    const SyncRelation* relation;
    std::vector<int> tape_map;
    // Pad marker id = relation->nfa().NumStates().
    StateId pad_id;
    std::map<std::vector<StateId>, uint32_t> subset_ids;
    std::vector<std::vector<StateId>> subsets;
    std::vector<bool> subset_accepting;
    // Transition cache, parallel to `subsets`: packed sub-label -> subset id.
    std::vector<std::unordered_map<Label, uint32_t>> move_cache;
  };

  JoinMachine(const Alphabet& alphabet, std::vector<Component> components,
              int joint_arity, TapePack pack);

  uint32_t InternSubset(Lazy* lazy, std::vector<StateId> subset);
  uint32_t MoveComponent(Lazy* lazy, uint32_t subset_id, Label sub_label,
                         bool sub_all_blank);
  State InternJoint(const std::vector<uint32_t>& subset_ids);

  Alphabet alphabet_;
  int joint_arity_;
  TapePack pack_;
  std::vector<Lazy> lazies_;
  // Joint states: per-component subset ids, by State id.
  std::unordered_map<std::vector<uint32_t>, State, VectorHash<uint32_t>>
      joint_ids_;
  std::vector<std::vector<uint32_t>> joint_states_;
  std::vector<bool> dead_;
  std::vector<bool> accepting_;
  // Step cache: (state, joint label) -> state.
  std::unordered_map<std::pair<State, Label>, State, PairHash<State, Label>>
      steps_;
  std::vector<uint32_t> next_scratch_;
  std::vector<TapeLetter> sub_scratch_;
};

}  // namespace ecrpq

#endif  // ECRPQ_SYNCHRO_JOIN_H_
