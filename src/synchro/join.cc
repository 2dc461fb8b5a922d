#include "synchro/join.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"

namespace ecrpq {

Result<JoinMachine> JoinMachine::Create(const Alphabet& alphabet,
                                        std::vector<Component> components,
                                        int joint_arity) {
  ECRPQ_ASSIGN_OR_RAISE(TapePack pack,
                        TapePack::Create(joint_arity, alphabet.size()));
  for (const Component& c : components) {
    if (c.relation == nullptr) return Status::Invalid("null relation");
    if (!(c.relation->alphabet() == alphabet)) {
      return Status::Invalid("component alphabet differs from joint alphabet");
    }
    if (static_cast<int>(c.tape_map.size()) != c.relation->arity()) {
      return Status::Invalid("tape_map size must equal relation arity");
    }
    std::vector<bool> used(joint_arity, false);
    for (int t : c.tape_map) {
      if (t < 0 || t >= joint_arity) {
        return Status::Invalid("tape_map target out of range");
      }
      if (used[t]) {
        return Status::Invalid(
            "tape_map must be injective (a path variable appears at most "
            "once per relation atom)");
      }
      used[t] = true;
    }
  }
  return JoinMachine(alphabet, std::move(components), joint_arity, pack);
}

JoinMachine::JoinMachine(const Alphabet& alphabet,
                         std::vector<Component> components, int joint_arity,
                         TapePack pack)
    : alphabet_(alphabet), joint_arity_(joint_arity), pack_(pack) {
  lazies_.reserve(components.size());
  for (Component& c : components) {
    Lazy lazy;
    lazy.relation = c.relation;
    lazy.tape_map = std::move(c.tape_map);
    lazy.pad_id = static_cast<StateId>(c.relation->nfa().NumStates());
    lazies_.push_back(std::move(lazy));
  }
}

uint32_t JoinMachine::InternSubset(Lazy* lazy, std::vector<StateId> subset) {
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
  auto [it, inserted] = lazy->subset_ids.emplace(
      subset, static_cast<uint32_t>(lazy->subsets.size()));
  if (inserted) {
    bool accepting = false;
    for (StateId s : subset) {
      if (s == lazy->pad_id || lazy->relation->nfa().IsAccepting(s)) {
        accepting = true;
        break;
      }
    }
    lazy->subsets.push_back(std::move(subset));
    lazy->subset_accepting.push_back(accepting);
    lazy->move_cache.emplace_back();
  }
  return it->second;
}

uint32_t JoinMachine::MoveComponent(Lazy* lazy, uint32_t subset_id,
                                    Label sub_label, bool sub_all_blank) {
  auto& cache = lazy->move_cache[subset_id];
  auto cached = cache.find(sub_label);
  if (cached != cache.end()) return cached->second;

  const Nfa& nfa = lazy->relation->nfa();
  const std::vector<StateId>& subset = lazy->subsets[subset_id];
  std::vector<StateId> next;
  bool add_pad = false;
  for (StateId s : subset) {
    if (s == lazy->pad_id) {
      // Once padding, stay padding (only on all-blank sub-letters).
      if (sub_all_blank) add_pad = true;
      continue;
    }
    for (const Nfa::Transition& t : nfa.TransitionsFrom(s)) {
      if (t.label == sub_label) next.push_back(t.to);
    }
    if (sub_all_blank && nfa.IsAccepting(s)) add_pad = true;
  }
  nfa.EpsilonClose(&next);
  if (add_pad) next.push_back(lazy->pad_id);
  const uint32_t id = InternSubset(lazy, std::move(next));
  // Re-lookup: InternSubset may have grown move_cache, invalidating `cache`.
  lazy->move_cache[subset_id].emplace(sub_label, id);
  return id;
}

JoinMachine::State JoinMachine::InternJoint(
    const std::vector<uint32_t>& subset_ids) {
  const auto [it, inserted] = joint_ids_.emplace(
      subset_ids, static_cast<State>(joint_states_.size()));
  if (inserted) {
    bool dead = false;
    bool accepting = true;
    for (size_t c = 0; c < lazies_.size(); ++c) {
      dead = dead || lazies_[c].subsets[subset_ids[c]].empty();
      accepting = accepting && lazies_[c].subset_accepting[subset_ids[c]];
    }
    joint_states_.push_back(subset_ids);
    dead_.push_back(dead);
    accepting_.push_back(accepting);
  }
  return it->second;
}

JoinMachine::State JoinMachine::Initial() {
  next_scratch_.clear();
  for (Lazy& lazy : lazies_) {
    std::vector<StateId> subset(lazy.relation->nfa().initial());
    lazy.relation->nfa().EpsilonClose(&subset);
    next_scratch_.push_back(InternSubset(&lazy, std::move(subset)));
  }
  return InternJoint(next_scratch_);
}

JoinMachine::State JoinMachine::Next(State state, Label joint_label) {
  ECRPQ_DCHECK(state < joint_states_.size());
  const auto cached = steps_.find({state, joint_label});
  if (cached != steps_.end()) return cached->second;
  next_scratch_.clear();
  for (size_t c = 0; c < lazies_.size(); ++c) {
    Lazy& lazy = lazies_[c];
    const int k = lazy.relation->arity();
    sub_scratch_.assign(k, kBlank);
    bool all_blank = true;
    for (int i = 0; i < k; ++i) {
      sub_scratch_[i] = pack_.Get(joint_label, lazy.tape_map[i]);
      all_blank = all_blank && (sub_scratch_[i] == kBlank);
    }
    const Label sub_label = lazy.relation->pack().Pack(sub_scratch_);
    next_scratch_.push_back(MoveComponent(
        &lazy, joint_states_[state][c], sub_label, all_blank));
  }
  const State next = InternJoint(next_scratch_);
  steps_.emplace(std::make_pair(state, joint_label), next);
  return next;
}

size_t JoinMachine::NumInternedSubsets() const {
  size_t n = 0;
  for (const Lazy& lazy : lazies_) n += lazy.subsets.size();
  return n;
}

}  // namespace ecrpq
