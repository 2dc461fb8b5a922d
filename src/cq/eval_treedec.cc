#include "cq/eval_treedec.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/hash.h"
#include "structure/tree_decomposition.h"
#include "structure/treewidth.h"

namespace ecrpq {
namespace {

constexpr uint32_t kUnset = ~uint32_t{0};

}  // namespace

std::vector<uint32_t> ProjectTuple(const std::vector<int>& vars,
                                   const std::vector<uint32_t>& tuple,
                                   const std::vector<int>& onto) {
  std::vector<uint32_t> out;
  out.reserve(onto.size());
  size_t j = 0;
  for (int v : onto) {
    while (j < vars.size() && vars[j] < v) ++j;
    ECRPQ_CHECK(j < vars.size() && vars[j] == v);
    out.push_back(tuple[j]);
  }
  return out;
}

Result<BagTree> MaterializeBags(const RelationalDb& db, const CqQuery& query,
                                obs::Session* obs) {
  obs::Trace* trace = obs != nullptr ? obs->trace() : nullptr;
  obs::MetricsShard* shard =
      obs != nullptr ? obs->metrics().AcquireShard() : nullptr;

  // 1. Decompose the Gaifman graph.
  TreeDecomposition td;
  {
    obs::Span span(trace, "TreeDec.decompose");
    const SimpleGraph gaifman = query.GaifmanGraph();
    td = DecompositionFromEliminationOrder(
        gaifman, TreewidthBest(gaifman).elimination_order);
  }
  const int num_bags = static_cast<int>(td.bags.size());
  BagTree tree;
  tree.bags.resize(num_bags);
  for (int b = 0; b < num_bags; ++b) tree.bags[b].vars = td.bags[b];

  // 2. Root the tree at bag 0 by a DFS, which visits it in pre-order.
  std::vector<std::vector<int>> adj(num_bags);
  for (const auto& [a, b] : td.edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  {
    std::vector<int> stack{0};
    std::vector<bool> seen(num_bags, false);
    seen[0] = true;
    while (!stack.empty()) {
      const int b = stack.back();
      stack.pop_back();
      tree.pre_order.push_back(b);
      for (int nb : adj[b]) {
        if (seen[nb]) continue;
        seen[nb] = true;
        BagTree::Bag& child = tree.bags[nb];
        child.parent = b;
        std::set_intersection(child.vars.begin(), child.vars.end(),
                              tree.bags[b].vars.begin(),
                              tree.bags[b].vars.end(),
                              std::back_inserter(child.sep));
        stack.push_back(nb);
      }
    }
  }

  // 3. Assign atoms to bags (every atom's variable set is a clique of the
  // Gaifman graph, hence inside some bag).
  std::vector<std::vector<size_t>> atoms_of_bag(num_bags);
  for (size_t a = 0; a < query.atoms.size(); ++a) {
    std::vector<int> avars;
    for (CqVarId v : query.atoms[a].vars) avars.push_back(static_cast<int>(v));
    std::sort(avars.begin(), avars.end());
    avars.erase(std::unique(avars.begin(), avars.end()), avars.end());
    bool placed = false;
    for (int b = 0; b < num_bags && !placed; ++b) {
      if (std::includes(tree.bags[b].vars.begin(), tree.bags[b].vars.end(),
                        avars.begin(), avars.end())) {
        atoms_of_bag[b].push_back(a);
        placed = true;
      }
    }
    if (!placed) {
      return Status::Internal(
          "atom not contained in any bag — invalid tree decomposition");
    }
  }

  // 4. Materialize bag relations via the backtracking evaluator on the
  // bag-local sub-query (free vars = bag vars).
  obs::Span span(trace, "TreeDec.materialize_bags");
  for (int b = 0; b < num_bags; ++b) {
    BagTree::Bag& bag = tree.bags[b];
    obs::ScopedTimer bag_timer(shard, obs::HistogramId::kPhaseBagMaterializeNs);
    obs::Record(shard, obs::HistogramId::kBagWidth, bag.vars.size());
    CqQuery sub;
    sub.num_vars = query.num_vars;
    for (int v : bag.vars) sub.free_vars.push_back(static_cast<CqVarId>(v));
    for (size_t a : atoms_of_bag[b]) sub.atoms.push_back(query.atoms[a]);
    CqEvalOptions sub_options;
    sub_options.obs = obs;
    sub_options.record_answer_latency = false;
    ECRPQ_ASSIGN_OR_RAISE(CqEvalResult sub_result,
                          CqEvaluateBacktracking(db, sub, sub_options));
    bag.tuples = std::move(sub_result.answers);
    obs::Add(shard, obs::CounterId::kBagTuplesMaterialized, bag.tuples.size());
    if (obs != nullptr && obs->CheckBudget()) return obs->ExhaustedStatus();
  }
  return tree;
}

Result<CqEvalResult> CqEvaluateTreeDec(const RelationalDb& db,
                                       const CqQuery& query,
                                       const CqEvalOptions& options) {
  ECRPQ_RETURN_NOT_OK(ValidateCq(db, query));
  obs::Trace* trace =
      options.obs != nullptr ? options.obs->trace() : nullptr;
  obs::MetricsShard* shard = options.obs != nullptr
                                 ? options.obs->metrics().AcquireShard()
                                 : nullptr;
  obs::Span eval_span(trace, "CqEvaluateTreeDec");
  // Answers are timed from here; bag tuples are not answers.
  const obs::AnswerLatency latency(
      options.record_answer_latency ? shard : nullptr);
  CqEvalResult result;
  if (query.num_vars == 0) {
    result.satisfiable = true;
    result.answers.push_back({});
    latency.Record();
    return result;
  }

  ECRPQ_ASSIGN_OR_RAISE(BagTree tree, MaterializeBags(db, query, options.obs));
  std::vector<BagTree::Bag>& bags = tree.bags;
  const std::vector<int>& pre_order = tree.pre_order;

  // Yannakakis up-pass, children before parents: semijoin-filter each
  // bag's parent.
  {
    obs::Span span(trace, "TreeDec.semijoin");
    for (auto it = pre_order.rbegin(); it != pre_order.rend(); ++it) {
      const BagTree::Bag& bag = bags[*it];
      if (bag.parent < 0) continue;
      BagTree::Bag& parent = bags[bag.parent];
      std::unordered_set<std::vector<uint32_t>, VectorHash<uint32_t>>
          child_keys;
      for (const auto& t : bag.tuples) {
        child_keys.insert(ProjectTuple(bag.vars, t, bag.sep));
      }
      std::vector<std::vector<uint32_t>> kept;
      for (auto& t : parent.tuples) {
        if (child_keys.count(ProjectTuple(parent.vars, t, bag.sep)) > 0) {
          kept.push_back(std::move(t));
        }
      }
      parent.tuples = std::move(kept);
    }
  }

  if (bags[0].tuples.empty()) {
    result.satisfiable = false;
    return result;
  }
  result.satisfiable = true;

  // Enumerate answers top-down. Pre-index each bag's tuples by their
  // separator-with-parent projection.
  std::vector<std::unordered_map<std::vector<uint32_t>,
                                 std::vector<uint32_t>,  // Tuple row ids.
                                 VectorHash<uint32_t>>>
      by_sep(bags.size());
  for (size_t b = 0; b < bags.size(); ++b) {
    if (bags[b].parent < 0) continue;
    for (size_t i = 0; i < bags[b].tuples.size(); ++i) {
      by_sep[b][ProjectTuple(bags[b].vars, bags[b].tuples[i], bags[b].sep)]
          .push_back(static_cast<uint32_t>(i));
    }
  }

  std::vector<uint32_t> assignment(query.num_vars, kUnset);
  std::unordered_set<std::vector<uint32_t>, VectorHash<uint32_t>> answers;
  bool done = false;
  size_t budget_tick = 0;

  auto walk = [&](auto&& self, size_t idx) -> void {
    if (done) return;
    if (options.obs != nullptr &&
        (options.obs->Exhausted() ||
         ((++budget_tick & 4095) == 0 && options.obs->CheckBudget()))) {
      done = true;
      return;
    }
    if (idx == pre_order.size()) {
      std::vector<uint32_t> answer;
      answer.reserve(query.free_vars.size());
      for (CqVarId v : query.free_vars) {
        ECRPQ_DCHECK(assignment[v] != kUnset);
        answer.push_back(assignment[v]);
      }
      if (answers.insert(std::move(answer)).second) latency.Record();
      if (options.max_answers != 0 && answers.size() >= options.max_answers) {
        done = true;
      }
      return;
    }
    const int b = pre_order[idx];
    const BagTree::Bag& bag = bags[b];
    // Candidate tuples: all (root) or those matching the parent separator.
    auto try_tuple = [&](const std::vector<uint32_t>& tuple) {
      std::vector<int> newly;
      bool consistent = true;
      for (size_t i = 0; i < bag.vars.size() && consistent; ++i) {
        const int v = bag.vars[i];
        if (assignment[v] == kUnset) {
          assignment[v] = tuple[i];
          newly.push_back(v);
        } else if (assignment[v] != tuple[i]) {
          consistent = false;
        }
      }
      if (consistent) self(self, idx + 1);
      for (int v : newly) assignment[v] = kUnset;
    };
    if (bag.parent < 0) {
      for (const auto& tuple : bag.tuples) {
        try_tuple(tuple);
        if (done) return;
      }
    } else {
      std::vector<uint32_t> key;
      key.reserve(bag.sep.size());
      for (int v : bag.sep) {
        ECRPQ_DCHECK(assignment[v] != kUnset);
        key.push_back(assignment[v]);
      }
      auto it = by_sep[b].find(key);
      if (it == by_sep[b].end()) return;
      for (uint32_t row : it->second) {
        try_tuple(bag.tuples[row]);
        if (done) return;
      }
    }
  };
  {
    obs::Span span(trace, "TreeDec.enumerate");
    walk(walk, 0);
  }

  // Final check (not just Exhausted()): totals that crossed the budget
  // between poll strides still surface as ResourceExhausted.
  if (options.obs != nullptr && options.obs->CheckBudget()) {
    return options.obs->ExhaustedStatus();
  }

  result.answers.assign(answers.begin(), answers.end());
  std::sort(result.answers.begin(), result.answers.end());
  return result;
}

}  // namespace ecrpq
