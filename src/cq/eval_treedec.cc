#include "cq/eval_treedec.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/hash.h"
#include "structure/treewidth.h"

namespace ecrpq {
namespace {

constexpr uint32_t kUnset = ~uint32_t{0};

struct BagData {
  std::vector<int> vars;                     // Sorted bag variables.
  std::vector<std::vector<uint32_t>> tuples; // Assignments, aligned to vars.
  std::vector<int> children;
  int parent = -1;
};

// Projection of `tuple` (aligned with `vars`) onto `onto` (subset of vars,
// sorted).
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

std::vector<int> SortedIntersection(const std::vector<int>& a,
                                    const std::vector<int>& b) {
  std::vector<int> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

Result<CqEvalResult> CqEvaluateTreeDec(const RelationalDb& db,
                                       const CqQuery& query,
                                       const CqEvalOptions& options,
                                       TreeDecEvalStats* stats) {
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

  // 1. Decompose the Gaifman graph.
  const SimpleGraph gaifman = query.GaifmanGraph();
  TreewidthResult tw;
  TreeDecomposition td;
  {
    obs::Span span(trace, "TreeDec.decompose");
    tw = TreewidthBest(gaifman);
    td = DecompositionFromEliminationOrder(gaifman, tw.elimination_order);
  }
  if (stats != nullptr) stats->width_used = td.Width();

  const int num_bags = static_cast<int>(td.bags.size());
  std::vector<BagData> bags(num_bags);
  for (int b = 0; b < num_bags; ++b) bags[b].vars = td.bags[b];

  // Root the tree at 0; compute parents/children and a DFS post-order.
  std::vector<std::vector<int>> adj(num_bags);
  for (const auto& [a, b] : td.edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<int> post_order;
  {
    std::vector<int> stack{0};
    std::vector<bool> seen(num_bags, false);
    seen[0] = true;
    std::vector<int> visit_order;
    while (!stack.empty()) {
      const int b = stack.back();
      stack.pop_back();
      visit_order.push_back(b);
      for (int nb : adj[b]) {
        if (!seen[nb]) {
          seen[nb] = true;
          bags[nb].parent = b;
          bags[b].children.push_back(nb);
          stack.push_back(nb);
        }
      }
    }
    post_order.assign(visit_order.rbegin(), visit_order.rend());
  }

  // 2. Assign atoms to bags (every atom's variable set is a clique of the
  // Gaifman graph, hence inside some bag).
  std::vector<std::vector<size_t>> atoms_of_bag(num_bags);
  for (size_t a = 0; a < query.atoms.size(); ++a) {
    std::vector<int> avars;
    for (CqVarId v : query.atoms[a].vars) avars.push_back(static_cast<int>(v));
    std::sort(avars.begin(), avars.end());
    avars.erase(std::unique(avars.begin(), avars.end()), avars.end());
    bool placed = false;
    for (int b = 0; b < num_bags && !placed; ++b) {
      if (std::includes(bags[b].vars.begin(), bags[b].vars.end(),
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

  // 3. Materialize bag relations via the backtracking evaluator on the
  // bag-local sub-query (free vars = bag vars).
  {
    obs::Span span(trace, "TreeDec.materialize_bags");
    for (int b = 0; b < num_bags; ++b) {
      obs::ScopedTimer bag_timer(shard,
                                 obs::HistogramId::kPhaseBagMaterializeNs);
      obs::Record(shard, obs::HistogramId::kBagWidth, bags[b].vars.size());
      CqQuery sub;
      sub.num_vars = query.num_vars;
      for (int v : bags[b].vars) {
        sub.free_vars.push_back(static_cast<CqVarId>(v));
      }
      for (size_t a : atoms_of_bag[b]) sub.atoms.push_back(query.atoms[a]);
      CqEvalOptions sub_options;
      sub_options.obs = options.obs;
      sub_options.record_answer_latency = false;
      ECRPQ_ASSIGN_OR_RAISE(CqEvalResult sub_result,
                            CqEvaluateBacktracking(db, sub, sub_options));
      bags[b].tuples = std::move(sub_result.answers);
      obs::Add(shard, obs::CounterId::kBagTuplesMaterialized,
               bags[b].tuples.size());
      if (stats != nullptr) {
        stats->bag_tuples_materialized += bags[b].tuples.size();
      }
      if (options.obs != nullptr && options.obs->CheckBudget()) {
        return options.obs->ExhaustedStatus();
      }
    }
  }

  // 4. Yannakakis up-pass: semijoin-filter each bag's parent.
  {
    obs::Span span(trace, "TreeDec.semijoin");
    for (int b : post_order) {
      if (bags[b].parent < 0) continue;
      BagData& parent = bags[bags[b].parent];
      const std::vector<int> sep =
          SortedIntersection(bags[b].vars, parent.vars);
      std::unordered_set<std::vector<uint32_t>, VectorHash<uint32_t>>
          child_keys;
      for (const auto& t : bags[b].tuples) {
        child_keys.insert(ProjectTuple(bags[b].vars, t, sep));
      }
      std::vector<std::vector<uint32_t>> kept;
      for (auto& t : parent.tuples) {
        if (child_keys.count(ProjectTuple(parent.vars, t, sep)) > 0) {
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

  // 5. Enumerate answers top-down. Pre-index each bag's tuples by their
  // separator-with-parent projection.
  std::vector<std::unordered_map<std::vector<uint32_t>,
                                 std::vector<uint32_t>,  // Tuple row ids.
                                 VectorHash<uint32_t>>>
      by_sep(num_bags);
  std::vector<std::vector<int>> sep_with_parent(num_bags);
  for (int b = 0; b < num_bags; ++b) {
    if (bags[b].parent < 0) continue;
    sep_with_parent[b] =
        SortedIntersection(bags[b].vars, bags[bags[b].parent].vars);
    for (size_t i = 0; i < bags[b].tuples.size(); ++i) {
      by_sep[b][ProjectTuple(bags[b].vars, bags[b].tuples[i],
                             sep_with_parent[b])]
          .push_back(static_cast<uint32_t>(i));
    }
  }

  std::vector<uint32_t> assignment(query.num_vars, kUnset);
  std::unordered_set<std::vector<uint32_t>, VectorHash<uint32_t>> answers;
  bool done = false;
  size_t budget_tick = 0;

  // Pre-order list of bags for the enumeration walk.
  std::vector<int> pre_order;
  {
    std::vector<int> stack{0};
    while (!stack.empty()) {
      const int b = stack.back();
      stack.pop_back();
      pre_order.push_back(b);
      for (int c : bags[b].children) stack.push_back(c);
    }
  }

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
    const BagData& bag = bags[b];
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
      key.reserve(sep_with_parent[b].size());
      for (int v : sep_with_parent[b]) {
        ECRPQ_DCHECK(assignment[v] != kUnset);
        key.push_back(assignment[v]);
      }
      auto it = by_sep[b].find(key);
      if (it == by_sep[b].end()) return;
      for (uint32_t row : it->second) {
        try_tuple(bags[b].tuples[row]);
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
