#include "cq/eval_backtrack.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/hash.h"

namespace ecrpq {
namespace {

constexpr uint32_t kUnset = ~uint32_t{0};

// Backtracking nodes between full budget checks (exhaustion itself is a
// relaxed flag load on every node).
constexpr size_t kCqBudgetStride = 4096;

// Greedy join order: repeatedly pick the atom with the most already-bound
// variables, breaking ties by smaller relation.
std::vector<size_t> OrderAtoms(const RelationalDb& db, const CqQuery& query) {
  const size_t n = query.atoms.size();
  std::vector<bool> used(n, false);
  std::vector<bool> bound(query.num_vars, false);
  std::vector<size_t> order;
  order.reserve(n);
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    long best_unbound = 0;
    size_t best_size = 0;
    for (size_t a = 0; a < n; ++a) {
      if (used[a]) continue;
      long unbound = 0;
      for (CqVarId v : query.atoms[a].vars) {
        if (!bound[v]) ++unbound;
      }
      const size_t size = db.Find(query.atoms[a].relation)->NumTuples();
      if (best == n || unbound < best_unbound ||
          (unbound == best_unbound && size < best_size)) {
        best = a;
        best_unbound = unbound;
        best_size = size;
      }
    }
    used[best] = true;
    order.push_back(best);
    for (CqVarId v : query.atoms[best].vars) bound[v] = true;
  }
  return order;
}

}  // namespace

Result<CqEvalResult> CqEvaluateBacktracking(const RelationalDb& db,
                                            const CqQuery& query,
                                            const CqEvalOptions& options) {
  ECRPQ_RETURN_NOT_OK(ValidateCq(db, query));
  CqEvalResult result;
  const std::vector<size_t> order = OrderAtoms(db, query);
  std::vector<uint32_t> assignment(query.num_vars, kUnset);
  std::unordered_set<std::vector<uint32_t>, VectorHash<uint32_t>> answers;

  // Free variables not covered by any atom range over the whole domain.
  std::vector<CqVarId> uncovered_free;
  {
    std::vector<bool> covered(query.num_vars, false);
    for (const CqAtom& atom : query.atoms) {
      for (CqVarId v : atom.vars) covered[v] = true;
    }
    for (CqVarId v : query.free_vars) {
      if (!covered[v]) uncovered_free.push_back(v);
    }
    // A non-free uncovered variable only needs a non-empty domain.
    for (int v = 0; v < query.num_vars; ++v) {
      if (!covered[v] && db.domain_size() == 0) {
        result.satisfiable = false;
        return result;
      }
    }
  }

  const bool want_all = options.max_answers != 1;
  bool done = false;
  obs::MetricsShard* shard = options.obs != nullptr
                                 ? options.obs->metrics().AcquireShard()
                                 : nullptr;
  size_t budget_tick = 0;
  const obs::AnswerLatency latency(
      options.record_answer_latency ? shard : nullptr);

  // Emits the current full assignment's projection (expanding uncovered free
  // variables over the domain).
  auto emit = [&](auto&& self, size_t uncovered_idx) -> void {
    if (done) return;
    if (uncovered_idx == uncovered_free.size()) {
      std::vector<uint32_t> answer;
      answer.reserve(query.free_vars.size());
      for (CqVarId v : query.free_vars) answer.push_back(assignment[v]);
      if (answers.insert(std::move(answer)).second) latency.Record();
      result.satisfiable = true;
      if (!want_all ||
          (options.max_answers != 0 && answers.size() >= options.max_answers)) {
        done = true;
      }
      return;
    }
    const CqVarId v = uncovered_free[uncovered_idx];
    for (uint32_t value = 0; value < db.domain_size() && !done; ++value) {
      assignment[v] = value;
      self(self, uncovered_idx + 1);
    }
    assignment[v] = kUnset;
  };

  auto recurse = [&](auto&& self, size_t depth) -> void {
    if (done) return;
    if (options.obs != nullptr &&
        (options.obs->Exhausted() ||
         ((++budget_tick & (kCqBudgetStride - 1)) == 0 &&
          options.obs->CheckBudget()))) {
      done = true;
      return;
    }
    if (depth == order.size()) {
      emit(emit, 0);
      return;
    }
    const CqAtom& atom = query.atoms[order[depth]];
    const Relation& rel = *db.Find(atom.relation);
    uint32_t mask = 0;
    std::vector<uint32_t> key;
    for (size_t i = 0; i < atom.vars.size(); ++i) {
      if (assignment[atom.vars[i]] != kUnset) {
        mask |= uint32_t{1} << i;
        key.push_back(assignment[atom.vars[i]]);
      }
    }
    std::vector<CqVarId> newly_bound;
    for (const uint32_t row : rel.Matches(mask, key)) {
      obs::Add(shard, obs::CounterId::kAssignmentsTried);
      const auto tuple = rel.Tuple(row);
      // Bind and check repeated variables within the atom.
      newly_bound.clear();
      bool consistent = true;
      for (size_t i = 0; i < atom.vars.size() && consistent; ++i) {
        const CqVarId v = atom.vars[i];
        if (assignment[v] == kUnset) {
          assignment[v] = tuple[i];
          newly_bound.push_back(v);
        } else if (assignment[v] != tuple[i]) {
          consistent = false;
        }
      }
      if (consistent) self(self, depth + 1);
      for (CqVarId v : newly_bound) assignment[v] = kUnset;
      if (done) break;
    }
  };
  recurse(recurse, 0);

  // Final check (not just Exhausted()): totals that crossed the budget
  // between poll strides still surface as ResourceExhausted.
  if (options.obs != nullptr && options.obs->CheckBudget()) {
    return options.obs->ExhaustedStatus();
  }

  result.answers.assign(answers.begin(), answers.end());
  std::sort(result.answers.begin(), result.answers.end());
  return result;
}

Result<bool> CqSatisfiable(const RelationalDb& db, const CqQuery& query) {
  CqEvalOptions options;
  options.max_answers = 1;
  ECRPQ_ASSIGN_OR_RAISE(CqEvalResult result,
                        CqEvaluateBacktracking(db, query, options));
  return result.satisfiable;
}

}  // namespace ecrpq
