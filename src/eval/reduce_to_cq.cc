#include "eval/reduce_to_cq.h"

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cq/eval_backtrack.h"
#include "cq/eval_treedec.h"
#include "eval/engines.h"
#include "eval/merge.h"
#include "graphdb/tuple_search.h"
#include "query/validate.h"
#include "synchro/join.h"

namespace ecrpq {
namespace {

obs::Trace* TraceOf(const ReduceOptions& options) {
  return options.obs != nullptr ? options.obs->trace() : nullptr;
}

}  // namespace

Result<CqReduction> ReduceToCq(const GraphDb& db, const EcrpqQuery& query,
                               const ReduceOptions& options) {
  obs::Span span(TraceOf(options), "ReduceToCq");
  obs::MetricsShard* shard = options.obs != nullptr
                                 ? options.obs->metrics().AcquireShard()
                                 : nullptr;
  ECRPQ_RETURN_NOT_OK(ValidateQueryForDb(query, db.alphabet()));
  CqReduction reduction;
  reduction.db = std::make_unique<RelationalDb>(
      static_cast<uint32_t>(db.NumVertices()));
  reduction.query.num_vars = query.NumNodeVars();
  for (int v = 0; v < query.NumNodeVars(); ++v) {
    reduction.query.var_names.push_back(query.NodeVarName(v));
  }
  for (NodeVarId v : query.free_vars()) {
    reduction.query.free_vars.push_back(v);
  }

  const std::vector<ComponentPlan> plans = PlanComponents(query);
  const VertexId n = static_cast<VertexId>(db.NumVertices());

  for (size_t c = 0; c < plans.size() && n > 0; ++c) {
    const ComponentPlan& plan = plans[c];
    const int r = static_cast<int>(plan.paths.size());
    const std::string name = "comp" + std::to_string(c);
    obs::Span component_span(TraceOf(options), "ReduceToCq.component",
                             static_cast<uint64_t>(c));
    obs::ScopedTimer component_timer(shard, obs::HistogramId::kPhaseReduceNs);

    std::optional<JoinMachine> machine;
    {
      obs::ScopedTimer nfa_timer(shard, obs::HistogramId::kPhaseNfaBuildNs);
      ECRPQ_ASSIGN_OR_RAISE(
          machine,
          JoinMachine::Create(query.alphabet(), plan.machine_components, r));
    }

    // The CQ atom R'_C(x_1, y_1, ..., x_r, y_r). Lemma 4.3's atom is a pure
    // 2r-ary template: when the same node variable occupies several endpoint
    // positions of the component, every position after the first gets a
    // fresh copy variable and the coincidence is pushed into the
    // materialized relation (only rows agreeing on coinciding positions are
    // kept). The atom therefore spans 2r pairwise-distinct variables and
    // its hypergraph edge has the full 2r-clique Gaifman footprint.
    CqAtom atom;
    atom.relation = name;
    std::vector<int> same_as(2 * r, -1);  // Position of the original, or -1.
    {
      std::map<NodeVarId, int> first_position;
      for (int i = 0; i < 2 * r; ++i) {
        const NodeVarId v =
            (i % 2 == 0) ? plan.sources[i / 2] : plan.targets[i / 2];
        const auto [it, inserted] = first_position.try_emplace(v, i);
        if (inserted) {
          atom.vars.push_back(v);
        } else {
          same_as[i] = it->second;
          atom.vars.push_back(
              static_cast<CqVarId>(reduction.query.num_vars));
          reduction.query.var_names.push_back(
              query.NodeVarName(v) + "'" +
              std::to_string(reduction.query.num_vars));
          ++reduction.query.num_vars;
        }
      }
    }

    // All |V|^r source tuples — the O(|D|^{2 cc_vertex}) step — searched in
    // bit-parallel sweeps of 64 tuples (graphdb/tuple_search.h).
    ECRPQ_ASSIGN_OR_RAISE(
        const std::vector<VertexId> rows,
        TupleReachAll(db, *machine, same_as, options.num_threads,
                      options.obs));
    size_t source_tuples = 1;
    for (int i = 0; i < r; ++i) source_tuples *= n;
    reduction.source_tuples_enumerated += source_tuples;
    ECRPQ_ASSIGN_OR_RAISE(Relation * rel,
                          reduction.db->AddRelation(name, 2 * r));
    for (size_t row = 0; row < rows.size(); row += 2 * r) {
      rel->Add(std::span<const VertexId>(rows).subspan(row, 2 * r));
    }
    reduction.query.atoms.push_back(std::move(atom));
    // TupleReachAll polls before each sweep; this poll sees what its last
    // sweep charged.
    if (options.obs != nullptr && options.obs->CheckBudget()) {
      return options.obs->ExhaustedStatus();
    }
  }
  reduction.db->FinalizeAll();
  return reduction;
}

namespace internal {

Result<EvalResult> EvaluateViaCqReduction(const GraphDb& db,
                                          const EcrpqQuery& query,
                                          const EvalOptions& options,
                                          bool use_treedec) {
  if (db.NumVertices() == 0) {
    EvalResult out;
    out.satisfiable = (query.NumNodeVars() == 0);
    if (out.satisfiable) out.answers.push_back({});
    return out;
  }
  ReduceOptions reduce_options;
  reduce_options.num_threads = options.num_threads;
  reduce_options.obs = options.obs;
  ECRPQ_ASSIGN_OR_RAISE(CqReduction reduction,
                        ReduceToCq(db, query, reduce_options));
  obs::Span cq_span(TraceOf(reduce_options), "EvaluateReducedCq");
  return EvaluateCq(*reduction.db, reduction.query, query.IsBoolean(), options,
                    use_treedec);
}

Result<EvalResult> EvaluateCq(const RelationalDb& rdb, const CqQuery& cq,
                              bool boolean, const EvalOptions& options,
                              bool use_treedec) {
  CqEvalOptions cq_options;
  cq_options.max_answers = boolean ? 1 : options.max_answers;
  cq_options.obs = options.obs;
  ECRPQ_ASSIGN_OR_RAISE(CqEvalResult cq_result,
                        use_treedec
                            ? CqEvaluateTreeDec(rdb, cq, cq_options)
                            : CqEvaluateBacktracking(rdb, cq, cq_options));
  EvalResult out;
  out.satisfiable = cq_result.satisfiable;
  for (std::vector<VertexId>& answer : cq_result.answers) {
    out.answers.push_back(std::move(answer));
    if (options.on_answer && !options.on_answer(out.answers.back())) break;
  }
  return out;
}

}  // namespace internal
}  // namespace ecrpq
