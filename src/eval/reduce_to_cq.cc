#include "eval/reduce_to_cq.h"

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "automata/interner.h"
#include "cq/eval_backtrack.h"
#include "cq/eval_treedec.h"
#include "eval/engines.h"
#include "eval/merge.h"
#include "graphdb/reach_memo.h"
#include "graphdb/rpq_reach.h"
#include "graphdb/tuple_search.h"
#include "query/validate.h"
#include "synchro/join.h"
#include "synchro/tape_pack.h"

namespace ecrpq {
namespace {

// The memo's rows are adopted as CQ relation rows without a conversion.
static_assert(std::is_same_v<ReachMemo::Rows, Relation::SharedRows>);

obs::Trace* TraceOf(const EvalOptions& options) {
  return options.obs != nullptr ? options.obs->trace() : nullptr;
}

// One path variable constrained by at most one relation atom, a unary one.
bool IsOneTape(const ComponentPlan& plan) {
  return plan.paths.size() == 1 &&
         (plan.machine_components.empty() ||
          (plan.machine_components.size() == 1 &&
           plan.machine_components[0].relation->arity() == 1));
}

// The Symbol-labelled language of a one-tape component: A* (one accepting
// state looping on every symbol) for a bare path variable, else the unary
// relation's NFA with its packed letters unpacked back to symbols.
Nfa OneTapeLanguage(const EcrpqQuery& query, const ComponentPlan& plan) {
  Nfa lang;
  if (plan.machine_components.empty()) {
    lang.AddState();
    lang.SetInitial(0);
    lang.SetAccepting(0);
    for (Symbol s = 0; s < static_cast<Symbol>(query.alphabet().size());
         ++s) {
      lang.AddTransition(0, static_cast<Label>(s), 0);
    }
    return lang;
  }
  const SyncRelation& rel = *plan.machine_components[0].relation;
  lang.AddStates(rel.nfa().NumStates());
  for (StateId s : rel.nfa().initial()) lang.SetInitial(s);
  for (StateId s = 0; s < static_cast<StateId>(rel.nfa().NumStates()); ++s) {
    if (rel.nfa().IsAccepting(s)) lang.SetAccepting(s);
    for (const Nfa::Transition& t : rel.nfa().TransitionsFrom(s)) {
      if (t.label == kEpsilon) {
        lang.AddTransition(s, kEpsilon, t.to);
      } else {
        const TapeLetter letter = rel.pack().Get(t.label, 0);
        if (letter == kBlank) continue;  // ⊥ never occurs on arity 1.
        lang.AddTransition(s, static_cast<Label>(letter), t.to);
      }
    }
  }
  return lang;
}

// R_L for a one-tape component. Unless disable_cache the language is
// interned, which dedups it across atoms and queries, and the relation is
// served from the reach memo; RpqReachAll's output does not depend on
// transition order, so the interned (normalized) automaton gives the same
// rows.
Result<ReachMemo::Rows> ReachRelation(const GraphDb& db, const Nfa& lang,
                                      const EvalOptions& options,
                                      obs::MetricsShard* shard) {
  if (options.disable_cache) {
    ECRPQ_ASSIGN_OR_RAISE(
        std::vector<VertexId> rows,
        RpqReachAll(db, lang, options.num_threads, options.obs));
    return std::make_shared<const std::vector<VertexId>>(std::move(rows));
  }
  return RpqReachAllCached(db, AutomatonInterner::Global().Intern(lang, shard),
                           options.num_threads, options.obs);
}

}  // namespace

Result<CqReduction> ReduceToCq(const GraphDb& db, const EcrpqQuery& query,
                               const EvalOptions& options) {
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

    if (IsOneTape(plan)) {
      // Corollary 2.4: R'_C is R_L, adopted as it is — RpqReachAll's rows
      // are sorted and duplicate-free — and shared with the memo.
      ECRPQ_ASSIGN_OR_RAISE(
          ReachMemo::Rows rows,
          ReachRelation(db, OneTapeLanguage(query, plan), options, shard));
      if (same_as[1] == 0) {
        // A self-loop x -L-> x keeps the rows (u, u).
        auto loops = std::make_shared<std::vector<VertexId>>();
        for (size_t row = 0; row < rows->size(); row += 2) {
          if ((*rows)[row] == (*rows)[row + 1]) {
            loops->insert(loops->end(), {(*rows)[row], (*rows)[row]});
          }
        }
        rows = std::move(loops);
      }
      ECRPQ_RETURN_NOT_OK(
          reduction.db->AdoptRelation(name, 2, std::move(rows)));
    } else {
      std::optional<JoinMachine> machine;
      {
        obs::ScopedTimer nfa_timer(shard, obs::HistogramId::kPhaseNfaBuildNs);
        ECRPQ_ASSIGN_OR_RAISE(
            machine,
            JoinMachine::Create(query.alphabet(), plan.machine_components, r));
      }
      // All |V|^r source tuples — the O(|D|^{2 cc_vertex}) step — searched
      // in bit-parallel sweeps of 64 tuples (graphdb/tuple_search.h).
      ECRPQ_ASSIGN_OR_RAISE(
          const std::vector<VertexId> rows,
          TupleReachAll(db, *machine, same_as, options.num_threads,
                        options.obs));
      ECRPQ_ASSIGN_OR_RAISE(Relation * rel,
                            reduction.db->AddRelation(name, 2 * r));
      for (size_t row = 0; row < rows.size(); row += 2 * r) {
        rel->Add(std::span<const VertexId>(rows).subspan(row, 2 * r));
      }
    }
    size_t source_tuples = 1;
    for (int i = 0; i < r; ++i) source_tuples *= n;
    reduction.source_tuples_enumerated += source_tuples;
    reduction.query.atoms.push_back(std::move(atom));
    // The relation builders poll the budget themselves; this poll also
    // sees the time a memo hit or an adopted relation took.
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
  ECRPQ_ASSIGN_OR_RAISE(CqReduction reduction,
                        ReduceToCq(db, query, options));
  EvalResult out;
  if (db.NumVertices() == 0) {
    out.satisfiable = (query.NumNodeVars() == 0);
    if (out.satisfiable) out.answers.push_back({});
    return out;
  }
  obs::Span cq_span(TraceOf(options), "EvaluateReducedCq");
  CqEvalOptions cq_options;
  cq_options.max_answers = query.IsBoolean() ? 1 : options.max_answers;
  cq_options.obs = options.obs;
  ECRPQ_ASSIGN_OR_RAISE(
      CqEvalResult cq_result,
      use_treedec
          ? CqEvaluateTreeDec(*reduction.db, reduction.query, cq_options)
          : CqEvaluateBacktracking(*reduction.db, reduction.query,
                                   cq_options));
  out.satisfiable = cq_result.satisfiable;
  for (std::vector<VertexId>& answer : cq_result.answers) {
    out.answers.push_back(std::move(answer));
    if (options.on_answer && !options.on_answer(out.answers.back())) break;
  }
  return out;
}

}  // namespace internal
}  // namespace ecrpq
