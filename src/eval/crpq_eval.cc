#include "eval/engines.h"

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "automata/interner.h"
#include "cq/cq.h"
#include "cq/relational_db.h"
#include "graphdb/reach_memo.h"
#include "graphdb/rpq_reach.h"
#include "query/validate.h"
#include "synchro/tape_pack.h"

namespace ecrpq::internal {

// The memo's rows are adopted as CQ relation rows without a conversion.
static_assert(std::is_same_v<ReachMemo::Rows, Relation::SharedRows>);

Result<EvalResult> EvaluateCrpq(const GraphDb& db, const EcrpqQuery& query,
                                const EvalOptions& options) {
  obs::Session* obs = options.obs;
  obs::Span span(obs != nullptr ? obs->trace() : nullptr, "EvaluateCrpq");
  obs::MetricsShard* shard =
      obs != nullptr ? obs->metrics().AcquireShard() : nullptr;
  ECRPQ_RETURN_NOT_OK(ValidateQueryForDb(query, db.alphabet()));
  if (!query.IsCrpq()) {
    return Status::Invalid("EvaluateCrpq requires a CRPQ");
  }
  EvalResult out;
  if (db.NumVertices() == 0) {
    out.satisfiable = (query.NumNodeVars() == 0);
    if (out.satisfiable) out.answers.push_back({});
    return out;
  }

  // Language per path variable (A* when unconstrained). Relation NFAs of
  // arity 1 use packed letters (symbol+1); unpack back to Symbol labels.
  std::vector<const SyncRelation*> lang_of(query.NumPathVars(), nullptr);
  for (const RelAtom& atom : query.rel_atoms()) {
    lang_of[atom.paths[0]] = &query.relation(atom.relation);
  }

  RelationalDb rdb(static_cast<uint32_t>(db.NumVertices()));
  CqQuery cq;
  cq.num_vars = query.NumNodeVars();
  for (int v = 0; v < cq.num_vars; ++v) {
    cq.var_names.push_back(query.NodeVarName(v));
  }
  for (NodeVarId v : query.free_vars()) cq.free_vars.push_back(v);

  for (size_t a = 0; a < query.reach_atoms().size(); ++a) {
    const ReachAtom& atom = query.reach_atoms()[a];
    // Build the Symbol-labelled language NFA.
    Nfa lang;
    if (lang_of[atom.path] == nullptr) {
      // A*: one accepting state looping on every symbol.
      lang.AddState();
      lang.SetInitial(0);
      lang.SetAccepting(0);
      for (Symbol s = 0; s < static_cast<Symbol>(query.alphabet().size());
           ++s) {
        lang.AddTransition(0, static_cast<Label>(s), 0);
      }
    } else {
      const SyncRelation& rel = *lang_of[atom.path];
      lang.AddStates(rel.nfa().NumStates());
      for (StateId s : rel.nfa().initial()) lang.SetInitial(s);
      for (StateId s = 0; s < static_cast<StateId>(rel.nfa().NumStates());
           ++s) {
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
    }
    const std::string name = "reach" + std::to_string(a);
    ReachMemo::Rows rows;
    {
      // One reach-atom materialization == one kPhaseReduceNs sample.
      // Cached path: intern the language (dedups across atoms AND across
      // queries — repeated regexes share one normalized automaton) and
      // serve the whole relation from the epoch-keyed global memo.
      // RpqReachAll's output is independent of transition order, so the
      // interned (normalized) automaton yields byte-identical rows.
      obs::ScopedTimer reduce_timer(shard, obs::HistogramId::kPhaseReduceNs);
      rows = options.disable_cache
                 ? std::make_shared<const std::vector<VertexId>>(
                       RpqReachAll(db, lang, options.num_threads, obs))
                 : RpqReachAllCached(
                       db, AutomatonInterner::Global().Intern(lang, shard),
                       options.num_threads, obs);
    }
    if (obs != nullptr && obs->CheckBudget()) {
      return obs->ExhaustedStatus();
    }
    // RpqReachAll's rows are sorted and duplicate-free: the CQ relation
    // adopts them as they are, shared with the memo.
    ECRPQ_RETURN_NOT_OK(rdb.AdoptRelation(name, 2, std::move(rows)));
    cq.atoms.push_back(CqAtom{name, {atom.from, atom.to}});
  }
  return EvaluateCq(rdb, cq, query.IsBoolean(), options, /*use_treedec=*/true);
}

}  // namespace ecrpq::internal
