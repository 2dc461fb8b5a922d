#include "eval/planner.h"

#include <optional>
#include <sstream>
#include <string>

#include "automata/interner.h"
#include "eval/engines.h"
#include "graphdb/reach_memo.h"
#include "query/abstraction.h"
#include "query/simplify.h"

namespace ecrpq {

namespace {

std::string PlanCacheKey(const EcrpqQuery& query,
                         const PlannerThresholds& thresholds) {
  std::string key = CanonicalQueryKey(query);
  // Thresholds move the regime boundaries, so they are part of the key.
  AppendU32(&key, static_cast<uint32_t>(thresholds.max_cc_vertex));
  AppendU32(&key, static_cast<uint32_t>(thresholds.max_cc_hedge));
  AppendU32(&key, static_cast<uint32_t>(thresholds.max_treewidth));
  return key;
}

}  // namespace

const char* EvalRegimeName(EvalRegime r) {
  switch (r) {
    case EvalRegime::kPolynomialTime:
      return "polynomial-time (Thm 3.2(3))";
    case EvalRegime::kNp:
      return "NP (Thm 3.2(2))";
    case EvalRegime::kPspace:
      return "PSPACE (Thm 3.2(1))";
  }
  return "?";
}

const char* ParamRegimeName(ParamRegime r) {
  switch (r) {
    case ParamRegime::kFpt:
      return "FPT (Thm 3.1(3))";
    case ParamRegime::kW1:
      return "W[1]-complete (Thm 3.1(2))";
    case ParamRegime::kXnl:
      return "XNL-complete (Thm 3.1(1))";
  }
  return "?";
}

const char* EngineChoiceName(EngineChoice e) {
  switch (e) {
    case EngineChoice::kCrpqPipeline:
      return "crpq-pipeline";
    case EngineChoice::kCqReduction:
      return "cq-reduction/treedec";
    case EngineChoice::kCqReductionNp:
      return "cq-reduction/backtracking";
    case EngineChoice::kGeneric:
      return "generic-product";
  }
  return "?";
}

std::string QueryClassification::ToString() const {
  std::ostringstream out;
  out << "cc_vertex=" << measures.cc_vertex
      << " cc_hedge=" << measures.cc_hedge << " tw(G^node)="
      << measures.treewidth << (measures.treewidth_exact ? "" : " (approx)")
      << (is_crpq ? " [CRPQ]" : "") << "\n";
  out << "  eval:   " << EvalRegimeName(eval_regime) << "\n";
  out << "  p-eval: " << ParamRegimeName(param_regime) << "\n";
  out << "  engine: " << EngineChoiceName(engine);
  return out.str();
}

std::string QueryClassification::ToJson() const {
  std::ostringstream out;
  out << "{\"cc_vertex\": " << measures.cc_vertex
      << ", \"cc_hedge\": " << measures.cc_hedge
      << ", \"tw\": " << measures.treewidth << ", \"tw_exact\": "
      << (measures.treewidth_exact ? "true" : "false") << ", \"is_crpq\": "
      << (is_crpq ? "true" : "false") << ", \"eval_regime\": \""
      << EvalRegimeName(eval_regime) << "\", \"param_regime\": \""
      << ParamRegimeName(param_regime) << "\", \"engine\": \""
      << EngineChoiceName(engine) << "\"}";
  return out.str();
}

QueryClassification ClassifyQuery(const EcrpqQuery& query,
                                  const PlannerThresholds& thresholds) {
  QueryClassification c;
  const TwoLevelGraph g = QueryAbstraction(query);
  c.measures = ComputeMeasures(g);
  c.is_crpq = query.IsCrpq();

  const bool ccv_ok = c.measures.cc_vertex <= thresholds.max_cc_vertex;
  const bool cch_ok = c.measures.cc_hedge <= thresholds.max_cc_hedge;
  const bool tw_ok = c.measures.treewidth <= thresholds.max_treewidth;

  if (ccv_ok && cch_ok) {
    c.eval_regime =
        tw_ok ? EvalRegime::kPolynomialTime : EvalRegime::kNp;
  } else {
    c.eval_regime = EvalRegime::kPspace;
  }
  if (ccv_ok) {
    c.param_regime = tw_ok ? ParamRegime::kFpt : ParamRegime::kW1;
  } else {
    c.param_regime = ParamRegime::kXnl;
  }

  if (c.is_crpq) {
    c.engine = EngineChoice::kCrpqPipeline;
  } else if (c.eval_regime == EvalRegime::kPolynomialTime) {
    c.engine = EngineChoice::kCqReduction;
  } else if (c.eval_regime == EvalRegime::kNp) {
    c.engine = EngineChoice::kCqReductionNp;
  } else {
    c.engine = EngineChoice::kGeneric;
  }
  return c;
}

PlanCache& GlobalPlanCache() {
  static PlanCache* cache = new PlanCache(4u << 20, /*num_shards=*/8);
  return *cache;
}

void ClearGlobalCaches() {
  GlobalPlanCache().Clear();
  AutomatonInterner::Global().Clear();
  ReachMemo::Global().Clear();
}

QueryClassification ClassifyQueryCached(const EcrpqQuery& query,
                                        const PlannerThresholds& thresholds,
                                        obs::MetricsShard* obs_shard) {
  const std::string key = PlanCacheKey(query, thresholds);
  PlanCache& cache = GlobalPlanCache();
  if (std::optional<QueryClassification> hit = cache.Lookup(key, obs_shard)) {
    return *hit;
  }
  // Racing classifiers of the same query may both compute — classification
  // is a pure function of the key, so last-insert-wins is harmless, and
  // not holding the shard lock across the treewidth computation keeps the
  // cache responsive for unrelated queries.
  const QueryClassification c = ClassifyQuery(query, thresholds);
  cache.Insert(key, c, key.size() + sizeof(QueryClassification), obs_shard);
  return c;
}

Status CheckEngineOptions(EngineChoice engine, const EvalOptions& options) {
  if (engine == EngineChoice::kGeneric) return Status::OK();
  const char* field = nullptr;
  if (!options.pin.empty()) {
    field = "pin";
  } else if (options.capture_assignment) {
    field = "capture_assignment";
  } else if (options.disable_memo) {
    field = "disable_memo";
  } else {
    return Status::OK();
  }
  return Status::Invalid(std::string("engine ") + EngineChoiceName(engine) +
                         " does not support EvalOptions::" + field);
}

Result<EvalResult> EvaluatePlanned(const GraphDb& db, const EcrpqQuery& query,
                                   const EvalOptions& options,
                                   const PlannerThresholds& thresholds,
                                   QueryClassification* classification_out) {
  std::optional<EngineChoice> engine = options.engine;
  if (!engine.has_value()) {
    obs::MetricsShard* shard = options.obs != nullptr
                                   ? options.obs->metrics().AcquireShard()
                                   : nullptr;
    const QueryClassification c =
        options.disable_cache ? ClassifyQuery(query, thresholds)
                              : ClassifyQueryCached(query, thresholds, shard);
    if (classification_out != nullptr) *classification_out = c;
    engine = c.engine;
  }
  ECRPQ_RETURN_NOT_OK(CheckEngineOptions(*engine, options));
  switch (*engine) {
    case EngineChoice::kCrpqPipeline:
      // A CRPQ's components are all one-tape: the reduction builds each as
      // R_L (Corollary 2.4).
      if (!query.IsCrpq()) {
        return Status::Invalid("engine crpq-pipeline requires a CRPQ");
      }
      [[fallthrough]];
    case EngineChoice::kCqReduction:
      return internal::EvaluateViaCqReduction(db, query, options,
                                              /*use_treedec=*/true);
    case EngineChoice::kCqReductionNp:
      return internal::EvaluateViaCqReduction(db, query, options,
                                              /*use_treedec=*/false);
    case EngineChoice::kGeneric:
      return EvaluateGeneric(db, query, options);
  }
  return Status::Internal("unknown engine choice");
}

}  // namespace ecrpq
