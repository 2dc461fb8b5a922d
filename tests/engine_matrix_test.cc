// Engine matrix: every engine × every canonical workload family × several
// canonical databases, cross-checked pairwise, and every engine × every
// EvalOptions field against the naive oracle. Structured coverage that
// complements the randomized differential suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/adaptive.h"
#include "eval/generic_eval.h"
#include "eval/naive_eval.h"
#include "eval/planner.h"
#include "graphdb/generators.h"
#include "graphdb/tuple_search.h"
#include "query/parser.h"
#include "workloads/db_gen.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

EvalResult Forced(const GraphDb& db, const EcrpqQuery& query,
                  EngineChoice engine) {
  EvalOptions options;
  options.engine = engine;
  return EvaluatePlanned(db, query, options).ValueOrDie();
}

std::vector<GraphDb> CanonicalDbs() {
  Rng rng(2022);
  std::vector<GraphDb> dbs;
  dbs.push_back(CycleGraph(5, "ab"));
  dbs.push_back(PathGraph(6, "aab"));
  dbs.push_back(LayeredDag(&rng, 3, 3, 2, 2));
  dbs.push_back(RandomGraph(&rng, 6, 2.0, 2));
  return dbs;
}

struct NamedQuery {
  const char* name;
  EcrpqQuery query;
};

std::vector<NamedQuery> CanonicalQueries() {
  std::vector<NamedQuery> queries;
  queries.push_back({"chain", ChainEqLenQuery(kAb, 4).ValueOrDie()});
  queries.push_back({"clique", CliqueCrpqQuery(kAb, 3, "a*").ValueOrDie()});
  queries.push_back({"star", EqLenStarQuery(kAb, 2).ValueOrDie()});
  queries.push_back({"eqstar", EqualityStarQuery(kAb, 2).ValueOrDie()});
  queries.push_back({"example21", ExampleTwoOneQuery(kAb).ValueOrDie()});
  return queries;
}

using MatrixParam = std::tuple<int, int>;  // (query index, db index).

class EngineMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(EngineMatrixTest, AllApplicableEnginesAgree) {
  const auto [qi, di] = GetParam();
  const NamedQuery named = std::move(CanonicalQueries()[qi]);
  const GraphDb db = std::move(CanonicalDbs()[di]);

  const EvalResult generic = EvaluateGeneric(db, named.query).ValueOrDie();
  SCOPED_TRACE(std::string(named.name) + " on db " + std::to_string(di));

  const EvalResult planned = EvaluatePlanned(db, named.query).ValueOrDie();
  EXPECT_EQ(generic.satisfiable, planned.satisfiable);
  EXPECT_EQ(generic.answers, planned.answers);

  const EvalResult adaptive = EvaluateAdaptive(db, named.query).ValueOrDie();
  EXPECT_EQ(generic.answers, adaptive.answers);

  const EvalResult via_cq_td =
      Forced(db, named.query, EngineChoice::kCqReduction);
  EXPECT_EQ(generic.answers, via_cq_td.answers);
  const EvalResult via_cq_bt =
      Forced(db, named.query, EngineChoice::kCqReductionNp);
  EXPECT_EQ(generic.answers, via_cq_bt.answers);

  if (named.query.IsCrpq()) {
    const EvalResult crpq =
        Forced(db, named.query, EngineChoice::kCrpqPipeline);
    EXPECT_EQ(generic.answers, crpq.answers);
  } else {
    EvalOptions options;
    options.engine = EngineChoice::kCrpqPipeline;
    EXPECT_FALSE(EvaluatePlanned(db, named.query, options).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineMatrixTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 4)));

// ---- Engine × option matrix against the naive oracle. ----

// One way to run a query: a forced or planner-routed EvaluatePlanned, or
// EvaluateAdaptive with the given phase-1 budget factor.
struct MatrixEngine {
  const char* name;
  std::optional<EngineChoice> engine;
  double adaptive_budget = 0;  // > 0: EvaluateAdaptive.
};

const MatrixEngine kMatrixEngines[] = {
    {"auto", std::nullopt},
    {"generic", EngineChoice::kGeneric},
    {"crpq", EngineChoice::kCrpqPipeline},
    {"cq", EngineChoice::kCqReduction},
    {"cq-np", EngineChoice::kCqReductionNp},
    {"adaptive/64", std::nullopt, 64.0},
    {"adaptive/0.001", std::nullopt, 0.001},
};

std::vector<NamedQuery> MatrixQueries() {
  auto parse = [](const char* text) {
    return ParseEcrpq(text, kAb).ValueOrDie();
  };
  std::vector<NamedQuery> queries;
  // Routed to the CRPQ pipeline.
  queries.push_back(
      {"crpq", parse("q(x, y) := x -[/a(a|b)*/]-> y, y -[/b*/]-> z")});
  queries.push_back({"crpq-bool", CliqueCrpqQuery(kAb, 3, "a*").ValueOrDie()});
  // Polynomial regime: the Lemma 4.3 pipeline with tree decompositions.
  queries.push_back(
      {"poly", parse("q(x, y) := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)")});
  // NP regime (G^node is K4): the backtracking CQ engine.
  queries.push_back(
      {"np", parse("q(x) := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2),"
                   " x -[/a*/]-> z, x -[/b*/]-> w, y -[/a*/]-> z,"
                   " y -[/(a|b)*/]-> w, z -[/b*/]-> w")});
  // PSPACE regime: the generic engine.
  queries.push_back(
      {"pspace", parse("q(x) := x -[p0]-> y0, x -[p1]-> y1, x -[p2]-> y2,"
                       " eqlen(p0, p1, p2)")});
  queries.push_back({"example21", ExampleTwoOneQuery(kAb).ValueOrDie()});
  return queries;
}

std::vector<GraphDb> MatrixDbs() {
  Rng rng(2022);
  std::vector<GraphDb> dbs;
  dbs.push_back(CycleGraph(5, "ab"));
  dbs.push_back(PathGraph(6, "aab"));
  dbs.push_back(RandomGraph(&rng, 6, 2.0, 2));
  return dbs;
}

class EngineOptionMatrixTest : public ::testing::TestWithParam<MatrixParam> {
 protected:
  void SetUp() override {
    const auto [qi, di] = GetParam();
    named_ = std::move(MatrixQueries()[qi]);
    db_ = std::move(MatrixDbs()[di]);
    oracle_ = EvaluateNaive(db_, named_.query).ValueOrDie();
  }

  Result<EvalResult> Run(const MatrixEngine& e, EvalOptions options) const {
    if (e.adaptive_budget > 0) {
      AdaptiveOptions adaptive;
      adaptive.budget_factor = e.adaptive_budget;
      adaptive.eval = std::move(options);
      return EvaluateAdaptive(db_, named_.query, adaptive);
    }
    options.engine = e.engine;
    return EvaluatePlanned(db_, named_.query, options);
  }

  // The engine that ends up evaluating: auto and adaptive honour exactly
  // what the planner's pick honours.
  EngineChoice Effective(const MatrixEngine& e) const {
    return e.engine.value_or(ClassifyQuery(named_.query).engine);
  }

  // Runs with a collecting on_answer callback (stopping after `stop_after`
  // deliveries, 0 = never) and checks that answers are exactly the
  // delivered tuples, each delivered once.
  EvalResult RunStreamed(const MatrixEngine& e, EvalOptions options,
                         size_t stop_after = 0) const {
    std::vector<std::vector<VertexId>> streamed;
    options.on_answer = [&](const std::vector<VertexId>& answer) {
      streamed.push_back(answer);
      return stop_after == 0 || streamed.size() < stop_after;
    };
    Result<EvalResult> r = Run(e, std::move(options));
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok()) return {};
    std::sort(streamed.begin(), streamed.end());
    EXPECT_EQ(std::adjacent_find(streamed.begin(), streamed.end()),
              streamed.end())
        << "an answer was delivered twice";
    EXPECT_EQ(streamed, r->answers);
    return std::move(r).ValueOrDie();
  }

  // A cut-off result: min(k, |oracle|) true answers.
  void ExpectCutOff(const EvalResult& r, size_t k) const {
    EXPECT_EQ(r.answers.size(), std::min(k, oracle_.answers.size()));
    EXPECT_TRUE(std::includes(oracle_.answers.begin(), oracle_.answers.end(),
                              r.answers.begin(), r.answers.end()));
  }

  NamedQuery named_{"", EcrpqQuery()};
  GraphDb db_{kAb};
  EvalResult oracle_;
};

TEST_P(EngineOptionMatrixTest, EveryEngineHonoursOrRejectsEveryOption) {
  for (const MatrixEngine& e : kMatrixEngines) {
    if (e.engine == EngineChoice::kCrpqPipeline && !named_.query.IsCrpq()) {
      continue;  // Covered by AllApplicableEnginesAgree.
    }
    SCOPED_TRACE(std::string(named_.name) + " via " + e.name);

    // No cutoff: the oracle's answers at every pool size, cache on or off,
    // with or without a streaming callback.
    for (int threads : {1, 4}) {
      for (bool disable_cache : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " disable_cache=" + std::to_string(disable_cache));
        EvalOptions options;
        options.num_threads = threads;
        options.disable_cache = disable_cache;
        Result<EvalResult> r = Run(e, options);
        ASSERT_TRUE(r.ok()) << r.status();
        EXPECT_EQ(r->satisfiable, oracle_.satisfiable);
        EXPECT_EQ(r->answers, oracle_.answers);
        EXPECT_EQ(RunStreamed(e, options).answers, oracle_.answers);
      }
    }

    // Cutoffs: max_answers 1 and 2, and a callback that stops after the
    // first answer. Which answers survive is up to the engine, but not up
    // to the pool size or the caches.
    struct Cutoff {
      size_t max_answers;
      size_t stop_after;
    };
    for (const Cutoff cut : {Cutoff{1, 0}, Cutoff{2, 0}, Cutoff{0, 1}}) {
      std::optional<std::vector<std::vector<VertexId>>> first;
      for (int threads : {1, 4}) {
        for (bool disable_cache : {false, true}) {
          SCOPED_TRACE("max_answers=" + std::to_string(cut.max_answers) +
                       " stop_after=" + std::to_string(cut.stop_after) +
                       " threads=" + std::to_string(threads) +
                       " disable_cache=" + std::to_string(disable_cache));
          EvalOptions options;
          options.num_threads = threads;
          options.disable_cache = disable_cache;
          options.max_answers = cut.max_answers;
          const EvalResult r = RunStreamed(e, options, cut.stop_after);
          ExpectCutOff(r, std::max(cut.max_answers, cut.stop_after));
          if (cut.stop_after == 0) {
            Result<EvalResult> silent = Run(e, options);
            ASSERT_TRUE(silent.ok()) << silent.status();
            EXPECT_EQ(silent->answers, r.answers);
          }
          if (!first.has_value()) first = r.answers;
          EXPECT_EQ(r.answers, *first);
        }
      }
    }

    // Generic-only fields: honoured by the generic engine, rejected with
    // InvalidArgument (naming the field) by every other engine.
    const bool generic = Effective(e) == EngineChoice::kGeneric;
    auto expect_rejected = [&](const EvalOptions& options,
                               const std::string& field) {
      Result<EvalResult> r = Run(e, options);
      ASSERT_FALSE(r.ok()) << field;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << field;
      EXPECT_NE(r.status().message().find(field), std::string::npos)
          << r.status();
    };
    EvalOptions pinned;
    pinned.pin.emplace_back(0, 0);
    EvalOptions capture;
    capture.capture_assignment = true;
    EvalOptions no_memo;
    no_memo.disable_memo = true;
    if (generic) {
      for (const EvalOptions* options : {&capture, &no_memo}) {
        Result<EvalResult> r = Run(e, *options);
        ASSERT_TRUE(r.ok()) << r.status();
        EXPECT_EQ(r->answers, oracle_.answers);
      }
      if (!named_.query.free_vars().empty()) {
        // Pinning the first free variable keeps exactly the oracle answers
        // with that value.
        const NodeVarId var = named_.query.free_vars()[0];
        EvalOptions pin_free;
        pin_free.pin.emplace_back(var, 1);
        std::vector<std::vector<VertexId>> expected;
        for (const auto& answer : oracle_.answers) {
          if (answer[0] == 1) expected.push_back(answer);
        }
        Result<EvalResult> r = Run(e, pin_free);
        ASSERT_TRUE(r.ok()) << r.status();
        EXPECT_EQ(r->answers, expected);
      }
    } else {
      expect_rejected(pinned, "pin");
      expect_rejected(capture, "capture_assignment");
      expect_rejected(no_memo, "disable_memo");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OptionMatrix, EngineOptionMatrixTest,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 3)));

TEST(EngineLimitsTest, OversizedComponentReportsStatus) {
  // Relation construction already trips the letter-universe cap for huge
  // arities — a Status, not a crash.
  Result<EcrpqQuery> star31 = EqLenStarQuery(kAb, 31);
  EXPECT_FALSE(star31.ok());
  EXPECT_EQ(star31.status().code(), StatusCode::kCapacityExceeded);

  // The searcher's own limit (the 30-bit finished-tape mask) also surfaces
  // as a Status: a 31-tape unconstrained component is a valid machine but
  // an invalid search space.
  const GraphDb db = CycleGraph(2, "ab");
  Result<JoinMachine> machine = JoinMachine::Create(db.alphabet(), {}, 31);
  ASSERT_TRUE(machine.ok()) << machine.status();
  Result<TupleSearcher> searcher = TupleSearcher::Create(&db, &*machine);
  EXPECT_FALSE(searcher.ok());
  EXPECT_EQ(searcher.status().code(), StatusCode::kCapacityExceeded);
}

}  // namespace
}  // namespace ecrpq
