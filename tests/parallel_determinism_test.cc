// The parallel evaluation layer must be invisible in results: for every
// engine entry point, a pool of N workers produces byte-identical output to
// the sequential run — including early-stop cutoffs and streaming-callback
// sequences. Only work counters of an obs session may differ (concurrently
// explored branches are not un-explored by an early stop).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "automata/regex.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "eval/generic_eval.h"
#include "eval/merge.h"
#include "eval/planner.h"
#include "eval/reduce_to_cq.h"
#include "graphdb/generators.h"
#include "graphdb/rpq_reach.h"
#include "graphdb/tuple_search.h"
#include "query/parser.h"
#include "synchro/join.h"
#include "workloads/db_gen.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

EcrpqQuery Parse(std::string_view text) {
  Result<EcrpqQuery> q = ParseEcrpq(text, kAb);
  EXPECT_TRUE(q.ok()) << q.status();
  return std::move(q).ValueOrDie();
}

EvalResult Eval(const GraphDb& db, const EcrpqQuery& q, EvalOptions options) {
  Result<EvalResult> r = EvaluateGeneric(db, q, options);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).ValueOrDie();
}

// Runs the query sequentially and with a 4-worker pool and expects every
// user-visible field of EvalResult to match.
void ExpectThreadInvariant(const GraphDb& db, const EcrpqQuery& q,
                           EvalOptions options = {}) {
  options.num_threads = 1;
  const EvalResult seq = Eval(db, q, options);
  options.num_threads = 4;
  const EvalResult par = Eval(db, q, options);
  EXPECT_EQ(seq.satisfiable, par.satisfiable);
  EXPECT_EQ(seq.answers, par.answers);
  EXPECT_EQ(seq.first_assignment, par.first_assignment);
}

TEST(ParallelDeterminismTest, TwoPathEqLenAnswers) {
  ExpectThreadInvariant(
      CycleGraph(6, "ab"),
      Parse("q(x, y) := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)"));
}

TEST(ParallelDeterminismTest, LayeredDagWorkloads) {
  Rng rng(61);
  const GraphDb db = LayeredDag(&rng, 4, 6, 2, 2);
  ExpectThreadInvariant(db, ChainEqLenQuery(kAb, 3).ValueOrDie());
  ExpectThreadInvariant(db, CliqueCrpqQuery(kAb, 3, "a*").ValueOrDie());
  ExpectThreadInvariant(db, EqLenStarQuery(kAb, 3).ValueOrDie());
}

TEST(ParallelDeterminismTest, FreeVariableProjection) {
  Rng rng(7);
  const GraphDb db = RandomGraph(&rng, 12, 2.0, 2);
  ExpectThreadInvariant(db,
                        Parse("q(x, z) := x -[/a(a|b)*/]-> y, y -[/b*/]-> z"));
}

TEST(ParallelDeterminismTest, CaptureAssignment) {
  EvalOptions options;
  options.capture_assignment = true;
  ExpectThreadInvariant(
      CycleGraph(5, "ab"),
      Parse("q(x, y) := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)"), options);
}

TEST(ParallelDeterminismTest, MaxAnswersEarlyStop) {
  const GraphDb db = CycleGraph(8, "ab");
  const EcrpqQuery q = Parse("q(x, y) := x -[/a|b/]-> y");
  EvalOptions options;
  options.max_answers = 3;
  // The cutoff must land on the same three answers for every pool size.
  ExpectThreadInvariant(db, q, options);
  options.num_threads = 4;
  const EvalResult par = Eval(db, q, options);
  EXPECT_EQ(par.answers.size(), 3u);
}

TEST(ParallelDeterminismTest, StreamingCallbackSequence) {
  const GraphDb db = CycleGraph(6, "ab");
  const EcrpqQuery q =
      Parse("q(x, y) := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)");
  auto stream = [&](int num_threads) {
    std::vector<std::vector<VertexId>> streamed;
    EvalOptions options;
    options.num_threads = num_threads;
    options.on_answer = [&](const std::vector<VertexId>& answer) {
      streamed.push_back(answer);
      return true;
    };
    Eval(db, q, options);
    return streamed;
  };
  // Not just the same set: the same sequence, in the same order.
  EXPECT_EQ(stream(1), stream(4));
}

// With two workers, 64 branches are dealt round-robin in chunks of four:
// worker 0 gets [0, 4), [8, 12), ..., [56, 60) and runs them in ascending
// order; worker 1 gets [4, 8), [12, 16), ..., here made slow (each of its
// branch vertices reaches x = 2..63). Once done, worker 0 steals worker
// 1's largest chunks first: [60, 64), then [52, 56). It meets x = 1 at
// y = 60 and then again at y = 52; the stream must still be the
// sequential one, which meets x = 1 at y = 52, before x = 0 at y = 56.
TEST(ParallelDeterminismTest, BranchesRunOutOfOrderStillStreamInOrder) {
  GraphDb db(kAb);
  db.AddVertices(64);
  for (VertexId y = 4; y < 64; y += 8) {
    for (VertexId v = y; v < y + 4; ++v) {
      for (VertexId x = 2; x < 64; ++x) db.AddEdge(v, "a", x);
    }
  }
  db.AddEdge(52, "a", 1);
  db.AddEdge(56, "a", 0);
  db.AddEdge(60, "a", 1);
  const EcrpqQuery q = Parse("q(x) := y -[/a/]-> x");
  auto stream = [&](int num_threads) {
    std::vector<std::vector<VertexId>> streamed;
    EvalOptions options;
    options.num_threads = num_threads;
    options.on_answer = [&](const std::vector<VertexId>& answer) {
      streamed.push_back(answer);
      return true;
    };
    Eval(db, q, options);
    return streamed;
  };
  const std::vector<std::vector<VertexId>> sequential = stream(1);
  ASSERT_EQ(sequential.size(), 64u);
  ASSERT_EQ(sequential[62], std::vector<VertexId>{1});
  ASSERT_EQ(sequential[63], std::vector<VertexId>{0});
  for (int run = 0; run < 20; ++run) {
    ASSERT_EQ(stream(2), sequential) << "run " << run;
  }
}

// e11's BM_DataTractableQuery/16 instance: a Boolean query satisfied in
// branch 0. Each worker runs its own branches in ascending order, so
// branch 0, which the ordered replay waits for, runs first and its answer
// cancels the other branches after a hundred or so backtracking nodes
// (exploring all 64 branches takes about a million). The replay thread is
// a fifth thread beside four workers, and on a host with four cores it can
// wait a time slice to be woken, while the other workers run on; so the
// bound holds for the least of ten runs, not for every run.
TEST(ParallelDeterminismTest, EarlySatisfiedBooleanQueryCancelsTheRest) {
  Rng rng(61);
  const GraphDb db = LayeredDag(&rng, 4, 16, 2, 2);
  const EcrpqQuery q = ChainEqLenQuery(kAb, 3).ValueOrDie();
  uint64_t least = ~uint64_t{0};
  for (int run = 0; run < 10; ++run) {
    obs::Session session;
    EvalOptions options;
    options.num_threads = 4;
    options.obs = &session;
    EXPECT_TRUE(Eval(db, q, options).satisfiable);
    least = std::min(least,
                     session.Report()[obs::CounterId::kAssignmentsTried]);
  }
  EXPECT_LE(least, 1000u);
}

TEST(ParallelDeterminismTest, StreamingEarlyStopCount) {
  const GraphDb db = CycleGraph(8, "ab");
  const EcrpqQuery q = Parse("q(x, y) := x -[/a|b/]-> y");
  auto stop_after = [&](int num_threads, int limit) {
    std::vector<std::vector<VertexId>> streamed;
    EvalOptions options;
    options.num_threads = num_threads;
    options.on_answer = [&](const std::vector<VertexId>& answer) {
      streamed.push_back(answer);
      return static_cast<int>(streamed.size()) < limit;
    };
    const EvalResult r = Eval(db, q, options);
    EXPECT_EQ(streamed.size(), static_cast<size_t>(limit));
    EXPECT_EQ(r.answers.size(), static_cast<size_t>(limit));
    return streamed;
  };
  EXPECT_EQ(stop_after(1, 3), stop_after(4, 3));
}

TEST(ParallelDeterminismTest, BooleanQueries) {
  const GraphDb db = CycleGraph(4, "ab");
  ExpectThreadInvariant(db, Parse("q() := x -[/ab/]-> y"));
  ExpectThreadInvariant(db, Parse("q() := x -[/aa/]-> y"));  // Unsat.
}

TEST(ParallelDeterminismTest, CqReductionRelations) {
  const GraphDb db = CycleGraph(6, "ab");
  const EcrpqQuery q = ChainEqLenQuery(kAb, 4).ValueOrDie();
  auto eval = [&](int num_threads) {
    obs::Session session;
    EvalOptions options;
    options.engine = EngineChoice::kCqReduction;
    options.num_threads = num_threads;
    // Both runs build every relation (one-tape components would otherwise
    // come from the reach memo on the second).
    options.disable_cache = true;
    options.obs = &session;
    Result<EvalResult> r = EvaluatePlanned(db, q, options);
    EXPECT_TRUE(r.ok()) << r.status();
    const uint64_t states =
        session.Report()[obs::CounterId::kProductStatesExpanded];
    return std::make_pair(std::move(r).ValueOrDie(), states);
  };
  const auto [seq, seq_states] = eval(1);
  const auto [par, par_states] = eval(4);
  EXPECT_EQ(seq.satisfiable, par.satisfiable);
  EXPECT_EQ(seq.answers, par.answers);
  // Every source tuple is searched exactly once at any pool size.
  EXPECT_EQ(seq_states, par_states);
}

// num_threads = 1 holds on the routes that build relations before a CQ
// phase too: no scheduler runs, so no worker ever probes for a steal.
TEST(ParallelDeterminismTest, SingleThreadRoutesNeverSteal) {
  if (ThreadPool::DefaultNumThreads() < 2) {
    GTEST_SKIP() << "the default pool has a single worker";
  }
  Rng rng(12);
  struct Case {
    GraphDb db;
    EcrpqQuery query;
    EngineChoice route;
  };
  const Case cases[] = {
      {RandomGraph(&rng, 64, 2.5, 2), Parse("q(x, y) := x -[/a(a|b)*/]-> y"),
       EngineChoice::kCrpqPipeline},
      {RandomGraph(&rng, 12, 2.0, 2), ChainEqLenQuery(kAb, 2).ValueOrDie(),
       EngineChoice::kCqReduction},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(EngineChoiceName(c.route));
    obs::Session session;
    EvalOptions options;
    options.num_threads = 1;
    options.disable_cache = true;
    options.obs = &session;
    QueryClassification plan;
    Result<EvalResult> r = EvaluatePlanned(c.db, c.query, options, {}, &plan);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(plan.engine, c.route);
    EXPECT_EQ(session.Report()[obs::CounterId::kStealAttempts], 0u);
  }
}

TEST(ParallelDeterminismTest, CqReductionBudgetError) {
  // Budget violations must also be thread-invariant: both runs trip.
  Rng rng(3);
  const GraphDb db = RandomGraph(&rng, 10, 2.0, 2);
  const EcrpqQuery q = EqLenStarQuery(kAb, 2).ValueOrDie();
  for (int num_threads : {1, 4}) {
    obs::Session session;
    obs::EvalBudget budget;
    budget.max_product_states = 5;
    session.SetBudget(budget);
    EvalOptions options;
    options.num_threads = num_threads;
    options.obs = &session;
    Result<CqReduction> r = ReduceToCq(db, q, options);
    ASSERT_FALSE(r.ok()) << "pool size " << num_threads;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "pool size " << num_threads;
  }
}

TEST(ParallelDeterminismTest, RpqReachAllAnyPoolSize) {
  // 200 vertices are four sweeps of at most 64 sources, so 2 and 4 workers
  // split the relation build between them.
  Rng rng(10);
  const GraphDb db = RandomGraph(&rng, 200, 2.5, 2);
  Alphabet alphabet = Alphabet::OfChars("ab");
  Result<Nfa> lang = CompileRegex("a(a|b)*b", &alphabet);
  ASSERT_TRUE(lang.ok()) << lang.status();
  const std::vector<VertexId> seq = RpqReachAll(db, *lang, 1);
  EXPECT_EQ(seq, RpqReachAll(db, *lang, 2));
  EXPECT_EQ(seq, RpqReachAll(db, *lang, 4));
  // Row-major (u, v) pairs, strictly ascending: sorted and duplicate-free.
  ASSERT_EQ(seq.size() % 2, 0u);
  for (size_t i = 2; i < seq.size(); i += 2) {
    EXPECT_LT(std::tie(seq[i - 2], seq[i - 1]), std::tie(seq[i], seq[i + 1]))
        << "row " << i / 2;
  }
}

// TupleSearcher::Reach keeps its visited states in one of two ways: the
// one-tuple sweep's table, keyed on a dense code of (v̄, mask, machine id),
// when the (v̄, mask) part fits in 32 bits, and the sparse search's
// hash-interned state vectors when it does not. A small random graph
// embedded as the first vertices of a 2^11-vertex graph has the same
// product from its own source tuples, and with r = 3 the wide graph's code
// needs 3 + 33 bits: Reach sweeps on the small graph and runs the sparse
// search on the wide one.
class DenseAndSparseReach {
 public:
  static constexpr int kSmall = 12;
  static constexpr int kArity = 3;

  explicit DenseAndSparseReach(uint64_t seed)
      : query_(EqLenStarQuery(kAb, kArity).ValueOrDie()),
        plan_(PlanComponents(query_).at(0)),
        small_(SmallGraph(seed)),
        wide_(Widen(small_)) {}

  // Reach from `sources` with a fresh searcher, on the small graph (the
  // sweep) or the wide one (the sparse search), under a product-state cap
  // when cap > 0.
  ReachSet Reach(bool sparse, const std::vector<VertexId>& sources,
                 uint64_t cap = 0) const {
    EXPECT_EQ(static_cast<int>(plan_.paths.size()), kArity);
    Result<JoinMachine> machine = JoinMachine::Create(
        query_.alphabet(), plan_.machine_components, kArity);
    EXPECT_TRUE(machine.ok()) << machine.status();
    obs::Session session;
    if (cap > 0) {
      obs::EvalBudget budget;
      budget.max_product_states = cap;
      session.SetBudget(budget);
    }
    TupleSearchOptions options;
    options.obs = &session;
    Result<TupleSearcher> searcher =
        TupleSearcher::Create(sparse ? &wide_ : &small_, &*machine, options);
    EXPECT_TRUE(searcher.ok()) << searcher.status();
    ReachSet copy = searcher->Reach(sources);
    return copy;
  }

 private:
  static GraphDb SmallGraph(uint64_t seed) {
    Rng rng(seed);
    return RandomGraph(&rng, kSmall, 3.0, 2);
  }
  static GraphDb Widen(const GraphDb& small) {
    GraphDb wide(small.alphabet());
    wide.AddVertices(1 << 11);
    for (VertexId v = 0; v < kSmall; ++v) {
      for (const LabeledEdge& e : small.OutEdges(v)) {
        wide.AddEdge(v, e.symbol, e.to);
      }
    }
    return wide;
  }

  EcrpqQuery query_;
  ComponentPlan plan_;
  GraphDb small_;
  GraphDb wide_;
};

TEST(ParallelDeterminismTest, DenseAndSparseVisitedAgree) {
  // The visited-set representation is an internal switch: both searches
  // must explore the same states and report the same accepting targets, in
  // the same target-code order.
  const DenseAndSparseReach reach(42);
  Rng rng(29);
  for (int sample = 0; sample < 12; ++sample) {
    std::vector<VertexId> sources(DenseAndSparseReach::kArity);
    for (VertexId& v : sources) {
      v = static_cast<VertexId>(rng.Below(DenseAndSparseReach::kSmall));
    }
    const ReachSet dense = reach.Reach(false, sources);
    const ReachSet sparse = reach.Reach(true, sources);
    EXPECT_FALSE(dense.aborted);
    EXPECT_EQ(dense.aborted, sparse.aborted);
    EXPECT_EQ(dense.targets, sparse.targets) << "sample " << sample;
    EXPECT_EQ(dense.explored_states, sparse.explored_states)
        << "sample " << sample;
  }
}

TEST(ParallelDeterminismTest, DenseAndSparseAgreeOnBudgetAbort) {
  // Both searches expand states in the same order and poll the session's
  // budget at the same expansions, every 1024 of them, so a budget trip
  // cuts them at the same point.
  const DenseAndSparseReach reach(7);
  const std::vector<VertexId> sources(DenseAndSparseReach::kArity, 0);
  ASSERT_GT(reach.Reach(false, sources).explored_states, 1024u);
  std::vector<size_t> explored;
  for (const bool sparse : {false, true}) {
    const ReachSet cut = reach.Reach(sparse, sources, /*cap=*/3);
    EXPECT_TRUE(cut.aborted);
    explored.push_back(cut.explored_states);
  }
  EXPECT_EQ(explored[0], explored[1]);
}

}  // namespace
}  // namespace ecrpq
