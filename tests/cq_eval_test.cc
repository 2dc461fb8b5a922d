#include <gtest/gtest.h>

#include "common/rng.h"
#include "cq/eval_backtrack.h"
#include "cq/eval_treedec.h"
#include "eval/reduce_to_cq.h"
#include "graphdb/generators.h"
#include "query/parser.h"

namespace ecrpq {
namespace {

// A small relational database: edge relation of a directed 4-cycle plus a
// color relation.
RelationalDb CycleDb() {
  RelationalDb db(4);
  Relation* edge = *db.AddRelation("E", 2);
  for (uint32_t v = 0; v < 4; ++v) {
    edge->Add(std::vector<uint32_t>{v, (v + 1) % 4});
  }
  Relation* red = *db.AddRelation("Red", 1);
  red->Add(std::vector<uint32_t>{0});
  red->Add(std::vector<uint32_t>{2});
  db.FinalizeAll();
  return db;
}

CqQuery TriangleQuery() {
  CqQuery q;
  q.num_vars = 3;
  q.atoms = {{"E", {0, 1}}, {"E", {1, 2}}, {"E", {2, 0}}};
  return q;
}

TEST(CqBacktrackTest, PathQueryOnCycle) {
  const RelationalDb db = CycleDb();
  CqQuery q;
  q.num_vars = 3;
  q.free_vars = {0, 2};
  q.atoms = {{"E", {0, 1}}, {"E", {1, 2}}};
  Result<CqEvalResult> r = CqEvaluateBacktracking(db, q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->satisfiable);
  // Two-step reachability on a 4-cycle: (v, v+2) for each v.
  ASSERT_EQ(r->answers.size(), 4u);
  EXPECT_EQ(r->answers[0], (std::vector<uint32_t>{0, 2}));
}

TEST(CqBacktrackTest, NoTriangleInFourCycle) {
  const RelationalDb db = CycleDb();
  Result<bool> sat = CqSatisfiable(db, TriangleQuery());
  ASSERT_TRUE(sat.ok());
  EXPECT_FALSE(*sat);
}

TEST(CqBacktrackTest, RepeatedVariableWithinAtom) {
  RelationalDb db(3);
  Relation* r = *db.AddRelation("R", 2);
  r->Add(std::vector<uint32_t>{1, 1});
  r->Add(std::vector<uint32_t>{1, 2});
  db.FinalizeAll();
  CqQuery q;
  q.num_vars = 1;
  q.free_vars = {0};
  q.atoms = {{"R", {0, 0}}};  // Diagonal only.
  Result<CqEvalResult> result = CqEvaluateBacktracking(db, q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_EQ(result->answers[0], (std::vector<uint32_t>{1}));
}

TEST(CqBacktrackTest, UncoveredFreeVariableRangesOverDomain) {
  RelationalDb db(3);
  Relation* r = *db.AddRelation("R", 1);
  r->Add(std::vector<uint32_t>{1});
  db.FinalizeAll();
  CqQuery q;
  q.num_vars = 2;
  q.free_vars = {1};          // Not used by any atom.
  q.atoms = {{"R", {0}}};
  Result<CqEvalResult> result = CqEvaluateBacktracking(db, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->answers.size(), 3u);  // Whole domain.
}

TEST(CqBacktrackTest, EmptyQueryIsTrue) {
  RelationalDb db(2);
  db.FinalizeAll();
  CqQuery q;
  q.num_vars = 0;
  Result<bool> sat = CqSatisfiable(db, q);
  ASSERT_TRUE(sat.ok());
  EXPECT_TRUE(*sat);
}

TEST(CqBacktrackTest, MaxAnswersLimits) {
  const RelationalDb db = CycleDb();
  CqQuery q;
  q.num_vars = 2;
  q.free_vars = {0, 1};
  q.atoms = {{"E", {0, 1}}};
  CqEvalOptions options;
  options.max_answers = 2;
  Result<CqEvalResult> r = CqEvaluateBacktracking(db, q, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->answers.size(), 2u);
}

TEST(CqTreeDecTest, AgreesOnHandCases) {
  const RelationalDb db = CycleDb();
  // Satisfiable path query.
  CqQuery path;
  path.num_vars = 3;
  path.free_vars = {0, 2};
  path.atoms = {{"E", {0, 1}}, {"E", {1, 2}}};
  Result<CqEvalResult> bt = CqEvaluateBacktracking(db, path);
  Result<CqEvalResult> td = CqEvaluateTreeDec(db, path);
  ASSERT_TRUE(bt.ok());
  ASSERT_TRUE(td.ok()) << td.status();
  EXPECT_EQ(bt->satisfiable, td->satisfiable);
  EXPECT_EQ(bt->answers, td->answers);
  // Unsatisfiable triangle.
  Result<CqEvalResult> td_tri = CqEvaluateTreeDec(db, TriangleQuery());
  ASSERT_TRUE(td_tri.ok());
  EXPECT_FALSE(td_tri->satisfiable);
}

TEST(CqTreeDecTest, StatsReportWidth) {
  const RelationalDb db = CycleDb();
  CqQuery q;
  q.num_vars = 4;
  q.atoms = {{"E", {0, 1}}, {"E", {1, 2}}, {"E", {2, 3}}};
  obs::Session session;
  CqEvalOptions options;
  options.obs = &session;
  Result<CqEvalResult> r = CqEvaluateTreeDec(db, q, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->satisfiable);
  // The width is the widest bag's size minus one.
  const obs::StatsReport report = session.Report();
  const obs::HistogramData& bag_width =
      report.hist(obs::HistogramId::kBagWidth);
  ASSERT_FALSE(bag_width.Empty());
  EXPECT_LE(bag_width.max - 1, 2u);
  EXPECT_GT(report[obs::CounterId::kBagTuplesMaterialized], 0u);
}

// A Lemma 4.3 reduction's CQ has one 2r-clique atom per component. Its
// decomposition keeps exactly those cliques as bags (the nested bags an
// elimination order leaves inside a clique are merged away), so the bag
// tuples materialized are the relations' rows and nothing else.
TEST(CqTreeDecTest, LemmaFourThreeBagsAreTheRelations) {
  Rng rng(5);
  const GraphDb graph = RandomGraph(&rng, 12, 2.0, 2);
  const Alphabet ab = Alphabet::OfChars("ab");
  for (const char* text :
       {"q(x) := x -[p1]-> y, x -[p2]-> z, eqlen(p1, p2)",
        "q(x, w) := x -[p1]-> y, y -[p2]-> w, eqlen(p1, p2)",
        "q(x) := x -[p1]-> y, x -[p2]-> z, eqlen(p1, p2), "
        "y -[p3]-> u, u -[p4]-> v, prefix(p3, p4)"}) {
    SCOPED_TRACE(text);
    Result<EcrpqQuery> query = ParseEcrpq(text, ab);
    ASSERT_TRUE(query.ok()) << query.status();
    EvalOptions reduce_options;
    reduce_options.num_threads = 1;
    Result<CqReduction> reduction = ReduceToCq(graph, *query, reduce_options);
    ASSERT_TRUE(reduction.ok()) << reduction.status();
    size_t rows = 0;
    for (const CqAtom& atom : reduction->query.atoms) {
      rows += reduction->db->Find(atom.relation)->NumTuples();
    }
    ASSERT_GT(rows, 0u);
    obs::Session session;
    CqEvalOptions options;
    options.obs = &session;
    Result<CqEvalResult> r =
        CqEvaluateTreeDec(*reduction->db, reduction->query, options);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(session.Report()[obs::CounterId::kBagTuplesMaterialized], rows);
  }
}

// Differential: backtracking vs tree-decomposition on random CQs.
class CqDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CqDifferentialTest, EnginesAgree) {
  Rng rng(GetParam());
  const uint32_t domain = 4 + static_cast<uint32_t>(rng.Below(3));
  RelationalDb db(domain);
  for (const char* name : {"R", "S"}) {
    Relation* rel = *db.AddRelation(name, 2);
    const int tuples = 3 + static_cast<int>(rng.Below(8));
    for (int i = 0; i < tuples; ++i) {
      rel->Add(std::vector<uint32_t>{
          static_cast<uint32_t>(rng.Below(domain)),
          static_cast<uint32_t>(rng.Below(domain))});
    }
  }
  db.FinalizeAll();
  CqQuery q;
  q.num_vars = 2 + static_cast<int>(rng.Below(3));
  const int atoms = 1 + static_cast<int>(rng.Below(4));
  for (int a = 0; a < atoms; ++a) {
    q.atoms.push_back(
        CqAtom{rng.Chance(0.5) ? "R" : "S",
               {static_cast<CqVarId>(rng.Below(q.num_vars)),
                static_cast<CqVarId>(rng.Below(q.num_vars))}});
  }
  if (rng.Chance(0.5)) q.free_vars.push_back(0);
  Result<CqEvalResult> bt = CqEvaluateBacktracking(db, q);
  Result<CqEvalResult> td = CqEvaluateTreeDec(db, q);
  ASSERT_TRUE(bt.ok()) << bt.status();
  ASSERT_TRUE(td.ok()) << td.status();
  EXPECT_EQ(bt->satisfiable, td->satisfiable) << "seed " << GetParam();
  EXPECT_EQ(bt->answers, td->answers) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqDifferentialTest,
                         ::testing::Range<uint64_t>(0, 40));

}  // namespace
}  // namespace ecrpq
