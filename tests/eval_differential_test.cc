// Differential testing: all production engines vs the independent naive
// oracle on randomized small instances.
#include <gtest/gtest.h>

#include "eval/generic_eval.h"
#include "eval/naive_eval.h"
#include "eval/planner.h"
#include "graphdb/generators.h"
#include "query/builder.h"
#include "synchro/builders.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

// Options that force one engine through EvaluatePlanned.
EvalOptions Forced(EngineChoice engine) {
  EvalOptions options;
  options.engine = engine;
  return options;
}

std::shared_ptr<const SyncRelation> Shared(Result<SyncRelation> r) {
  EXPECT_TRUE(r.ok()) << r.status();
  return std::make_shared<const SyncRelation>(std::move(r).ValueOrDie());
}

// A random small ECRPQ: 2-4 node vars, 2-4 path atoms, relations drawn from
// {eqlen2, eq2, prefix, hamming1, lang} attached to random path pairs.
Result<EcrpqQuery> RandomEcrpq(Rng* rng) {
  EcrpqBuilder builder(kAb);
  const int num_nodes = 2 + static_cast<int>(rng->Below(3));
  std::vector<NodeVarId> nodes;
  for (int i = 0; i < num_nodes; ++i) {
    nodes.push_back(builder.NodeVar("x" + std::to_string(i)));
  }
  const int num_paths = 2 + static_cast<int>(rng->Below(3));
  std::vector<PathVarId> paths;
  for (int i = 0; i < num_paths; ++i) {
    const PathVarId p = builder.PathVar("p" + std::to_string(i));
    builder.Reach(nodes[rng->Below(num_nodes)], p,
                  nodes[rng->Below(num_nodes)]);
    paths.push_back(p);
  }
  const int num_rel_atoms = 1 + static_cast<int>(rng->Below(2));
  for (int i = 0; i < num_rel_atoms; ++i) {
    const PathVarId a = paths[rng->Below(num_paths)];
    PathVarId b = paths[rng->Below(num_paths)];
    if (b == a) b = paths[(std::find(paths.begin(), paths.end(), a) -
                           paths.begin() + 1) %
                          num_paths];
    if (a == b) {
      // Single path variable: attach a unary language instead.
      builder.Relate(Shared(EqualLengthRelation(kAb, 1)), {a}, "any");
      continue;
    }
    switch (rng->Below(4)) {
      case 0:
        builder.Relate(Shared(EqualLengthRelation(kAb, 2)), {a, b}, "eqlen");
        break;
      case 1:
        builder.Relate(Shared(EqualityRelation(kAb, 2)), {a, b}, "eq");
        break;
      case 2:
        builder.Relate(Shared(PrefixRelation(kAb)), {a, b}, "prefix");
        break;
      default:
        builder.Relate(Shared(HammingAtMostRelation(kAb, 1)), {a, b},
                       "hamming1");
        break;
    }
  }
  if (rng->Chance(0.5)) builder.Free({nodes[0]});
  return builder.Build();
}

GraphDb RandomSmallDb(Rng* rng) {
  const int n = 2 + static_cast<int>(rng->Below(3));  // 2-4 vertices.
  GraphDb db(kAb);
  db.AddVertices(n);
  const int edges = 2 + static_cast<int>(rng->Below(2 * n));
  for (int e = 0; e < edges; ++e) {
    db.AddEdge(static_cast<VertexId>(rng->Below(n)),
               static_cast<Symbol>(rng->Below(2)),
               static_cast<VertexId>(rng->Below(n)));
  }
  return db;
}

class EcrpqDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EcrpqDifferentialTest, GenericMatchesNaive) {
  Rng rng(GetParam());
  Result<EcrpqQuery> q = RandomEcrpq(&rng);
  ASSERT_TRUE(q.ok()) << q.status();
  const GraphDb db = RandomSmallDb(&rng);
  Result<EvalResult> naive = EvaluateNaive(db, *q);
  Result<EvalResult> generic = EvaluateGeneric(db, *q);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(generic.ok()) << generic.status();
  ASSERT_EQ(naive->satisfiable, generic->satisfiable)
      << "seed " << GetParam() << "\nquery: " << q->ToString();
  ASSERT_EQ(naive->answers, generic->answers)
      << "seed " << GetParam() << "\nquery: " << q->ToString();
}

TEST_P(EcrpqDifferentialTest, CqReductionMatchesNaive) {
  Rng rng(GetParam() + 1000);
  Result<EcrpqQuery> q = RandomEcrpq(&rng);
  ASSERT_TRUE(q.ok()) << q.status();
  const GraphDb db = RandomSmallDb(&rng);
  Result<EvalResult> naive = EvaluateNaive(db, *q);
  Result<EvalResult> via_td =
      EvaluatePlanned(db, *q, Forced(EngineChoice::kCqReduction));
  Result<EvalResult> via_bt =
      EvaluatePlanned(db, *q, Forced(EngineChoice::kCqReductionNp));
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(via_td.ok()) << via_td.status();
  ASSERT_TRUE(via_bt.ok()) << via_bt.status();
  ASSERT_EQ(naive->satisfiable, via_td->satisfiable)
      << "seed " << GetParam() << "\nquery: " << q->ToString();
  ASSERT_EQ(naive->answers, via_td->answers)
      << "seed " << GetParam() << "\nquery: " << q->ToString();
  ASSERT_EQ(naive->answers, via_bt->answers)
      << "seed " << GetParam() << "\nquery: " << q->ToString();
}

TEST_P(EcrpqDifferentialTest, PlannerMatchesNaive) {
  Rng rng(GetParam() + 2000);
  Result<EcrpqQuery> q = RandomEcrpq(&rng);
  ASSERT_TRUE(q.ok()) << q.status();
  const GraphDb db = RandomSmallDb(&rng);
  Result<EvalResult> naive = EvaluateNaive(db, *q);
  QueryClassification c;
  Result<EvalResult> planned = EvaluatePlanned(db, *q, {}, {}, &c);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(planned.ok()) << planned.status();
  ASSERT_EQ(naive->satisfiable, planned->satisfiable)
      << "seed " << GetParam() << "\nquery: " << q->ToString()
      << "\nplan: " << c.ToString();
  ASSERT_EQ(naive->answers, planned->answers)
      << "seed " << GetParam() << "\nquery: " << q->ToString();
}

TEST_P(EcrpqDifferentialTest, CrpqEngineMatchesNaiveOnCrpqs) {
  Rng rng(GetParam() + 3000);
  Result<EcrpqQuery> q =
      RandomCrpqQuery(&rng, kAb, 2 + static_cast<int>(rng.Below(3)),
                      2 + static_cast<int>(rng.Below(3)));
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(q->IsCrpq());
  const GraphDb db = RandomSmallDb(&rng);
  Result<EvalResult> naive = EvaluateNaive(db, *q);
  Result<EvalResult> crpq =
      EvaluatePlanned(db, *q, Forced(EngineChoice::kCrpqPipeline));
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(crpq.ok()) << crpq.status();
  ASSERT_EQ(naive->satisfiable, crpq->satisfiable)
      << "seed " << GetParam() << "\nquery: " << q->ToString();
  ASSERT_EQ(naive->answers, crpq->answers)
      << "seed " << GetParam() << "\nquery: " << q->ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcrpqDifferentialTest,
                         ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace ecrpq
