#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cq/relational_db.h"

namespace ecrpq {
namespace {

Relation::SharedRows Rows(std::vector<uint32_t> rows) {
  return std::make_shared<const std::vector<uint32_t>>(std::move(rows));
}

TEST(RelationTest, AddFinalizeDedupe) {
  Relation r("R", 2);
  const uint32_t t1[2] = {1, 2};
  const uint32_t t2[2] = {3, 4};
  r.Add(t1);
  r.Add(t2);
  r.Add(t1);  // Duplicate.
  r.Finalize();
  EXPECT_EQ(r.NumTuples(), 2u);
  EXPECT_TRUE(r.Contains(t1));
  EXPECT_TRUE(r.Contains(t2));
  const uint32_t t3[2] = {1, 3};
  EXPECT_FALSE(r.Contains(t3));
}

TEST(RelationTest, TuplesSortedAfterFinalize) {
  Relation r("R", 1);
  for (uint32_t v : {5u, 1u, 3u}) {
    r.Add(std::vector<uint32_t>{v});
  }
  r.Finalize();
  EXPECT_EQ(r.Tuple(0)[0], 1u);
  EXPECT_EQ(r.Tuple(1)[0], 3u);
  EXPECT_EQ(r.Tuple(2)[0], 5u);
}

TEST(RelationTest, MatchesByBoundPattern) {
  Relation r("R", 3);
  r.Add(std::vector<uint32_t>{1, 2, 3});
  r.Add(std::vector<uint32_t>{1, 5, 6});
  r.Add(std::vector<uint32_t>{2, 2, 3});
  r.Finalize();
  // Bind position 0 = 1: two rows.
  EXPECT_EQ(r.Matches(0b001, {1}).size(), 2u);
  // Bind positions 0 and 1.
  EXPECT_EQ(r.Matches(0b011, {1, 2}).size(), 1u);
  EXPECT_EQ(r.Matches(0b011, {9, 9}).size(), 0u);
  // Bind position 2 = 3: rows 0 and 2.
  EXPECT_EQ(r.Matches(0b100, {3}).size(), 2u);
  // Empty mask: all rows share the empty key.
  EXPECT_EQ(r.Matches(0, {}).size(), 3u);
}

TEST(RelationTest, AdoptedRowsAreSharedNotCopied) {
  const Relation::SharedRows rows = Rows({0, 1, 0, 2, 1, 2, 3, 0});
  const Relation a("A", 2, rows);
  const Relation b("B", 2, rows);
  for (const Relation* r : {&a, &b}) {
    EXPECT_TRUE(r->finalized());
    ASSERT_EQ(r->NumTuples(), 4u);
    for (size_t row = 0; row < 4; ++row) {
      EXPECT_EQ(r->Tuple(row).data(), rows->data() + 2 * row);  // Same storage.
    }
    // Each relation builds its own indexes over the shared rows.
    EXPECT_EQ(r->Matches(0b01, {0}).size(), 2u);
    EXPECT_EQ(r->Matches(0b10, {2}).size(), 2u);
    EXPECT_EQ(r->Matches(0b11, {9, 9}).size(), 0u);
    EXPECT_TRUE(r->Contains(std::vector<uint32_t>{3, 0}));
    EXPECT_FALSE(r->Contains(std::vector<uint32_t>{2, 1}));
    r->CheckInvariants();
  }
}

TEST(RelationalDbTest, AdoptRelation) {
  RelationalDb db(4);
  const Relation::SharedRows rows = Rows({0, 1, 1, 2});
  ASSERT_TRUE(db.AdoptRelation("reach", 2, rows).ok());
  EXPECT_FALSE(db.AdoptRelation("reach", 2, rows).ok());  // Duplicate.
  EXPECT_FALSE(db.AddRelation("reach", 2).ok());
  db.FinalizeAll();  // Adopted rows are final already: a no-op.
  const Relation* r = db.Find("reach");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->Tuple(0).data(), rows->data());
  EXPECT_EQ(db.TotalTuples(), 2u);
}

TEST(RelationDeathTest, AddOnAdoptedRowsDies) {
  Relation r("R", 2, Rows({0, 1}));
  EXPECT_DEATH(r.Add(std::vector<uint32_t>{1, 2}), "CHECK failed");
}

// Tier-1 builds compile DCHECKs out, so these call CheckInvariants()
// explicitly; DCHECK-on builds die in the adopting constructor already.
TEST(RelationDeathTest, UnsortedAdoptedRowsDie) {
  EXPECT_DEATH(Relation("R", 2, Rows({1, 0, 0, 1})).CheckInvariants(),
               "not sorted/deduplicated");
}

TEST(RelationDeathTest, DuplicatedAdoptedRowsDie) {
  EXPECT_DEATH(Relation("R", 2, Rows({0, 1, 0, 1})).CheckInvariants(),
               "not sorted/deduplicated");
}

TEST(RelationalDbTest, AddFindRequire) {
  RelationalDb db(10);
  Result<Relation*> r = db.AddRelation("edge", 2);
  ASSERT_TRUE(r.ok());
  (*r)->Add(std::vector<uint32_t>{0, 1});
  EXPECT_FALSE(db.AddRelation("edge", 2).ok());  // Duplicate.
  db.FinalizeAll();
  EXPECT_NE(db.Find("edge"), nullptr);
  EXPECT_EQ(db.Find("missing"), nullptr);
  EXPECT_TRUE(db.Require("edge").ok());
  EXPECT_FALSE(db.Require("missing").ok());
  EXPECT_EQ(db.NumRelations(), 1u);
  EXPECT_EQ(db.TotalTuples(), 1u);
  EXPECT_EQ(db.domain_size(), 10u);
}

}  // namespace
}  // namespace ecrpq
