#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/bitset.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace ecrpq {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::Invalid("bad arity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arity");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad arity");
}

TEST(StatusTest, CopyIsCheap) {
  Status a = Status::NotFound("x");
  Status b = a;  // Shared state.
  EXPECT_EQ(b.message(), "x");
  EXPECT_EQ(b.code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("too big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

Result<int> Doubler(Result<int> input) {
  ECRPQ_ASSIGN_OR_RAISE(int v, input);
  return v * 2;
}

TEST(ResultTest, AssignOrRaisePropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Invalid("nope")).ok());
  EXPECT_EQ(Doubler(Status::Invalid("nope")).status().message(), "nope");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 16; ++i) diff += (a.Next() != b.Next());
  EXPECT_GT(diff, 0);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All five values show up.
}

TEST(BitsetTest, SetTestReset) {
  // Setting a bit leaves its neighbour and the other words clear.
  DynamicBitset bits(130);
  EXPECT_FALSE(bits.Test(129));
  EXPECT_TRUE(bits.TestAndSet(129));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(128));
  EXPECT_FALSE(bits.Test(0));
}

TEST(BitsetTest, TestAndSetReportsFirstVisit) {
  DynamicBitset bits(64);
  EXPECT_TRUE(bits.TestAndSet(10));
  EXPECT_FALSE(bits.TestAndSet(10));
  EXPECT_TRUE(bits.Test(10));
  EXPECT_FALSE(bits.Test(9));
  EXPECT_FALSE(bits.Test(11));
}

TEST(BitsetTest, InitialValueAndClear) {
  // A new bitset starts with every bit clear.
  DynamicBitset bits(70);
  for (size_t i = 0; i < 70; ++i) EXPECT_FALSE(bits.Test(i)) << i;
}

TEST(StringsTest, Split) {
  const auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, Strip) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, JoinAndStartsWith) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_TRUE(StartsWith("edge 0 a 1", "edge"));
  EXPECT_FALSE(StartsWith("ed", "edge"));
}

TEST(HashTest, VectorHashDistinguishes) {
  VectorHash<uint32_t> h;
  EXPECT_NE(h({1, 2, 3}), h({3, 2, 1}));
  EXPECT_NE(h({}), h({0}));
  EXPECT_EQ(h({1, 2, 3}), h({1, 2, 3}));
}

// Shift edge cases: bit 0, bit 63 (the full 64-bit shift range), and sizes
// straddling a word boundary. Written against the UBSan-checked build —
// any shift-width or overflow slip here is a sanitizer failure.
TEST(BitsetTest, WordBoundaryAndBit63) {
  for (const size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                         size_t{128}, size_t{129}}) {
    DynamicBitset bits(n);
    EXPECT_TRUE(bits.TestAndSet(0)) << n;
    EXPECT_EQ(bits.TestAndSet(n - 1), n > 1) << n;
    EXPECT_TRUE(bits.Test(0)) << n;
    EXPECT_TRUE(bits.Test(n - 1)) << n;
    for (size_t i = 1; i + 1 < n; ++i) {
      EXPECT_FALSE(bits.Test(i)) << n << ":" << i;
    }
  }
}

TEST(BitsetTest, AllOnesConstructionTrimsPastTheEnd) {
  // Filling every bit up to a size that ends inside a word: each bit is a
  // first visit once, and a second pass finds every one set.
  for (const size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65}}) {
    DynamicBitset bits(n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(bits.TestAndSet(i)) << n << ":" << i;
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_FALSE(bits.TestAndSet(i)) << n << ":" << i;
    }
  }
}

TEST(BitsetTest, EmptyBitsetIsWellFormed) {
  DynamicBitset bits(0);
  EXPECT_EQ(bits.size(), 0u);
}

TEST(BitsetTest, AnySetAndEquality) {
  // Copies are independent values: a bit set in one stays clear in the
  // other.
  DynamicBitset a(100);
  const DynamicBitset b = a;
  EXPECT_TRUE(a.TestAndSet(99));
  EXPECT_TRUE(a.Test(99));
  EXPECT_FALSE(b.Test(99));
}

// Signed/overflow edge cases: the mixers must accept extreme and negative
// inputs without signed overflow (all arithmetic is on unsigned types) and
// still distinguish values.
TEST(HashTest, MixersHandleExtremeInputs) {
  EXPECT_NE(HashMix64(0), HashMix64(~uint64_t{0}));
  EXPECT_NE(HashMix64(uint64_t{1} << 63), HashMix64(0));
  EXPECT_NE(HashCombine(~size_t{0}, ~uint64_t{0}),
            HashCombine(~size_t{0}, 0));
}

TEST(HashTest, SignedValuesHashConsistently) {
  VectorHash<int64_t> h;
  const std::vector<int64_t> negatives = {-1, std::numeric_limits<int64_t>::min()};
  EXPECT_EQ(h(negatives), h(negatives));
  EXPECT_NE(h(negatives), h({-1, -1}));
  PairHash<int32_t, int32_t> ph;
  EXPECT_NE(ph({-1, 0}), ph({0, -1}));
  EXPECT_EQ(ph({std::numeric_limits<int32_t>::min(), -1}),
            ph({std::numeric_limits<int32_t>::min(), -1}));
}

}  // namespace
}  // namespace ecrpq
