// The cross-query caching layer: sharded LRU invariants (byte budget,
// eviction order, oversized rejection), the automaton interner's dedup and
// DFA memo, the reach memo's one slot per (graph, language) and its
// staleness guarantee, and the plan cache's canonical-key sharing. The
// concurrent tests run under TSan in CI (tools/ci.sh stage 5).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "automata/interner.h"
#include "automata/ops.h"
#include "automata/regex.h"
#include "common/cache.h"
#include "common/hash.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "eval/planner.h"
#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/reach_memo.h"
#include "graphdb/rpq_reach.h"
#include "query/parser.h"
#include "query/simplify.h"

namespace ecrpq {
namespace {

using StringCache = ShardedLruCache<std::string, int, BytesHash>;

TEST(CacheTest, LookupInsertRoundTrip) {
  StringCache cache(/*capacity_bytes=*/1 << 16, /*num_shards=*/4);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  cache.Insert("a", 1, 10);
  cache.Insert("b", 2, 10);
  ASSERT_TRUE(cache.Lookup("a").has_value());
  EXPECT_EQ(*cache.Lookup("a"), 1);
  EXPECT_EQ(*cache.Lookup("b"), 2);
  EXPECT_EQ(cache.NumEntries(), 2u);
  const StringCache::Stats stats = cache.GetStats();
  EXPECT_GE(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(CacheTest, ByteBudgetIsNeverExceeded) {
  // Single shard so the budget math is exact. Every insert charges
  // cost + kCacheEntryOverheadBytes; the high-water mark must stay under
  // capacity at every step, with evictions making room.
  const size_t capacity = 4096;
  StringCache cache(capacity, /*num_shards=*/1);
  for (int i = 0; i < 200; ++i) {
    cache.Insert("key" + std::to_string(i), i, /*cost_bytes=*/128);
    ASSERT_LE(cache.SizeBytes(), capacity) << "after insert " << i;
  }
  EXPECT_GT(cache.GetStats().evictions, 0u);
  EXPECT_GT(cache.NumEntries(), 0u);
}

TEST(CacheTest, OversizedEntryIsRejected) {
  StringCache cache(/*capacity_bytes=*/1024, /*num_shards=*/1);
  cache.Insert("small", 1, 64);
  // Larger than the whole shard: must be rejected, not evict everything.
  cache.Insert("huge", 2, 1 << 20);
  EXPECT_FALSE(cache.Lookup("huge").has_value());
  EXPECT_TRUE(cache.Lookup("small").has_value());
  ASSERT_LE(cache.SizeBytes(), 1024u);
}

TEST(CacheTest, LruEvictsLeastRecentlyUsed) {
  // Room for exactly two entries (cost 128 + overhead 64 = 192 each).
  StringCache cache(/*capacity_bytes=*/400, /*num_shards=*/1);
  cache.Insert("a", 1, 128);
  cache.Insert("b", 2, 128);
  ASSERT_TRUE(cache.Lookup("a").has_value());  // Touch: "b" is now LRU.
  cache.Insert("c", 3, 128);
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
}

TEST(CacheTest, ReinsertReplacesInPlace) {
  StringCache cache(/*capacity_bytes=*/1 << 12, /*num_shards=*/1);
  cache.Insert("a", 1, 100);
  const size_t bytes_once = cache.SizeBytes();
  cache.Insert("a", 2, 100);
  EXPECT_EQ(cache.SizeBytes(), bytes_once);
  EXPECT_EQ(cache.NumEntries(), 1u);
  EXPECT_EQ(*cache.Lookup("a"), 2);
}

TEST(CacheTest, ReinsertThatBecomesOversizedDropsTheOldEntry) {
  StringCache cache(/*capacity_bytes=*/1 << 10, /*num_shards=*/1);
  cache.Insert("a", 1, 64);
  ASSERT_TRUE(cache.Lookup("a").has_value());
  // Re-insert under the same key with a cost the cache cannot hold. The
  // new value is rightly not cached — but the OLD value must go with it:
  // a cache that keeps serving the small stale entry after the caller
  // replaced it with an oversized one is returning wrong data forever.
  cache.Insert("a", 2, 1 << 20);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  EXPECT_EQ(cache.NumEntries(), 0u);
  // The key is reusable afterwards.
  cache.Insert("a", 3, 64);
  ASSERT_TRUE(cache.Lookup("a").has_value());
  EXPECT_EQ(*cache.Lookup("a"), 3);
}

TEST(CacheTest, GetOrInsertRunsFactoryOncePerKey) {
  StringCache cache(/*capacity_bytes=*/1 << 16, /*num_shards=*/4);
  int calls = 0;
  auto factory = [&calls] {
    ++calls;
    return 7;
  };
  auto cost = [](const int&) { return size_t{16}; };
  EXPECT_EQ(cache.GetOrInsert("k", factory, cost), 7);
  EXPECT_EQ(cache.GetOrInsert("k", factory, cost), 7);
  EXPECT_EQ(calls, 1);
}

TEST(CacheTest, ClearEmptiesEveryShard) {
  StringCache cache(/*capacity_bytes=*/1 << 16, /*num_shards=*/8);
  for (int i = 0; i < 32; ++i) {
    cache.Insert("key" + std::to_string(i), i, 32);
  }
  cache.Clear();
  EXPECT_EQ(cache.NumEntries(), 0u);
  EXPECT_EQ(cache.SizeBytes(), 0u);
  EXPECT_FALSE(cache.Lookup("key0").has_value());
}

TEST(CacheTest, ConcurrentMixedAccessIsSafe) {
  // Hammer one small cache from many threads: lookups, inserts and
  // GetOrInsert over an overlapping key space, with eviction pressure.
  // The assertions are deliberately weak — this test exists for TSan.
  StringCache cache(/*capacity_bytes=*/8192, /*num_shards=*/4);
  ThreadPool pool(8);
  pool.ParallelFor(8, [&cache](size_t w) {
    for (int i = 0; i < 500; ++i) {
      const std::string key = "key" + std::to_string(i % 40);
      if (i % 3 == 0) {
        cache.Insert(key, static_cast<int>(w), 64);
      } else if (i % 3 == 1) {
        auto hit = cache.Lookup(key);
        if (hit.has_value()) {
          ASSERT_GE(*hit, 0);
          ASSERT_LT(*hit, 48);
        }
      } else {
        const int got = cache.GetOrInsert(
            key, [i] { return i % 40; }, [](const int&) { return size_t{64}; });
        ASSERT_GE(got, 0);
        ASSERT_LT(got, 48);
      }
    }
  });
  EXPECT_LE(cache.SizeBytes(), 8192u);
}

Nfa ChainNfa(bool reversed_insertion) {
  // a then b, two orders of AddTransition: canonical bytes must agree.
  Nfa nfa;
  nfa.AddStates(3);
  nfa.SetInitial(0);
  nfa.SetAccepting(2);
  if (reversed_insertion) {
    nfa.AddTransition(1, 1, 2);
    nfa.AddTransition(0, 1, 1);
    nfa.AddTransition(0, 0, 1);
  } else {
    nfa.AddTransition(0, 0, 1);
    nfa.AddTransition(0, 1, 1);
    nfa.AddTransition(1, 1, 2);
  }
  return nfa;
}

TEST(AutomatonInternerTest, DedupsAcrossTransitionInsertionOrder) {
  AutomatonInterner interner;
  const InternedNfa a = interner.Intern(ChainNfa(false));
  const InternedNfa b = interner.Intern(ChainNfa(true));
  EXPECT_EQ(a.unique_id, b.unique_id);
  EXPECT_EQ(a.nfa.get(), b.nfa.get());  // One shared canonical instance.
}

TEST(AutomatonInternerTest, DistinctLanguagesGetDistinctIds) {
  AutomatonInterner interner;
  Nfa other = ChainNfa(false);
  other.SetAccepting(1);
  const InternedNfa a = interner.Intern(ChainNfa(false));
  const InternedNfa b = interner.Intern(other);
  EXPECT_NE(a.unique_id, b.unique_id);
}

TEST(AutomatonInternerTest, DeterminizeCachedMatchesDirectSubsetConstruction) {
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa nfa =
      CompileRegex("(a|b)*a(a|b)", &alphabet).ValueOrDie();
  const std::vector<Label> universe = {0, 1};
  AutomatonInterner interner;
  const InternedNfa interned = interner.Intern(nfa);
  const std::shared_ptr<const Dfa> cached =
      interner.DeterminizeCached(interned, universe);
  const Dfa direct = Determinize(*interned.nfa, universe);
  // Same language on every word up to length 6.
  std::vector<Label> word;
  for (int coded = 0; coded < (1 << 7); ++coded) {
    word.clear();
    int bits = coded;
    while (bits > 1) {
      word.push_back(static_cast<Label>(bits & 1));
      bits >>= 1;
    }
    EXPECT_EQ(cached->Accepts(word), direct.Accepts(word));
    EXPECT_EQ(cached->Accepts(word), interned.nfa->Accepts(word));
  }
  // Second call is a hit: the exact same DFA instance comes back.
  EXPECT_EQ(interner.DeterminizeCached(interned, universe).get(),
            cached.get());
}

TEST(AutomatonInternerTest, ConcurrentInternAgreesOnOneId) {
  AutomatonInterner interner;
  ThreadPool pool(8);
  std::vector<uint64_t> ids(8, 0);
  pool.ParallelFor(8, [&](size_t w) {
    ids[w] = interner.Intern(ChainNfa(w % 2 == 0)).unique_id;
  });
  for (size_t w = 1; w < ids.size(); ++w) EXPECT_EQ(ids[w], ids[0]);
}

GraphDb TwoHopDb() {
  GraphDb db(Alphabet::OfChars("ab"));
  db.AddVertices(4);
  db.AddEdge(0, static_cast<Symbol>(0), 1);
  db.AddEdge(1, static_cast<Symbol>(0), 2);
  return db;
}

TEST(ReachMemoTest, CopiedGraphGetsFreshIdentity) {
  const GraphDb db = TwoHopDb();
  const GraphDb copy = db;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_NE(db.graph_id(), copy.graph_id());
}

TEST(ReachMemoTest, EveryMutationBumpsTheEpoch) {
  GraphDb db = TwoHopDb();
  const uint64_t e0 = db.graph_epoch();
  db.AddEdge(0, static_cast<Symbol>(0), 1);  // Duplicate triple: still bumps.
  const uint64_t e1 = db.graph_epoch();
  EXPECT_GT(e1, e0);
  db.AddVertex();
  EXPECT_GT(db.graph_epoch(), e1);
}

TEST(ReachMemoTest, StaleEpochEntryIsNeverReturnedAfterMutation) {
  GraphDb db = TwoHopDb();
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = CompileRegex("a*", &alphabet).ValueOrDie();
  AutomatonInterner interner;
  const InternedNfa interned = interner.Intern(lang);

  ReachMemo::Global().Clear();
  const std::vector<VertexId> before = **RpqReachAllCached(db, interned);
  EXPECT_EQ(before, *RpqReachAll(db, lang));

  // Extend reachability: 2 -a-> 3. A stale pre-mutation relation would
  // miss (0,3), (1,3), (2,3).
  db.AddEdge(2, static_cast<Symbol>(0), 3);
  const std::vector<VertexId> after = **RpqReachAllCached(db, interned);
  EXPECT_EQ(after, *RpqReachAll(db, lang));
  EXPECT_NE(after, before);
}

TEST(ReachMemoTest, WarmLookupServesFromMemo) {
  GraphDb db = TwoHopDb();
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = CompileRegex("aa", &alphabet).ValueOrDie();
  AutomatonInterner interner;
  const InternedNfa interned = interner.Intern(lang);

  ReachMemo& memo = ReachMemo::Global();
  memo.Clear();
  const ReachMemo::Rows cold = *RpqReachAllCached(db, interned);
  EXPECT_EQ(*cold, *RpqReachAll(db, lang));
  EXPECT_EQ(memo.NumEntries(), 1u);  // The whole relation, one entry.
  const uint64_t lookups = memo.cache().GetStats().hits;
  const ReachMemo::Rows warm = *RpqReachAllCached(db, interned);
  EXPECT_EQ(warm.get(), cold.get());  // The same rows, not a copy.
  EXPECT_EQ(memo.cache().GetStats().hits, lookups + 1);  // One lookup.
  EXPECT_EQ(memo.NumEntries(), 1u);  // No re-insert.

  // One slot per (graph, language): another language adds one, while the
  // same language after a mutation replaces its slot.
  const InternedNfa other =
      interner.Intern(CompileRegex("a*", &alphabet).ValueOrDie());
  ASSERT_TRUE(RpqReachAllCached(db, other).ok());
  EXPECT_EQ(memo.NumEntries(), 2u);
  db.AddVertex();
  ASSERT_TRUE(RpqReachAllCached(db, interned).ok());
  EXPECT_EQ(memo.NumEntries(), 2u);
}

TEST(ReachMemoTest, StaleEpochLookupIsAMiss) {
  GraphDb db = TwoHopDb();
  Alphabet alphabet = Alphabet::OfChars("ab");
  AutomatonInterner interner;
  const InternedNfa interned =
      interner.Intern(CompileRegex("a*", &alphabet).ValueOrDie());
  ReachMemo& memo = ReachMemo::Global();
  memo.Clear();
  ASSERT_TRUE(RpqReachAllCached(db, interned).ok());
  const ReachMemoKey key{db.graph_id(), interned.unique_id};
  ASSERT_TRUE(memo.Lookup(key, db.graph_epoch()).has_value());

  // The slot still holds the pre-mutation rows: a lookup at the new epoch
  // counts a miss in the process totals and in the caller's shard.
  db.AddVertex();
  const auto before = memo.cache().GetStats();
  obs::Session session;
  EXPECT_FALSE(
      memo.Lookup(key, db.graph_epoch(), session.metrics().AcquireShard())
          .has_value());
  const auto after = memo.cache().GetStats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(session.Report()[obs::CounterId::kCacheMisses], 1u);
  EXPECT_EQ(session.Report()[obs::CounterId::kCacheHits], 0u);
  EXPECT_EQ(memo.NumEntries(), 1u);

  // The rebuild replaces the slot.
  EXPECT_EQ(**RpqReachAllCached(db, interned),
            *RpqReachAll(db, *interned.nfa));
  EXPECT_EQ(memo.NumEntries(), 1u);
  EXPECT_TRUE(memo.Lookup(key, db.graph_epoch()).has_value());
}

TEST(ReachMemoTest, OneSlotPerGraphAndLanguage) {
  // A graph that keeps changing, queried after every mutation with a CRPQ
  // whose atoms share one language: the memo holds one slot throughout,
  // where one entry per epoch would hold a dead snapshot per mutation.
  GraphDb db = CycleGraph(8, "ab");
  const EcrpqQuery query =
      ParseEcrpq("q(x, z) := x -[/a(a|b)*/]-> y, y -[/a(a|b)*/]-> z",
                 db.alphabet())
          .ValueOrDie();
  EvalOptions options;
  options.engine = EngineChoice::kCrpqPipeline;
  options.num_threads = 1;
  EvalOptions uncached = options;
  uncached.disable_cache = true;
  ClearGlobalCaches();
  for (VertexId mutation = 0; mutation <= 6; ++mutation) {
    if (mutation > 0) {
      db.AddEdge(mutation, static_cast<Symbol>(mutation % 2),
                 (3 * mutation) % 8);
    }
    const EvalResult cached = EvaluatePlanned(db, query, options).ValueOrDie();
    EXPECT_EQ(cached.answers,
              EvaluatePlanned(db, query, uncached).ValueOrDie().answers)
        << mutation << " mutations";
    EXPECT_EQ(ReachMemo::Global().NumEntries(), 1u)
        << mutation << " mutations";
  }
}

TEST(ReachMemoTest, CrpqStateBudgetTripPublishesNothing) {
  // The product-state cap bounds R_L builds: a CRPQ under a 1-state cap
  // trips at every pool size (150 vertices are three sweeps), and the memo
  // keeps nothing of the build.
  Rng rng(5);
  const GraphDb db = RandomGraph(&rng, 150, 3.0, 2);
  const EcrpqQuery query =
      ParseEcrpq("q(x, y) := x -[/a(a|b)*/]-> y", db.alphabet())
          .ValueOrDie();
  for (int threads : {1, 4}) {
    ClearGlobalCaches();
    obs::Session session;
    obs::EvalBudget budget;
    budget.max_product_states = 1;
    session.SetBudget(budget);
    EvalOptions options;
    options.engine = EngineChoice::kCrpqPipeline;
    options.num_threads = threads;
    options.obs = &session;
    const Result<EvalResult> r = EvaluatePlanned(db, query, options);
    ASSERT_FALSE(r.ok()) << threads << " threads";
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << threads << " threads";
    EXPECT_STREQ(session.exhausted_reason(), "max_product_states");
    EXPECT_EQ(ReachMemo::Global().NumEntries(), 0u) << threads << " threads";
  }
}

TEST(ReachMemoTest, EntryIsChargedItsRowBytes) {
  const GraphDb db = CycleGraph(16, "a");
  Alphabet alphabet = Alphabet::OfChars("a");
  AutomatonInterner interner;
  const InternedNfa interned =
      interner.Intern(CompileRegex("a*", &alphabet).ValueOrDie());
  ReachMemo::Global().Clear();
  const ReachMemo::Rows rows = *RpqReachAllCached(db, interned);
  ASSERT_EQ(rows->size(), 2u * 16 * 16);  // Every pair of the cycle.
  EXPECT_EQ(rows->capacity(), rows->size());
  EXPECT_EQ(ReachMemo::Global().SizeBytes(),
            rows->size() * sizeof(VertexId) + sizeof(ReachMemoKey) +
                kCacheEntryOverheadBytes);
}

TEST(ReachMemoTest, BudgetTripPublishesNothing) {
  // (a|b)* on a 512-cycle: every source reaches every vertex, in eight
  // sweeps of 64 sources.
  const GraphDb db = CycleGraph(512, "ab");
  Alphabet alphabet = Alphabet::OfChars("ab");
  AutomatonInterner interner;
  const InternedNfa interned =
      interner.Intern(CompileRegex("(a|b)*", &alphabet).ValueOrDie());
  const InternedNfa other =
      interner.Intern(CompileRegex("a", &alphabet).ValueOrDie());
  const std::vector<VertexId> full = *RpqReachAll(db, *interned.nfa);

  for (int threads : {1, 4}) {
    ReachMemo& memo = ReachMemo::Global();
    memo.Clear();
    ASSERT_TRUE(RpqReachAllCached(db, other).ok());
    const size_t entries = memo.NumEntries();

    // Each sweep charges one |V|·|Q|-bit visited set per source; the cap
    // admits two sweeps, so the poll before the third trips inside the
    // build. A build that trips returns ResourceExhausted, never rows,
    // whether it runs through the memo or on its own.
    obs::EvalBudget budget;
    budget.max_memory_bytes =
        2 * 64 * ((512 * interned.nfa->NumStates() + 7) / 8);
    obs::Session capped;
    capped.SetBudget(budget);
    const Result<ReachMemo::Rows> cached =
        RpqReachAllCached(db, interned, threads, &capped);
    ASSERT_FALSE(cached.ok()) << threads << " threads";
    EXPECT_EQ(cached.status().code(), StatusCode::kResourceExhausted)
        << threads << " threads";
    EXPECT_EQ(memo.NumEntries(), entries) << threads << " threads";
    obs::Session direct_session;
    direct_session.SetBudget(budget);
    const Result<std::vector<VertexId>> direct =
        RpqReachAll(db, *interned.nfa, threads, &direct_session);
    ASSERT_FALSE(direct.ok()) << threads << " threads";
    EXPECT_EQ(direct.status().code(), StatusCode::kResourceExhausted)
        << threads << " threads";

    // The next uncapped query builds and serves the whole relation.
    EXPECT_EQ(**RpqReachAllCached(db, interned, threads), full)
        << threads << " threads";
    EXPECT_EQ(memo.NumEntries(), entries + 1) << threads << " threads";
  }
}

TEST(ReachMemoTest, ConcurrentCachedReachIsConsistent) {
  // Eight sessions evaluate warm CRPQs at once. The atoms share two
  // languages, within and across queries, so every memoized relation is
  // adopted by many concurrent CQ relations, each with its own indexes.
  Rng rng(3);
  GraphDb db = RandomGraph(&rng, 24, 2.5, 2);
  db.Finalize();
  const Alphabet alphabet = Alphabet::OfChars("ab");
  std::vector<EcrpqQuery> queries;
  for (const char* text :
       {"q(x, z) := x -[/a*b/]-> y, y -[/a*b/]-> z",
        "q(x) := x -[/a*b/]-> y, y -[/(ab)*/]-> x",
        "q() := x -[/(ab)*/]-> y, y -[/a*b/]-> z, z -[/(ab)*/]-> x"}) {
    queries.push_back(ParseEcrpq(text, alphabet).ValueOrDie());
  }
  EvalOptions options;
  options.engine = EngineChoice::kCrpqPipeline;
  options.num_threads = 1;
  options.disable_cache = true;
  std::vector<EvalResult> expected;
  for (const EcrpqQuery& query : queries) {
    expected.push_back(EvaluatePlanned(db, query, options).ValueOrDie());
  }

  ClearGlobalCaches();
  options.disable_cache = false;
  for (const EcrpqQuery& query : queries) {
    ASSERT_TRUE(EvaluatePlanned(db, query, options).ok());  // Warm up.
  }
  ASSERT_EQ(ReachMemo::Global().NumEntries(), 2u);
  ThreadPool pool(8);
  pool.ParallelFor(8, [&](size_t worker) {
    for (int round = 0; round < 4; ++round) {
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t q = (i + worker) % queries.size();
        const EvalResult got =
            EvaluatePlanned(db, queries[q], options).ValueOrDie();
        ASSERT_EQ(got.satisfiable, expected[q].satisfiable);
        ASSERT_EQ(got.answers, expected[q].answers);
      }
    }
  });
  EXPECT_EQ(ReachMemo::Global().NumEntries(), 2u);  // Every lookup hit.
}

TEST(ReachMemoTest, MovedFromGraphStopsServingTheOldIdentity) {
  GraphDb db = TwoHopDb();
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = CompileRegex("a*", &alphabet).ValueOrDie();
  AutomatonInterner interner;
  const InternedNfa interned = interner.Intern(lang);
  ReachMemo::Global().Clear();
  const std::vector<VertexId> original = **RpqReachAllCached(db, interned);
  const uint64_t original_id = db.graph_id();

  // Move steals the identity: the stolen graph keeps serving the warm
  // memo entry (it IS the same snapshot)...
  GraphDb stolen = std::move(db);
  EXPECT_EQ(stolen.graph_id(), original_id);
  EXPECT_EQ(**RpqReachAllCached(stolen, interned), original);

  // ...while the moved-from shell holds a FRESH id at epoch 0. This is
  // the load-bearing half: if the shell retained (id, epoch), whatever
  // graph gets built in it next would silently serve the old graph's
  // reach relations.
  EXPECT_NE(db.graph_id(), original_id);
  EXPECT_EQ(db.graph_epoch(), 0u);

  // Rebuild the shell as a graph with the same shape but inverted labels:
  // a* reachability collapses to the reflexive pairs. Cached and uncached
  // answers must agree — a stale hit would resurrect `original`.
  GraphDb rebuilt(Alphabet::OfChars("ab"));
  rebuilt.AddVertices(4);
  rebuilt.AddEdge(0, static_cast<Symbol>(1), 1);
  rebuilt.AddEdge(1, static_cast<Symbol>(1), 2);
  db = std::move(rebuilt);
  EXPECT_EQ(**RpqReachAllCached(db, interned), *RpqReachAll(db, lang));
  EXPECT_NE(**RpqReachAllCached(db, interned), original);
}

TEST(PlanCacheTest, AlphaRenamedQueriesShareOneEntry) {
  const Alphabet alphabet = Alphabet::OfChars("ab");
  const EcrpqQuery q1 =
      ParseEcrpq("q() := x -[/a*b/]-> y, y -[/b*a/]-> z", alphabet)
          .ValueOrDie();
  const EcrpqQuery q2 =
      ParseEcrpq("q() := u -[/a*b/]-> v, v -[/b*a/]-> w", alphabet)
          .ValueOrDie();
  ASSERT_EQ(CanonicalQueryKey(q1), CanonicalQueryKey(q2));

  ClearGlobalCaches();
  const QueryClassification c1 = ClassifyQueryCached(q1);
  EXPECT_EQ(GlobalPlanCache().NumEntries(), 1u);
  const QueryClassification c2 = ClassifyQueryCached(q2);
  EXPECT_EQ(GlobalPlanCache().NumEntries(), 1u);  // Hit, not a new entry.
  EXPECT_EQ(c1.engine, c2.engine);
  EXPECT_EQ(c1.measures.treewidth, c2.measures.treewidth);
}

TEST(PlanCacheTest, DistinctStructuresGetDistinctEntries) {
  const Alphabet alphabet = Alphabet::OfChars("ab");
  const EcrpqQuery chain =
      ParseEcrpq("q() := x -[/a*b/]-> y, y -[/b*a/]-> z", alphabet)
          .ValueOrDie();
  const EcrpqQuery fork =
      ParseEcrpq("q() := x -[/a*b/]-> y, x -[/b*a/]-> z", alphabet)
          .ValueOrDie();
  EXPECT_NE(CanonicalQueryKey(chain), CanonicalQueryKey(fork));
  ClearGlobalCaches();
  ClassifyQueryCached(chain);
  ClassifyQueryCached(fork);
  EXPECT_EQ(GlobalPlanCache().NumEntries(), 2u);
}

TEST(PlanCacheTest, DisableCacheBypassesEveryLayer) {
  const Alphabet alphabet = Alphabet::OfChars("ab");
  const EcrpqQuery query =
      ParseEcrpq("q() := x -[/a*b/]-> y", alphabet).ValueOrDie();
  GraphDb db = TwoHopDb();

  ClearGlobalCaches();
  EvalOptions options;
  options.disable_cache = true;
  const EvalResult off = EvaluatePlanned(db, query, options).ValueOrDie();
  EXPECT_EQ(GlobalPlanCache().NumEntries(), 0u);
  EXPECT_EQ(ReachMemo::Global().NumEntries(), 0u);

  options.disable_cache = false;
  const EvalResult on = EvaluatePlanned(db, query, options).ValueOrDie();
  EXPECT_GT(GlobalPlanCache().NumEntries(), 0u);
  EXPECT_EQ(off.satisfiable, on.satisfiable);
  EXPECT_EQ(off.answers, on.answers);
}

}  // namespace
}  // namespace ecrpq
