// RPQ reachability: for a regular language L, the binary relation
// R_L = {(u, v) : some path u →* v has label in L}.
//
// R_L is computable in polynomial time by BFS over the product D × A — the
// fact behind Corollary 2.4 (CRPQ evaluation reduces to CQ evaluation).
// Its builder runs on RunSweeps, the sweep driver that Lemma 4.3's
// component relations (graphdb/tuple_search.h) run on too.
#ifndef ECRPQ_GRAPHDB_RPQ_REACH_H_
#define ECRPQ_GRAPHDB_RPQ_REACH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "automata/nfa.h"
#include "common/obs.h"
#include "common/result.h"
#include "graphdb/graph_db.h"

namespace ecrpq {

// A step of a witness path.
struct PathStep {
  VertexId from;
  Symbol symbol;
  VertexId to;
  bool operator==(const PathStep&) const = default;
};

// A sweep searches from one machine word of sources at once: bit i of a
// product state's word stands for the sweep's i-th source (or source tuple).
inline constexpr size_t kSweepWidth = 64;

// Sweeps the driver below hands to the scheduler at a time. Rows are kept
// per sweep until their round is appended, so this bounds the memory of a
// build over many sources.
inline constexpr size_t kSweepsPerRound = 1024;

// One worker's sweep of the driver below: fills *rows, empty on entry, with
// the rows of the `width` (at most 64) consecutive sources from `first`, or
// returns the error that ends the build.
using SweepFn = std::function<Status(uint64_t first, size_t width,
                                     std::vector<VertexId>* rows)>;

// The sweep driver of both relation builders, RpqReachAll below and
// TupleReachAll (graphdb/tuple_search.h). It takes the sources [0,
// num_sources) in sweeps of 64 consecutive ones and returns their rows,
// `row_width` values each, concatenated in sweep order, with capacity ==
// size.
//
// Sweeps are independent and run on a FrontierScheduler over `num_threads`
// workers (0 = ECRPQ_THREADS / hardware default; 1, or a single sweep, runs
// on the caller's thread alone), in rounds of at most kSweepsPerRound
// sweeps whose rows are appended before the next round starts, so the
// output is identical for every pool size and a build over many sources
// holds at most one round of per-sweep blocks. `make_worker(shard)` makes
// a worker's SweepFn, with whatever state it sweeps on, on the worker's
// first sweep; `shard` is the build's metrics shard (null without a
// session).
//
// With a non-null `obs` session, each sweep records one phase_bfs_ns
// sample and its rows as tuples_materialized. CheckBudget() is polled
// before each sweep, and once more at the end so that totals the last
// sweeps pushed over the budget surface too; after a trip the remaining
// sweeps are skipped and the build returns the session's
// ResourceExhausted, never partial rows. A sweep's error stops the build
// the same way and is returned in preference to a budget trip (of a
// round's failed sweeps, the first).
Result<std::vector<VertexId>> RunSweeps(
    const GraphDb& db, uint64_t num_sources, size_t row_width,
    int num_threads, obs::Session* obs,
    const std::function<SweepFn(obs::MetricsShard*)>& make_worker);

// The full relation R_L as row-major (u, v) pairs: rows[2i] = u and
// rows[2i + 1] = v, sources ascending, each source's targets ascending, no
// duplicates — the order cq/relation.h adopts without a sort. The capacity
// is exactly the size. `lang` has Symbol labels (ε allowed).
//
// Sources are searched in bit-parallel sweeps of 64 (Then et al., "The
// More the Merrier", PVLDB 2014) on RunSweeps: one level-synchronous BFS
// over D × A per batch of consecutive sources, in which each product state
// (v, q) holds a 64-bit word of the batch's sources that have reached it,
// and a level ORs those words along the per-symbol CSR slices. A's ε-moves
// are folded into its symbol moves δ' (each leads to its target's
// ε-closure, so a level is one graph edge), and A keeps only the
// |Q'| ≤ |Q| states with a symbol move or acceptance; |δ'| ≤ |δ|·|Q'|.
// Only states that gain a bit re-enter the frontier, so sources whose
// searches overlap share the expansions. A state can still gain new bits
// up to 64 times in one sweep, so the worst case is that of one search per
// source over the folded automaton, O(|V|·(|V|·|Q'| + |E|·|δ'|)). Per
// call, the work arrays take 2·|V|·|Q'| + |V| words per worker and are
// reset sparsely, so a sweep costs the states it reaches, not |V|·|Q'|.
//
// With a non-null `obs` session the relation build is wrapped in an
// "RpqReachAll" span. Besides what RunSweeps records, each sweep counts
// one rpq_bfs_runs, its frontier_occupancy per level, one reach_set_size
// sample per source, the popcount of its reached states' source words
// (product_states_expanded: the product states one search per source
// would reach, summed), and width·⌈|V|·|Q|/8⌉ visited_bytes, a per-source
// visited set for each of its sources, so a relation is charged the same
// whatever the batching. A tripped budget returns ResourceExhausted.
Result<std::vector<VertexId>> RpqReachAll(const GraphDb& db, const Nfa& lang,
                                          int num_threads = 0,
                                          obs::Session* obs = nullptr);

// A shortest witness path from `source` to `target` with label in L(lang).
std::optional<std::vector<PathStep>> RpqWitnessPath(const GraphDb& db,
                                                    const Nfa& lang,
                                                    VertexId source,
                                                    VertexId target);

}  // namespace ecrpq

#endif  // ECRPQ_GRAPHDB_RPQ_REACH_H_
