// RPQ reachability: for a regular language L, the binary relation
// R_L = {(u, v) : some path u →* v has label in L}.
//
// R_L is computable in polynomial time by BFS over the product D × A — the
// fact behind Corollary 2.4 (CRPQ evaluation reduces to CQ evaluation).
#ifndef ECRPQ_GRAPHDB_RPQ_REACH_H_
#define ECRPQ_GRAPHDB_RPQ_REACH_H_

#include <optional>
#include <vector>

#include "automata/nfa.h"
#include "common/obs.h"
#include "graphdb/graph_db.h"

namespace ecrpq {

// A step of a witness path.
struct PathStep {
  VertexId from;
  Symbol symbol;
  VertexId to;
  bool operator==(const PathStep&) const = default;
};

// All v reachable from `source` along a path with label in L(lang).
// `lang` has Symbol labels (ε allowed).
//
// The one-source case of RpqReachAll's sweep. With a non-null shard the
// sweep's frontier_occupancy (one sample per level), reach_set_size (one
// sample) and product_states_expanded are recorded.
std::vector<VertexId> RpqReachFrom(const GraphDb& db, const Nfa& lang,
                                   VertexId source,
                                   obs::MetricsShard* shard = nullptr);

// The full relation R_L as row-major (u, v) pairs: rows[2i] = u and
// rows[2i + 1] = v, sources ascending, each source's targets ascending, no
// duplicates — the order cq/relation.h adopts without a sort. The capacity
// is exactly the size.
//
// Sources are searched in bit-parallel sweeps of 64 (Then et al., "The
// More the Merrier", PVLDB 2014): one level-synchronous BFS over D × A per
// batch of consecutive sources, in which each product state (v, q) holds a
// 64-bit word of the batch's sources that have reached it, and a level ORs
// those words along the per-symbol CSR slices. A's ε-moves are folded
// into its symbol moves δ' (each leads to its target's ε-closure, so a
// level is one graph edge), and A keeps only the |Q'| ≤ |Q| states with a
// symbol move or acceptance; |δ'| ≤ |δ|·|Q'|. Only states that gain a bit
// re-enter the frontier, so sources whose searches overlap share the
// expansions. A state can still gain new bits up to 64 times in one sweep,
// so the worst case is that of one search per source over the folded
// automaton, O(|V|·(|V|·|Q'| + |E|·|δ'|)). Per call, the work arrays take
// 2·|V|·|Q'| + |V| words per worker and are reset sparsely, so a sweep
// costs the states it reaches, not |V|·|Q'|.
//
// Sweeps are independent and run on a thread pool of `num_threads`
// workers (0 = ECRPQ_THREADS / hardware default; 1, or a graph of at most
// 64 vertices, runs on the caller's thread alone). Their rows are
// concatenated in sweep order, so the output is identical for every pool
// size.
//
// With a non-null `obs` session the relation build is wrapped in an
// "RpqReachAll" span. Each sweep counts one rpq_bfs_runs, one phase_bfs_ns
// sample, its frontier_occupancy per level, one reach_set_size sample per
// source, its rows (tuples_materialized), the popcount of the source bits
// it sets (product_states_expanded: the product states one search per
// source would reach, summed), and width·⌈|V|·|Q|/8⌉ visited_bytes, a
// per-source visited set for each of its sources, so a relation is charged
// the same whatever the batching. The budget is polled with CheckBudget()
// once per sweep, after the sweeps before it have charged; after a trip
// the remaining sweeps are skipped, so the rows can be partial only when
// obs->Exhausted() — callers check the session after the call and never
// serve such rows as an answer.
std::vector<VertexId> RpqReachAll(const GraphDb& db, const Nfa& lang,
                                  int num_threads = 0,
                                  obs::Session* obs = nullptr);

// A shortest witness path from `source` to `target` with label in L(lang).
std::optional<std::vector<PathStep>> RpqWitnessPath(const GraphDb& db,
                                                    const Nfa& lang,
                                                    VertexId source,
                                                    VertexId target);

}  // namespace ecrpq

#endif  // ECRPQ_GRAPHDB_RPQ_REACH_H_
