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
// The underlying product BFS is level-synchronous and direction-optimizing
// (top-down frontier push over per-symbol CSR slices vs bottom-up pull over
// the unvisited dense bitset, switched per level on frontier/unvisited
// sizes). The reach set is the reachability closure and is independent of
// traversal direction. With a non-null shard, the per-level frontier
// occupancy and direction switches are recorded — both deterministic.
std::vector<VertexId> RpqReachFrom(const GraphDb& db, const Nfa& lang,
                                   VertexId source,
                                   obs::MetricsShard* shard = nullptr);

// The full relation R_L as row-major (u, v) pairs: rows[2i] = u and
// rows[2i + 1] = v, sources ascending, each source's targets ascending, no
// duplicates — the order cq/relation.h adopts without a sort. The capacity
// is exactly the size. O(|V|·(|V|·|Q| + |E|·|δ|)).
//
// The per-source BFS runs are independent and execute on a thread pool of
// `num_threads` workers (0 = ECRPQ_THREADS / hardware default, 1 = fully
// sequential). Per-source results are concatenated in source order, so the
// output is identical for every pool size.
//
// With a non-null `obs` session the relation build is wrapped in an
// "RpqReachAll" span; each source BFS counts a run, its visited-bitset
// bytes, its phase_bfs_ns and reach_set_size samples and its rows
// (tuples_materialized). The budget is polled with CheckBudget() once per
// source; after a trip the remaining sources are skipped, so the rows can
// be partial only when obs->Exhausted() — callers check the session after
// the call and never serve such rows as an answer.
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
