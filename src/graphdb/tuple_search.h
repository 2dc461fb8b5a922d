// TupleSearcher: reachability in the product of r copies of the graph
// database with a (joined) relation automaton — the semantic core of ECRPQ
// evaluation.
//
// Given path variables π_1..π_r constrained by a JoinMachine (the relation
// atoms of one G^rel connected component, Lemma 4.1), a source tuple
// ū ∈ V^r and a target tuple v̄ ∈ V^r are related iff there are paths
// p_i : u_i → v_i whose labels form a tuple accepted by the machine.
//
// Search space: (v̄, machine state, finished-mask). The mask enforces the
// graph-side convolution discipline: a tape that has emitted ⊥ is frozen at
// its current vertex. The machine state is the JoinMachine's dense id. The
// state space is |V|^r · |Q| · 2^r — exponential only in r (= cc_vertex),
// matching the paper's upper bounds.
//
// One kernel, two ways in. TupleSweep (tuple_search.cc) is the only
// untargeted product search: a level-synchronous BFS in which each product
// state holds a word of the source tuples that reached it.
//  - TupleReachAll builds Lemma 4.3's whole component relation over all
//    |V|^r source tuples in sweeps of 64 tuples, the r-tape form of
//    RpqReachAll's multi-source BFS, on the same sweep driver (RunSweeps,
//    graphdb/rpq_reach.h);
//  - TupleSearcher::Reach is the one-tuple sweep, memoized per source
//    tuple — the generic engine's lookups.
// The sparse search (hash-interned states with parent pointers) remains
// for witness paths, and for Reach on inputs whose (tuple, mask) code
// needs more than 32 bits.
#ifndef ECRPQ_GRAPHDB_TUPLE_SEARCH_H_
#define ECRPQ_GRAPHDB_TUPLE_SEARCH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/obs.h"
#include "common/result.h"
#include "graphdb/graph_db.h"
#include "graphdb/rpq_reach.h"
#include "synchro/join.h"

namespace ecrpq {

struct TupleSearchOptions {
  // Recompute every Reach() call instead of memoizing per source tuple —
  // ablation hook for experiment X2.
  bool disable_memo = false;
  // Observability & resource-governance session (common/obs.h). When set,
  // the searcher counts product states, frontier peaks, memo traffic and
  // visited-set bytes into its own metrics shard and polls the session's
  // budget every 1024 expanded states inside a search; a tripped budget
  // marks the ReachSet aborted so callers unwind. Null = zero overhead and
  // no limit.
  obs::Session* obs = nullptr;
};

// The accepting target tuples reachable from one source tuple.
struct ReachSet {
  // Row-major, arity() ids per target tuple, without duplicates, in
  // target-code order: v̄ read as a base-|V| number with v_1 the least
  // significant digit, so the last tape's vertex varies slowest.
  std::vector<VertexId> targets;
  size_t explored_states = 0;
  // The session's budget tripped mid-search: `targets` is partial.
  bool aborted = false;
};

class TupleSearcher {
 public:
  // The machine's alphabet must be id-compatible with the database's (see
  // AlphabetsCompatible). The database and machine must outlive the searcher.
  // The database must not change while the searcher lives.
  static Result<TupleSearcher> Create(const GraphDb* db, JoinMachine* machine,
                                      TupleSearchOptions options = {});

  TupleSearcher(TupleSearcher&&) noexcept;
  TupleSearcher& operator=(TupleSearcher&&) noexcept;
  ~TupleSearcher();

  int arity() const { return machine_->joint_arity(); }
  const TupleSearchOptions& options() const { return options_; }

  // Full accepting-reachability from `sources`, memoized.
  //
  // Ownership contract: a searcher (and its machine) belongs to exactly
  // one worker at a time — the memo, scratch and diagnostic counters are
  // single-owner state with no lock, encoded by owner_role_ below. The
  // coordinator may read diagnostics only after the pool has joined.
  const ReachSet& Reach(const std::vector<VertexId>& sources)
      ECRPQ_ASSERT_EXCLUSIVE(owner_role_);

  // Does some tuple of paths from sources to targets satisfy the relation?
  bool Check(const std::vector<VertexId>& sources,
             const std::vector<VertexId>& targets)
      ECRPQ_ASSERT_EXCLUSIVE(owner_role_);

  // Witness paths (one per tape) for a satisfying tuple, or nullopt. Runs a
  // fresh sparse search with parent tracking.
  std::optional<std::vector<std::vector<PathStep>>> WitnessPaths(
      const std::vector<VertexId>& sources,
      const std::vector<VertexId>& targets)
      ECRPQ_ASSERT_EXCLUSIVE(owner_role_);

  // Total number of memoized source tuples (diagnostics).
  size_t NumMemoizedSources() const {
    owner_role_.Assert();
    return memo_.size();
  }

  // Product states explored across all fresh searches (diagnostics).
  size_t TotalExploredStates() const {
    owner_role_.Assert();
    return total_explored_;
  }

 private:
  // The one-tuple sweep's coding and buffers (tuple_search.cc).
  struct Sweep;

  TupleSearcher(const GraphDb* db, JoinMachine* machine,
                TupleSearchOptions options, std::unique_ptr<Sweep> sweep);

  // One fresh untargeted search: the one-tuple sweep, or the sparse search
  // when sweep_ is null.
  ReachSet Search(const std::vector<VertexId>& sources)
      ECRPQ_REQUIRES(owner_role_);

  // The sparse search over hash-interned product states. With
  // `witness_target` set it stops at the first accepting state on that
  // target tuple and writes the paths to it into *witness_out; the
  // returned ReachSet then is partial and unread.
  ReachSet SparseSearch(const std::vector<VertexId>& sources,
                        const std::vector<VertexId>* witness_target,
                        std::optional<std::vector<std::vector<PathStep>>>*
                            witness_out) ECRPQ_REQUIRES(owner_role_);

  const GraphDb* db_;
  JoinMachine* machine_;
  TupleSearchOptions options_;
  obs::MetricsShard* shard_;  // Null when no session attached.
  // Single-owner coordinator state: written only by the worker that owns
  // this searcher (the generic engine's worker w owns its engine's
  // searchers); no lock.
  ExclusiveRole owner_role_;
  size_t total_explored_ ECRPQ_GUARDED_BY(owner_role_) = 0;
  std::unordered_map<std::vector<VertexId>, std::unique_ptr<ReachSet>,
                     VectorHash<VertexId>>
      memo_ ECRPQ_GUARDED_BY(owner_role_);
  ReachSet unmemoized_scratch_ ECRPQ_GUARDED_BY(owner_role_);
  // Null when r + bit_width(|V|^r − 1) exceeds 32; Reach then runs the
  // sparse search.
  std::unique_ptr<Sweep> sweep_ ECRPQ_GUARDED_BY(owner_role_);
};

// Lemma 4.3's component relation R'_C over all |V|^r source tuples: every
// (ū, v̄) with paths u_i → v_i whose labels `machine` accepts, as row-major
// 2r-ary rows (u_1, v_1, ..., u_r, v_r), r = machine.joint_arity(). A row
// is kept only when row[i] == row[same_as[i]] for each position i with
// same_as[i] >= 0 (same_as has 2r entries, each -1 or a smaller position):
// that is how coinciding endpoint variables are enforced inside R'_C. Rows
// come in sweep order, not sorted; no row repeats.
//
// Source tuples are taken in mixed-radix order (u_1 fastest) and searched
// in sweeps of up to 64 consecutive tuples: one level-synchronous BFS over
// the product per sweep, in which each product state (v̄, finished-mask,
// machine id) holds a 64-bit word of the sweep's tuples that reached it,
// and a level ORs each frontier word along every successor column:
// next |= word & ~seen. The states live in a hash table sized by what the
// sweep reaches (not by |V|^r·2^r), keyed on the 64-bit code
// ((v̄ << r | mask) << id_bits) | id, v̄ read as a base-|V| number; a
// graph or machine whose codes would not fit gets CapacityExceeded, never
// a wrapped key. The accepting fold ORs each target tuple's words across
// masks and accepting ids before it emits a row, so each (ū, v̄) appears
// once.
//
// Sweeps run on RunSweeps (graphdb/rpq_reach.h) over `num_threads` workers
// (0 = ECRPQ_THREADS / hardware default), which concatenates their rows in
// sweep order, so the result is identical for every pool size. Each worker
// works on its own copy of `machine` and its own scratch, made on its first
// sweep and reset sparsely between sweeps. A machine id that outgrows the
// coding ends the build with CapacityExceeded.
//
// With a non-null `obs` session: besides what RunSweeps records,
// product_states_expanded is charged the popcount of the new bits at each
// discovery (per relation, the sum of what one search per source tuple
// would intern), visited_bytes the scratch bytes each sweep's reached
// states take, one reach_set_size sample per source tuple (its accepting
// target tuples, before same_as) and each sweep's frontier_occupancy per
// level. Besides RunSweeps' polls, a sweep polls CheckBudget() every 1024
// expanded states; a trip returns the session's ResourceExhausted, so rows
// come back only when every total is within the budget.
Result<std::vector<VertexId>> TupleReachAll(const GraphDb& db,
                                            const JoinMachine& machine,
                                            std::span<const int> same_as,
                                            int num_threads = 0,
                                            obs::Session* obs = nullptr);

}  // namespace ecrpq

#endif  // ECRPQ_GRAPHDB_TUPLE_SEARCH_H_
