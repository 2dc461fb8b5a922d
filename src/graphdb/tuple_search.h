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
// its current vertex. Reachable accepting target tuples from a given source
// tuple are computed by BFS and memoized per source tuple. The state space
// is |V|^r · |Q| · 2^r — exponential only in r (= cc_vertex), matching the
// paper's upper bounds.
#ifndef ECRPQ_GRAPHDB_TUPLE_SEARCH_H_
#define ECRPQ_GRAPHDB_TUPLE_SEARCH_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/obs.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "graphdb/graph_db.h"
#include "graphdb/rpq_reach.h"
#include "synchro/join.h"

namespace ecrpq {

struct TupleSearchOptions {
  // Recompute every Reach() call instead of memoizing per source tuple —
  // ablation hook for experiment X2.
  bool disable_memo = false;
  // Force the sparse (hash-interned) visited set even when the
  // (vertex-tuple, finished-mask) space is dense enough for bitsets —
  // ablation/differential-testing hook.
  bool disable_dense_visited = false;
  // Observability & resource-governance session (common/obs.h). When set,
  // the searcher counts product states, frontier peaks, memo traffic and
  // visited-set bytes into its own metrics shard and polls the session's
  // budget at a coarse stride inside the BFS loops; a tripped budget marks
  // the ReachSet aborted so callers unwind. Null = zero overhead and no
  // limit.
  obs::Session* obs = nullptr;
};

// The set of accepting target tuples reachable from one source tuple.
struct ReachSet {
  std::unordered_set<std::vector<VertexId>, VectorHash<VertexId>> targets;
  size_t explored_states = 0;
  // The session's budget tripped mid-search: `targets` is partial.
  bool aborted = false;
};

class TupleSearcher {
 public:
  // The machine's alphabet must be id-compatible with the database's (see
  // AlphabetsCompatible). The database and machine must outlive the searcher.
  static Result<TupleSearcher> Create(const GraphDb* db, JoinMachine* machine,
                                      TupleSearchOptions options = {});

  int arity() const { return machine_->joint_arity(); }
  const TupleSearchOptions& options() const { return options_; }

  // Full accepting-reachability from `sources`, memoized.
  //
  // Ownership contract (ReachMany): a searcher belongs to exactly one
  // worker at a time — the memo, scratch and diagnostic counters are
  // single-owner state with no lock, encoded by owner_role_ below. The
  // coordinator may read diagnostics only after the pool has joined.
  const ReachSet& Reach(const std::vector<VertexId>& sources)
      ECRPQ_ASSERT_EXCLUSIVE(owner_role_);

  // Does some tuple of paths from sources to targets satisfy the relation?
  bool Check(const std::vector<VertexId>& sources,
             const std::vector<VertexId>& targets)
      ECRPQ_ASSERT_EXCLUSIVE(owner_role_);

  // Witness paths (one per tape) for a satisfying tuple, or nullopt. Runs a
  // fresh BFS with parent tracking.
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
  TupleSearcher(const GraphDb* db, JoinMachine* machine,
                TupleSearchOptions options)
      : db_(db),
        machine_(machine),
        options_(options),
        shard_(options.obs != nullptr
                   ? options.obs->metrics().AcquireShard()
                   : nullptr) {}

  ReachSet RunBfs(const std::vector<VertexId>& sources,
                  const std::vector<VertexId>* stop_at_target,
                  std::optional<std::vector<std::vector<PathStep>>>*
                      witness_out) ECRPQ_REQUIRES(owner_role_);

  // Dense-visited variant of the untargeted search: the
  // (vertex-tuple, finished-mask) part of the product state is coded into
  // `space` = |V|^r · 2^r dense ids and deduplicated with one DynamicBitset
  // per (lazily interned) joint machine state, replacing the hash-set
  // bookkeeping of the sparse path in the BFS hot loop.
  ReachSet RunBfsDense(const std::vector<VertexId>& sources, uint64_t space)
      ECRPQ_REQUIRES(owner_role_);

  // True when the dense coding fits the per-machine-state bit budget.
  bool DenseFeasible(uint64_t* space_out) const;

  const GraphDb* db_;
  JoinMachine* machine_;
  TupleSearchOptions options_;
  obs::MetricsShard* shard_;  // Null when no session attached.
  // Single-owner coordinator state: written only by the worker that owns
  // this searcher (ReachMany's worker w owns searchers[w]); no lock.
  ExclusiveRole owner_role_;
  size_t total_explored_ ECRPQ_GUARDED_BY(owner_role_) = 0;
  std::unordered_map<std::vector<VertexId>, std::unique_ptr<ReachSet>,
                     VectorHash<VertexId>>
      memo_ ECRPQ_GUARDED_BY(owner_role_);
  ReachSet unmemoized_scratch_ ECRPQ_GUARDED_BY(owner_role_);
};

// Evaluates Reach() for every tuple in `sources` across a thread pool.
// `searchers` holds one searcher per worker (all wrapping the same database
// and options but *distinct* JoinMachines — the machine's lazy
// determinization caches are not shareable across threads). Tuples are
// distributed through a work-stealing FrontierScheduler; slot i of the
// result always holds the ReachSet of sources[i], so the output is
// deterministic for any pool size. The
// pointers alias the searchers' memo tables and stay valid while the
// searchers live (memoization must be enabled).
//
// When `cancel` is non-null and fires, remaining slots are left as nullptr.
// With a non-null `shard`, the scheduler's steal counters are recorded there
// (scheduling-dependent — diagnostics, never compared across runs).
std::vector<const ReachSet*> ReachMany(
    const std::vector<TupleSearcher*>& searchers,
    const std::vector<std::vector<VertexId>>& sources, ThreadPool* pool,
    CancelToken* cancel = nullptr, obs::MetricsShard* shard = nullptr);

}  // namespace ecrpq

#endif  // ECRPQ_GRAPHDB_TUPLE_SEARCH_H_
