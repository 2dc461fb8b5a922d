// ReachMemo: process-wide cache of RPQ reach relations R_L, one slot per
// (graph id, interned-NFA unique id). The slot's value is R_L at the graph
// epoch it was built for: RpqReachAll's output — immutable, sorted
// row-major (source, target) pairs — which ReduceToCq adopts as a CQ
// relation without a copy (cq/relation.h), so every query reading R_L
// shares one vector. An entry is charged its row bytes plus its key, close
// to its real footprint, so the byte budget bounds the memo's memory. Only
// complete relations are published: there are no partial hits.
//
// Invalidation is by construction, not by callback: every GraphDb mutation
// bumps the graph's monotone epoch (see GraphIdentity in graph_db.h), and
// a lookup accepts a slot only at the epoch it asks for — a slot built
// against an earlier epoch counts as a miss and can never be returned for
// the mutated graph. The rebuild that follows the miss replaces the slot,
// so a graph that keeps changing holds one snapshot per language, not one
// per epoch waiting to age out of the LRU. The NFA component is the
// interner's never-reused unique id, so interner eviction cannot alias two
// distinct languages onto one slot (no ABA).
//
// Every key component is exact (ids, not hashes of content), so a memo hit
// is guaranteed to be the relation RpqReachAll would recompute — cached
// and uncached evaluation are byte-identical, which the cache differential
// suite checks over hundreds of seeded instances with interleaved graph
// mutations.
#ifndef ECRPQ_GRAPHDB_REACH_MEMO_H_
#define ECRPQ_GRAPHDB_REACH_MEMO_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "automata/interner.h"
#include "common/cache.h"
#include "common/hash.h"
#include "common/obs.h"
#include "graphdb/graph_db.h"

namespace ecrpq {

struct ReachMemoKey {
  uint64_t graph_id = 0;
  uint64_t nfa_id = 0;
  bool operator==(const ReachMemoKey&) const = default;
};

struct ReachMemoKeyHash {
  size_t operator()(const ReachMemoKey& k) const {
    return HashCombine(HashCombine(0x5eacb007ULL, k.graph_id), k.nfa_id);
  }
};

class ReachMemo {
 public:
  static constexpr size_t kDefaultCapacityBytes = 64u << 20;  // 64 MiB.

  // R_L in RpqReachAll's row-major order; shared so eviction never
  // invalidates rows an evaluation is still joining over.
  using Rows = std::shared_ptr<const std::vector<VertexId>>;

  // A slot's value: R_L on the graph as it was at `graph_epoch`.
  struct Snapshot {
    uint64_t graph_epoch = 0;
    Rows rows;
  };

  explicit ReachMemo(size_t capacity_bytes = kDefaultCapacityBytes)
      : cache_(capacity_bytes, /*num_shards=*/16) {}

  // The process-wide instance every engine shares.
  static ReachMemo& Global();

  // The slot's rows if it holds R_L at `graph_epoch`; a slot at another
  // epoch is a miss.
  std::optional<Rows> Lookup(const ReachMemoKey& key, uint64_t graph_epoch,
                             obs::MetricsShard* obs_shard = nullptr) {
    std::optional<Snapshot> hit =
        cache_.Lookup(key, obs_shard, [graph_epoch](const Snapshot& slot) {
          return slot.graph_epoch == graph_epoch;
        });
    if (!hit.has_value()) return std::nullopt;
    return std::move(hit->rows);
  }

  // Publishes R_L at `graph_epoch`, replacing whatever the slot held.
  void Insert(const ReachMemoKey& key, uint64_t graph_epoch, Rows rows,
              obs::MetricsShard* obs_shard = nullptr) {
    const size_t cost = rows->size() * sizeof(VertexId) + sizeof(ReachMemoKey);
    cache_.Insert(key, Snapshot{graph_epoch, std::move(rows)}, cost,
                  obs_shard);
  }

  void Clear() { cache_.Clear(); }
  size_t SizeBytes() const { return cache_.SizeBytes(); }
  size_t NumEntries() const { return cache_.NumEntries(); }

  ShardedLruCache<ReachMemoKey, Snapshot, ReachMemoKeyHash>& cache() {
    return cache_;
  }

 private:
  ShardedLruCache<ReachMemoKey, Snapshot, ReachMemoKeyHash> cache_;
};

// Cached RpqReachAll (graphdb/rpq_reach.h): R_L for the interned language
// `lang` on `db`, the same rows in the same order. One lookup serves the
// (graph, language) slot when it holds db's current epoch. On a miss
// RpqReachAll builds the relation outside any memo lock, on the same pool
// and scheduler as the uncached path, and the rows replace the slot only
// if `obs`'s budget holds after the build (CheckBudget); otherwise they may
// be partial, and the caller's own CheckBudget turns them into
// ResourceExhausted. Two sessions that miss the same slot at once both
// build it; the rows are identical and the last insert wins.
ReachMemo::Rows RpqReachAllCached(const GraphDb& db, const InternedNfa& lang,
                                  int num_threads = 0,
                                  obs::Session* obs = nullptr);

}  // namespace ecrpq

#endif  // ECRPQ_GRAPHDB_REACH_MEMO_H_
