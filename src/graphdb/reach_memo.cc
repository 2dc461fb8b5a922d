#include "graphdb/reach_memo.h"

#include "graphdb/rpq_reach.h"

namespace ecrpq {

ReachMemo& ReachMemo::Global() {
  static ReachMemo* memo = new ReachMemo();
  return *memo;
}

ReachMemo::Rows RpqReachAllCached(const GraphDb& db, const InternedNfa& lang,
                                  int num_threads, obs::Session* obs) {
  obs::MetricsShard* shard =
      obs != nullptr ? obs->metrics().AcquireShard() : nullptr;
  ReachMemo& memo = ReachMemo::Global();
  // The epoch snapshot names the graph contents for this whole evaluation:
  // the single-writer contract (no mutation interleaving with reads) is
  // already required by the CSR layer, so the snapshot cannot go stale
  // mid-call.
  const ReachMemoKey key{db.graph_id(), db.graph_epoch(), lang.unique_id};
  if (std::optional<ReachMemo::Rows> hit = memo.Lookup(key, shard)) {
    return *std::move(hit);
  }
  ReachMemo::Rows rows = std::make_shared<const std::vector<VertexId>>(
      RpqReachAll(db, *lang.nfa, num_threads, obs));
  // The caller's verdict on the final totals: a build that tripped the
  // budget may have skipped sources, and its query fails anyway.
  if (obs == nullptr || !obs->CheckBudget()) memo.Insert(key, rows, shard);
  return rows;
}

}  // namespace ecrpq
