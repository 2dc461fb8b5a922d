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
  // The epoch names the graph contents for this whole evaluation: the
  // single-writer contract (no mutation interleaving with reads) is
  // already required by the CSR layer, so it cannot go stale mid-call.
  const ReachMemoKey key{db.graph_id(), lang.unique_id};
  const uint64_t epoch = db.graph_epoch();
  if (std::optional<ReachMemo::Rows> hit = memo.Lookup(key, epoch, shard)) {
    return *std::move(hit);
  }
  ReachMemo::Rows rows = std::make_shared<const std::vector<VertexId>>(
      RpqReachAll(db, *lang.nfa, num_threads, obs));
  // The caller's verdict on the final totals: a build that tripped the
  // budget may have skipped sources, and its query fails anyway.
  if (obs == nullptr || !obs->CheckBudget()) {
    memo.Insert(key, epoch, rows, shard);
  }
  return rows;
}

}  // namespace ecrpq
