#include "graphdb/rpq_reach.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/bitset.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/worklist.h"

namespace ecrpq {
namespace {

// Product-space BFS from (source, initial states). Product states are coded
// v * |Q| + q. Returns the visited bitset.
constexpr Symbol kEpsilonStep = ~Symbol{0};

// Direction-switching thresholds (Beamer-style). Enter the bottom-up
// (pull) phase when the frontier has grown past 1/kBottomUpAlpha of the
// unvisited space — at that density, scanning unvisited states for a
// frontier predecessor touches fewer edges than pushing the whole frontier.
// Return to top-down (push) once the frontier shrinks below 1/kTopDownBeta
// of the full space. Both tests are pure functions of per-level set sizes,
// so the traversal direction — and the direction_switches counter — is
// deterministic for a given graph and language.
constexpr size_t kBottomUpAlpha = 8;
constexpr size_t kTopDownBeta = 24;

// Reverse NFA adjacency: for each state q, the transitions *into* q.
struct ReverseTransition {
  Label label;
  StateId from;
};

std::vector<std::vector<ReverseTransition>> ReverseTransitionsOf(
    const Nfa& lang) {
  std::vector<std::vector<ReverseTransition>> rev(
      static_cast<size_t>(lang.NumStates()));
  for (StateId q = 0; q < static_cast<StateId>(lang.NumStates()); ++q) {
    for (const Nfa::Transition& t : lang.TransitionsFrom(q)) {
      rev[t.to].push_back(ReverseTransition{t.label, q});
    }
  }
  return rev;
}

// Witness-path BFS: the sparse 0/1-BFS with parent pointers. Kept separate
// from the reach-only traversal because shortest-path structure needs the
// ε-steps-first pop order that the level-synchronous direction-optimizing
// sweep deliberately gives up.
DynamicBitset ProductBfsWitness(
    const GraphDb& db, const Nfa& lang, VertexId source,
    std::vector<std::pair<uint32_t, Symbol>>* parents) {
  const size_t nq = static_cast<size_t>(lang.NumStates());
  DynamicBitset visited(static_cast<size_t>(db.NumVertices()) * nq);
  parents->assign(visited.size(), {~uint32_t{0}, kEpsilonStep});
  // 0/1-BFS needs push-front for the zero-weight ε steps; this is a
  // shortest-path queue, not a scheduler worklist.
  // NOLINTNEXTLINE(ecrpq-raw-worklist)
  std::deque<uint32_t> queue;
  std::vector<StateId> init(lang.initial());
  lang.EpsilonClose(&init);
  for (StateId q : init) {
    const uint32_t code = static_cast<uint32_t>(source * nq + q);
    if (visited.TestAndSet(code)) {
      (*parents)[code] = {code, 0};
      queue.push_back(code);
    }
  }
  while (!queue.empty()) {
    const uint32_t code = queue.front();
    queue.pop_front();
    const VertexId v = static_cast<VertexId>(code / nq);
    const StateId q = static_cast<StateId>(code % nq);
    // ε-transitions of the automaton: vertex stays put. 0/1-BFS keeps path
    // lengths minimal.
    for (const Nfa::Transition& t : lang.TransitionsFrom(q)) {
      if (t.label != kEpsilon) continue;
      const uint32_t next = static_cast<uint32_t>(v * nq + t.to);
      if (visited.TestAndSet(next)) {
        (*parents)[next] = {code, kEpsilonStep};
        queue.push_front(next);
      }
    }
    for (const LabeledEdge& e : db.OutEdges(v)) {
      for (const Nfa::Transition& t : lang.TransitionsFrom(q)) {
        if (t.label != static_cast<Label>(e.symbol)) continue;
        const uint32_t next = static_cast<uint32_t>(e.to * nq + t.to);
        if (visited.TestAndSet(next)) {
          (*parents)[next] = {code, e.symbol};
          queue.push_back(next);
        }
      }
    }
  }
  return visited;
}

// Reach-only BFS: level-synchronous, direction-optimizing. The visited set
// it computes is exactly the reachability closure — independent of
// traversal order and direction — so RpqReachFrom's output is byte-
// identical whichever sequence of push/pull levels the heuristic picks.
DynamicBitset ProductBfsReach(const GraphDb& db, const Nfa& lang,
                              VertexId source, obs::MetricsShard* shard) {
  const size_t nq = static_cast<size_t>(lang.NumStates());
  const size_t total = static_cast<size_t>(db.NumVertices()) * nq;
  DynamicBitset visited(total);
  DynamicBitset frontier(total);
  DynamicBitset next(total);

  std::vector<StateId> init(lang.initial());
  lang.EpsilonClose(&init);
  size_t frontier_count = 0;
  for (StateId q : init) {
    const size_t code = source * nq + q;
    if (visited.TestAndSet(code)) {
      frontier.Set(code);
      ++frontier_count;
    }
  }
  size_t visited_count = frontier_count;

  const std::vector<std::vector<ReverseTransition>> rev =
      ReverseTransitionsOf(lang);

  bool bottom_up = false;
  uint64_t direction_switches = 0;
  while (frontier_count > 0) {
    obs::Record(shard, obs::HistogramId::kFrontierOccupancy, frontier_count);
    const size_t unvisited = total - visited_count;
    // Hysteresis: push until the frontier dominates the unvisited space,
    // then pull until the frontier thins out again.
    const bool want_bottom_up =
        bottom_up ? frontier_count * kTopDownBeta >= total
                  : frontier_count * kBottomUpAlpha > unvisited;
    if (want_bottom_up != bottom_up) {
      bottom_up = want_bottom_up;
      ++direction_switches;
    }

    size_t next_count = 0;
    if (!bottom_up) {
      // Top-down: push every frontier state across its transitions, using
      // the sorted per-symbol CSR slices for the edge scans.
      frontier.ForEachSetBit([&](size_t code) {
        const VertexId v = static_cast<VertexId>(code / nq);
        const StateId q = static_cast<StateId>(code % nq);
        for (const Nfa::Transition& t : lang.TransitionsFrom(q)) {
          if (t.label == kEpsilon) {
            const size_t cand = v * nq + t.to;
            if (!visited.Test(cand) && !next.Test(cand)) {
              next.Set(cand);
              ++next_count;
            }
            continue;
          }
          for (const LabeledEdge& e :
               db.OutEdges(v, static_cast<Symbol>(t.label))) {
            const size_t cand = static_cast<size_t>(e.to) * nq + t.to;
            if (!visited.Test(cand) && !next.Test(cand)) {
              next.Set(cand);
              ++next_count;
            }
          }
        }
      });
    } else {
      // Bottom-up: scan unvisited states for any predecessor in the
      // frontier (reverse NFA transitions x in-edge CSR slices) and stop at
      // the first hit per state.
      visited.ForEachUnsetBit([&](size_t code) {
        if (next.Test(code)) return;  // Claimed earlier this level.
        const VertexId v = static_cast<VertexId>(code / nq);
        const StateId q = static_cast<StateId>(code % nq);
        for (const ReverseTransition& t : rev[q]) {
          if (t.label == kEpsilon) {
            if (frontier.Test(v * nq + t.from)) {
              next.Set(code);
              ++next_count;
              return;
            }
            continue;
          }
          for (const LabeledEdge& e :
               db.InEdges(v, static_cast<Symbol>(t.label))) {
            // InEdges yields (symbol, tail): e.to is the edge's source.
            if (frontier.Test(static_cast<size_t>(e.to) * nq + t.from)) {
              next.Set(code);
              ++next_count;
              return;
            }
          }
        }
      });
    }
    // Word-parallel level fold: commit the level and advance.
    visited.OrAssign(next);
    visited_count += next_count;
    std::swap(frontier, next);
    next.Clear();
    frontier_count = next_count;
  }
  obs::Add(shard, obs::CounterId::kDirectionSwitches, direction_switches);
  return visited;
}

}  // namespace

std::vector<VertexId> RpqReachFrom(const GraphDb& db, const Nfa& lang,
                                   VertexId source,
                                   obs::MetricsShard* shard) {
  const size_t nq = static_cast<size_t>(lang.NumStates());
  std::vector<VertexId> out;
  if (nq == 0) return out;
  const DynamicBitset visited = ProductBfsReach(db, lang, source, shard);
  // Accepting fold, word-parallel: sweep set product states once, mark the
  // vertices whose state component accepts, then sweep the vertex bitset to
  // emit them in sorted order.
  DynamicBitset accepting_vertices(static_cast<size_t>(db.NumVertices()));
  visited.ForEachSetBit([&](size_t code) {
    if (lang.IsAccepting(static_cast<StateId>(code % nq))) {
      accepting_vertices.Set(code / nq);
    }
  });
  accepting_vertices.ForEachSetBit(
      [&](size_t v) { out.push_back(static_cast<VertexId>(v)); });
  return out;
}

std::vector<VertexId> RpqReachAll(const GraphDb& db, const Nfa& lang,
                                  int num_threads, obs::Session* obs) {
  const VertexId n = static_cast<VertexId>(db.NumVertices());
  const int threads = ThreadPool::ResolveNumThreads(num_threads);
  obs::Span span(obs != nullptr ? obs->trace() : nullptr, "RpqReachAll");
  obs::MetricsShard* shard =
      obs != nullptr ? obs->metrics().AcquireShard() : nullptr;
  // One product-space visited bitset per source BFS.
  const uint64_t bfs_bytes =
      (static_cast<uint64_t>(n) * static_cast<uint64_t>(lang.NumStates()) +
       7) /
      8;
  std::vector<std::vector<VertexId>> per_source(n);
  auto run_source = [&](VertexId u) {
    obs::Add(shard, obs::CounterId::kRpqBfsRuns);
    obs::Add(shard, obs::CounterId::kVisitedBytes, bfs_bytes);
    obs::ScopedTimer bfs_timer(shard, obs::HistogramId::kPhaseBfsNs);
    per_source[u] = RpqReachFrom(db, lang, u, shard);
    obs::Record(shard, obs::HistogramId::kReachSetSize, per_source[u].size());
    obs::Add(shard, obs::CounterId::kTuplesMaterialized, per_source[u].size());
  };
  if (threads <= 1 || n < 2) {
    for (VertexId u = 0; u < n; ++u) {
      // One poll per source BFS: a run is the natural coarse stride here.
      if (obs != nullptr && obs->CheckBudget()) break;
      run_source(u);
    }
  } else {
    // Each source's BFS is independent; the frontier scheduler only
    // redistributes *which worker* fills which slot.
    db.Finalize();  // The lazy CSR build is not thread-safe; do it up front.
    FrontierScheduler scheduler(ThreadPool::Shared(threads), shard);
    scheduler.Execute(n, [&](size_t u, int /*worker*/) {
      // Same per-BFS poll as the sequential loop; once the budget trips,
      // remaining sources fall through without running their search.
      if (obs != nullptr && (obs->Exhausted() || obs->CheckBudget())) return;
      run_source(static_cast<VertexId>(u));
    });
  }
  // Slots concatenated in source order: byte-identical for any pool size.
  size_t num_rows = 0;
  for (const std::vector<VertexId>& targets : per_source) {
    num_rows += targets.size();
  }
  std::vector<VertexId> rows;
  rows.reserve(2 * num_rows);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : per_source[u]) {
      rows.push_back(u);
      rows.push_back(v);
    }
  }
  return rows;
}

std::optional<std::vector<PathStep>> RpqWitnessPath(const GraphDb& db,
                                                    const Nfa& lang,
                                                    VertexId source,
                                                    VertexId target) {
  const size_t nq = static_cast<size_t>(lang.NumStates());
  if (nq == 0) return std::nullopt;
  std::vector<std::pair<uint32_t, Symbol>> parents;
  const DynamicBitset visited = ProductBfsWitness(db, lang, source, &parents);
  // Find an accepting product state at `target` (any; BFS order makes the
  // first-found path shortest up to ε bookkeeping).
  std::optional<uint32_t> goal;
  for (size_t q = 0; q < nq; ++q) {
    if (lang.IsAccepting(static_cast<StateId>(q)) &&
        visited.Test(target * nq + q)) {
      goal = static_cast<uint32_t>(target * nq + q);
      break;
    }
  }
  if (!goal.has_value()) return std::nullopt;
  std::vector<PathStep> path;
  uint32_t code = *goal;
  while (parents[code].first != code) {
    const uint32_t prev = parents[code].first;
    if (parents[code].second != kEpsilonStep) {
      path.push_back(PathStep{static_cast<VertexId>(prev / nq),
                              parents[code].second,
                              static_cast<VertexId>(code / nq)});
    }
    code = prev;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace ecrpq
