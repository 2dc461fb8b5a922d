#include "graphdb/rpq_reach.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <deque>
#include <optional>
#include <utility>

#include "common/bitset.h"
#include "common/thread_pool.h"
#include "common/worklist.h"
#include "graphdb/reach_memo.h"

namespace ecrpq {
namespace {

constexpr Symbol kEpsilonStep = ~Symbol{0};

// Witness-path BFS: the sparse 0/1-BFS with parent pointers. Kept separate
// from the reach sweep because shortest-path structure needs parents and
// the ε-steps-first pop order that a level-synchronous sweep gives up.
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

// The automaton as a sweep reads it. Its ε-moves are folded in: each
// symbol move leads to the ε-closure of its target, so one level of a
// sweep is one graph edge. Only the states that can matter to a row, those
// with a symbol move or accepting, are kept, renumbered densely.
struct SweepAutomaton {
  struct Move {
    Symbol symbol;
    std::vector<StateId> to;
  };

  explicit SweepAutomaton(const Nfa& lang) {
    constexpr StateId kDropped = ~StateId{0};
    std::vector<StateId> id(static_cast<size_t>(lang.NumStates()), kDropped);
    for (StateId q = 0; q < id.size(); ++q) {
      const auto out = lang.TransitionsFrom(q);
      if (lang.IsAccepting(q) ||
          std::any_of(out.begin(), out.end(), [](const Nfa::Transition& t) {
            return t.label != kEpsilon;
          })) {
        id[q] = static_cast<StateId>(accepting.size());
        accepting.push_back(lang.IsAccepting(q));
      }
    }
    auto closure = [&](std::vector<StateId> states) {
      lang.EpsilonClose(&states);
      std::vector<StateId> kept;
      for (StateId q : states) {
        if (id[q] != kDropped) kept.push_back(id[q]);
      }
      return kept;
    };
    init = closure(lang.initial());
    moves.resize(accepting.size());
    for (StateId q = 0; q < id.size(); ++q) {
      for (const Nfa::Transition& t : lang.TransitionsFrom(q)) {
        if (t.label == kEpsilon) continue;
        moves[id[q]].push_back(
            {static_cast<Symbol>(t.label), closure({t.to})});
      }
    }
  }

  size_t NumStates() const { return accepting.size(); }

  std::vector<StateId> init;
  std::vector<std::vector<Move>> moves;  // Indexed by state.
  std::vector<bool> accepting;           // Indexed by state.
};

// A product state (v, q) of D × SweepAutomaton. Its code in the dense
// arrays is v·|Q'| + q, |Q'| = SweepAutomaton::NumStates().
struct ProductState {
  VertexId v;
  StateId q;
};

// What one sweep works in. The dense arrays are indexed by product-state
// code (or by vertex) and are all-zero between sweeps: a sweep clears
// exactly the entries it set, so the next one costs its own work, not the
// arrays' size.
struct SweepScratch {
  SweepScratch(size_t num_states, size_t num_vertices)
      : seen(num_states), next(num_states), targets(num_vertices) {}

  std::vector<uint64_t> seen;     // Sources that reached the state.
  std::vector<uint64_t> next;     // Sources new to the state this level.
  std::vector<uint64_t> targets;  // Sources whose reach set holds the vertex.
  std::vector<ProductState> reached;  // States whose `seen` word is nonzero.
  std::vector<ProductState> grown;    // States whose `next` word is nonzero.
  std::vector<std::pair<ProductState, uint64_t>> frontier;  // New sources.
  std::vector<VertexId> hits;     // Vertices whose `targets` word is nonzero.
};

// One level-synchronous product sweep from the `width` sources starting at
// `first`. A level pushes each frontier word along the state's moves over
// the per-symbol CSR slices,
//   next[(w, q')] |= frontier[(v, q)] & ~seen[(w, q')],
// and the states whose `next` word is nonzero, carrying only those new
// bits, form the next level. `seen` ends as the union of the sources'
// reachability closures, which no visit order changes. With a shard it
// charges product_states_expanded the popcount of every reached state's
// `seen` word: the states one search per source would reach, summed.
// Returns the sources' rows of R_L, row-major, sources then targets
// ascending.
std::vector<VertexId> Sweep(const GraphDb& db, const SweepAutomaton& automaton,
                            VertexId first, size_t width, SweepScratch* s,
                            obs::MetricsShard* shard) {
  const size_t nq = automaton.NumStates();
  auto code_of = [nq](ProductState p) {
    return static_cast<size_t>(p.v) * nq + p.q;
  };
  auto gain = [s, &code_of](ProductState p, uint64_t word) {
    const size_t code = code_of(p);
    const uint64_t fresh = word & ~s->seen[code];
    if (fresh == 0) return;
    if (s->next[code] == 0) s->grown.push_back(p);
    s->next[code] |= fresh;
  };
  for (size_t i = 0; i < width; ++i) {
    for (StateId q : automaton.init) {
      gain({first + static_cast<VertexId>(i), q}, uint64_t{1} << i);
    }
  }
  while (!s->grown.empty()) {
    // Commit the level: its new bits join `seen` and become the frontier.
    s->frontier.clear();
    for (ProductState p : s->grown) {
      const size_t code = code_of(p);
      const uint64_t word = std::exchange(s->next[code], 0);
      if (s->seen[code] == 0) s->reached.push_back(p);
      s->seen[code] |= word;
      s->frontier.emplace_back(p, word);
    }
    s->grown.clear();
    obs::Record(shard, obs::HistogramId::kFrontierOccupancy,
                s->frontier.size());
    for (const auto& [p, word] : s->frontier) {
      for (const SweepAutomaton::Move& move : automaton.moves[p.q]) {
        for (const LabeledEdge& e : db.OutEdges(p.v, move.symbol)) {
          for (StateId q : move.to) gain({e.to, q}, word);
        }
      }
    }
  }
  // Accepting fold over the reached states only, clearing `seen` behind it.
  // A committed word never overlaps `seen`, so one popcount per reached
  // state sums the bits of every level.
  uint64_t discovered = 0;
  for (ProductState p : s->reached) {
    const uint64_t word = std::exchange(s->seen[code_of(p)], 0);
    if (shard != nullptr) {
      discovered += static_cast<uint64_t>(std::popcount(word));
    }
    if (!automaton.accepting[p.q]) continue;
    if (s->targets[p.v] == 0) s->hits.push_back(p.v);
    s->targets[p.v] |= word;
  }
  s->reached.clear();
  obs::Add(shard, obs::CounterId::kProductStatesExpanded, discovered);
  std::sort(s->hits.begin(), s->hits.end());
  // Source i's rows are rows [offset[i], offset[i + 1]); walking the hit
  // vertices in ascending order fills each block with ascending targets.
  std::array<size_t, kSweepWidth + 1> offset{};
  for (VertexId v : s->hits) {
    for (uint64_t w = s->targets[v]; w != 0; w &= w - 1) {
      ++offset[std::countr_zero(w) + 1];
    }
  }
  for (size_t i = 0; i < width; ++i) {
    obs::Record(shard, obs::HistogramId::kReachSetSize, offset[i + 1]);
    offset[i + 1] += offset[i];
  }
  std::vector<VertexId> rows(2 * offset[width]);
  for (VertexId v : s->hits) {
    for (uint64_t w = std::exchange(s->targets[v], 0); w != 0; w &= w - 1) {
      const size_t i = static_cast<size_t>(std::countr_zero(w));
      const size_t row = offset[i]++;
      rows[2 * row] = first + static_cast<VertexId>(i);
      rows[2 * row + 1] = v;
    }
  }
  s->hits.clear();
  return rows;
}

}  // namespace

Result<std::vector<VertexId>> RunSweeps(
    const GraphDb& db, uint64_t num_sources, size_t row_width,
    int num_threads, obs::Session* obs,
    const std::function<SweepFn(obs::MetricsShard*)>& make_worker) {
  obs::MetricsShard* shard =
      obs != nullptr ? obs->metrics().AcquireShard() : nullptr;
  const uint64_t num_sweeps = (num_sources + kSweepWidth - 1) / kSweepWidth;
  const int threads = ThreadPool::ResolveNumThreads(num_threads);
  const bool parallel = threads > 1 && num_sweeps > 1;
  if (parallel) db.Finalize();  // The lazy CSR build is not thread-safe.
  std::vector<SweepFn> workers(parallel ? static_cast<size_t>(threads) : 1);
  std::atomic<bool> failed{false};
  std::vector<VertexId> rows;
  for (uint64_t round = 0; round < num_sweeps; round += kSweepsPerRound) {
    const size_t in_round = static_cast<size_t>(
        std::min<uint64_t>(kSweepsPerRound, num_sweeps - round));
    std::vector<std::vector<VertexId>> blocks(in_round);
    std::vector<Status> errors(in_round);
    auto run_sweep = [&](size_t b, int worker) {
      if (failed.load(std::memory_order_relaxed)) return;
      // One poll per sweep: a sweep is the natural coarse stride here.
      if (obs != nullptr && (obs->Exhausted() || obs->CheckBudget())) return;
      SweepFn& sweep = workers[worker];
      if (!sweep) sweep = make_worker(shard);
      const uint64_t first = (round + b) * kSweepWidth;
      const size_t width = static_cast<size_t>(
          std::min<uint64_t>(kSweepWidth, num_sources - first));
      obs::ScopedTimer sweep_timer(shard, obs::HistogramId::kPhaseBfsNs);
      errors[b] = sweep(first, width, &blocks[b]);
      if (!errors[b].ok()) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      obs::Add(shard, obs::CounterId::kTuplesMaterialized,
               blocks[b].size() / row_width);
    };
    if (parallel) {
      // Sweeps are independent; the scheduler only decides which worker
      // fills which slot, and the slots are appended in sweep order.
      FrontierScheduler scheduler(ThreadPool::Shared(threads), shard);
      scheduler.Execute(in_round, run_sweep);
    } else {
      for (size_t b = 0; b < in_round; ++b) run_sweep(b, 0);
    }
    for (Status& error : errors) {
      if (!error.ok()) return std::move(error);
    }
    size_t num_values = 0;
    for (const std::vector<VertexId>& block : blocks) {
      num_values += block.size();
    }
    // Exact for the first round; geometric across rounds.
    if (rows.capacity() - rows.size() < num_values) {
      rows.reserve(std::max(rows.size() + num_values, 2 * rows.capacity()));
    }
    for (const std::vector<VertexId>& block : blocks) {
      rows.insert(rows.end(), block.begin(), block.end());
    }
    if (obs != nullptr && obs->Exhausted()) break;
  }
  // Final check: totals that the last sweeps pushed over the budget
  // between polls still surface as ResourceExhausted.
  if (obs != nullptr && obs->CheckBudget()) return obs->ExhaustedStatus();
  rows.shrink_to_fit();  // A no-op after a single round.
  return rows;
}

Result<std::vector<VertexId>> RpqReachAll(const GraphDb& db, const Nfa& lang,
                                          int num_threads, obs::Session* obs) {
  obs::Span span(obs != nullptr ? obs->trace() : nullptr, "RpqReachAll");
  const size_t n = static_cast<size_t>(db.NumVertices());
  const SweepAutomaton automaton(lang);
  const size_t num_states = n * automaton.NumStates();
  // Each source is charged the |V|·|Q|-bit visited set a search of its own
  // would need, so the charge per relation does not depend on batching.
  const uint64_t source_bytes =
      (n * static_cast<uint64_t>(lang.NumStates()) + 7) / 8;
  return RunSweeps(
      db, n, /*row_width=*/2, num_threads, obs,
      [&](obs::MetricsShard* shard) -> SweepFn {
        return [&, shard, scratch = SweepScratch(num_states, n)](
                   uint64_t first, size_t width,
                   std::vector<VertexId>* rows) mutable {
          obs::Add(shard, obs::CounterId::kRpqBfsRuns);
          obs::Add(shard, obs::CounterId::kVisitedBytes, width * source_bytes);
          *rows = Sweep(db, automaton, static_cast<VertexId>(first), width,
                        &scratch, shard);
          return Status::OK();
        };
      });
}

ReachMemo& ReachMemo::Global() {
  static ReachMemo* memo = new ReachMemo();
  return *memo;
}

Result<ReachMemo::Rows> RpqReachAllCached(const GraphDb& db,
                                          const InternedNfa& lang,
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
  ECRPQ_ASSIGN_OR_RAISE(std::vector<VertexId> built,
                        RpqReachAll(db, *lang.nfa, num_threads, obs));
  ReachMemo::Rows rows =
      std::make_shared<const std::vector<VertexId>>(std::move(built));
  memo.Insert(key, epoch, rows, shard);
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
