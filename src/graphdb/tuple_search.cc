#include "graphdb/tuple_search.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/bitset.h"
#include "common/check.h"
#include "common/worklist.h"

namespace ecrpq {
namespace {

// Coded search state: [v_0 .. v_{r-1}, finished_mask, machine components...].
using Coded = std::vector<uint32_t>;

// Bit budget per joint machine state for the dense visited set: |V|^r · 2^r
// must fit in this many bits (4 MiB per state). Beyond that the sparse
// hash-interned path is used instead.
constexpr uint64_t kDenseBitsPerMachineState = uint64_t{1} << 25;

// BFS iterations between obs::Session budget polls. Coarse enough that the
// poll (a few atomic loads + a clock read) is invisible, fine enough that a
// tripped budget stops a runaway search within microseconds.
constexpr size_t kBudgetCheckStride = 1024;

// Approximate heap bytes per sparse-interned product state: the coded
// vector's payload plus hash-node/bookkeeping overhead. Feeds the
// kVisitedBytes counter and the max_memory_bytes budget axis.
size_t SparseStateBytes(size_t coded_words) {
  return coded_words * sizeof(uint32_t) + 64;
}

}  // namespace

Result<TupleSearcher> TupleSearcher::Create(const GraphDb* db,
                                            JoinMachine* machine,
                                            TupleSearchOptions options) {
  if (db == nullptr || machine == nullptr) {
    return Status::Invalid("null database or machine");
  }
  if (machine->joint_arity() >= 31) {
    return Status::CapacityExceeded(
        "component has too many path variables for the finished-tape mask "
        "(limit 30)");
  }
  // The machine packs graph symbols; their ids must agree.
  // (JoinMachine components were checked against the machine alphabet.)
  return TupleSearcher(db, machine, options);
}

const ReachSet& TupleSearcher::Reach(const std::vector<VertexId>& sources) {
  owner_role_.Assert();  // Single-owner contract; see header.
  obs::Add(shard_, obs::CounterId::kReachQueries);
  if (options_.disable_memo) {
    obs::Add(shard_, obs::CounterId::kMemoMisses);
    unmemoized_scratch_ = RunBfs(sources, nullptr, nullptr);
    total_explored_ += unmemoized_scratch_.explored_states;
    return unmemoized_scratch_;
  }
  auto it = memo_.find(sources);
  if (it != memo_.end()) {
    obs::Add(shard_, obs::CounterId::kMemoHits);
    return *it->second;
  }
  obs::Add(shard_, obs::CounterId::kMemoMisses);
  auto result = std::make_unique<ReachSet>(RunBfs(sources, nullptr, nullptr));
  total_explored_ += result->explored_states;
  auto [inserted_it, ok] = memo_.emplace(sources, std::move(result));
  ECRPQ_DCHECK(ok);
  return *inserted_it->second;
}

bool TupleSearcher::Check(const std::vector<VertexId>& sources,
                          const std::vector<VertexId>& targets) {
  owner_role_.Assert();  // Single-owner contract; see header.
  const ReachSet& reach = Reach(sources);
  return reach.targets.count(targets) > 0;
}

std::optional<std::vector<std::vector<PathStep>>> TupleSearcher::WitnessPaths(
    const std::vector<VertexId>& sources,
    const std::vector<VertexId>& targets) {
  owner_role_.Assert();  // Single-owner contract; see header.
  std::optional<std::vector<std::vector<PathStep>>> witness;
  RunBfs(sources, &targets, &witness);
  return witness;
}

ReachSet TupleSearcher::RunBfs(
    const std::vector<VertexId>& sources,
    const std::vector<VertexId>* stop_at_target,
    std::optional<std::vector<std::vector<PathStep>>>* witness_out) {
  const int r = arity();
  ECRPQ_CHECK_EQ(static_cast<int>(sources.size()), r);
  ECRPQ_DCHECK(r < 31);  // Enforced with a Status in Create().

  // One fresh BFS == one kPhaseBfsNs sample (the dense path below is a
  // delegate of this function, so the timer covers both).
  obs::ScopedTimer bfs_timer(shard_, obs::HistogramId::kPhaseBfsNs);

  // Untargeted searches over a small-enough (vertex-tuple, mask) space use
  // dense bitset visited tracking instead of hash-set interning — same BFS,
  // same results, much lighter bookkeeping in the hot loop. Targeted /
  // witness searches need per-state ids and parent pointers, so they stay on
  // the sparse path.
  if (stop_at_target == nullptr && witness_out == nullptr &&
      !options_.disable_dense_visited) {
    uint64_t space = 0;
    if (DenseFeasible(&space)) {
      ReachSet dense = RunBfsDense(sources, space);
      obs::Record(shard_, obs::HistogramId::kReachSetSize,
                  dense.targets.size());
      return dense;
    }
  }

  ReachSet result;
  const bool track_parents = witness_out != nullptr;

  std::unordered_map<Coded, uint32_t, VectorHash<uint32_t>> id_of;
  std::vector<Coded> states;
  // parent[i] = (predecessor id, packed joint label).
  std::vector<std::pair<uint32_t, Label>> parents;
  // States are interned in discovery order and popped in id order, so the
  // BFS queue *is* `states` behind a cursor — no separate container, and
  // the pop sequence is identical to the old explicit FIFO queue.

  auto intern = [&](Coded coded, uint32_t from, Label label) {
    auto [it, inserted] =
        id_of.emplace(std::move(coded), static_cast<uint32_t>(states.size()));
    if (!inserted) return;
    states.push_back(it->first);
    if (track_parents) parents.emplace_back(from, label);
    obs::Add(shard_, obs::CounterId::kProductStatesExpanded);
    obs::Add(shard_, obs::CounterId::kVisitedBytes,
             SparseStateBytes(it->first.size()));
  };

  // Seed state.
  {
    const JoinMachine::State m0 = machine_->Initial();
    Coded seed;
    seed.reserve(r + 1 + m0.size());
    for (VertexId v : sources) seed.push_back(v);
    seed.push_back(0);  // Mask: no tape finished yet.
    for (uint32_t m : m0) seed.push_back(m);
    if (!machine_->IsDead(m0)) {
      auto [it, inserted] = id_of.emplace(std::move(seed), 0u);
      ECRPQ_DCHECK(inserted);
      states.push_back(it->first);
      if (track_parents) parents.emplace_back(0u, 0u);
      obs::Add(shard_, obs::CounterId::kProductStatesExpanded);
      obs::Add(shard_, obs::CounterId::kVisitedBytes,
               SparseStateBytes(it->first.size()));
    }
  }

  const size_t machine_size = states.empty() ? 0 : states[0].size() - r - 1;

  auto machine_state_of = [&](const Coded& coded) {
    return JoinMachine::State(coded.begin() + r + 1, coded.end());
  };

  std::vector<TapeLetter> letters(r);
  Coded scratch;

  size_t pops = 0;
  uint64_t frontier_peak = 0;
  for (uint32_t id = 0; id < states.size(); ++id) {
    const size_t frontier_size = states.size() - id;
    frontier_peak = std::max<uint64_t>(frontier_peak, frontier_size);
    obs::Record(shard_, obs::HistogramId::kFrontierSize, frontier_size);
    if (options_.obs != nullptr &&
        (options_.obs->Exhausted() ||
         ((++pops & (kBudgetCheckStride - 1)) == 0 &&
          options_.obs->CheckBudget()))) {
      result.aborted = true;
      break;
    }
    const Coded current = states[id];  // Copy: `states` grows below.
    const JoinMachine::State mstate = machine_state_of(current);

    if (machine_->IsAccepting(mstate)) {
      std::vector<VertexId> targets(current.begin(), current.begin() + r);
      if (stop_at_target != nullptr && targets == *stop_at_target) {
        if (witness_out != nullptr) {
          // Reconstruct per-tape paths from parent pointers.
          std::vector<std::vector<PathStep>> paths(r);
          uint32_t cur = id;
          while (parents[cur].first != cur || cur != 0) {
            const uint32_t prev = parents[cur].first;
            const Label label = parents[cur].second;
            for (int i = 0; i < r; ++i) {
              const TapeLetter letter = machine_->pack().Get(label, i);
              if (letter != kBlank) {
                paths[i].push_back(PathStep{states[prev][i],
                                            static_cast<Symbol>(letter),
                                            states[cur][i]});
              }
            }
            cur = prev;
            if (cur == 0) break;
          }
          for (auto& p : paths) std::reverse(p.begin(), p.end());
          *witness_out = std::move(paths);
        }
        result.targets.insert(std::move(targets));
        result.explored_states = states.size();
        return result;
      }
      result.targets.insert(std::move(targets));
    }

    // Successors: each unfinished tape takes an out-edge or finishes (⊥);
    // finished tapes stay frozen. At least one tape must read a letter.
    const uint32_t mask = current[r];
    scratch = current;

    // Recursive enumeration over tapes.
    auto recurse = [&](auto&& self, int tape, uint32_t new_mask,
                       bool any_letter) -> void {
      if (tape == r) {
        if (!any_letter) return;  // All-blank column: not a step.
        const Label label = machine_->pack().Pack(letters);
        const JoinMachine::State next_m =
            machine_->Next(mstate, label);
        if (machine_->IsDead(next_m)) return;
        Coded next;
        next.reserve(r + 1 + machine_size);
        next.assign(scratch.begin(), scratch.begin() + r);
        next.push_back(new_mask);
        for (uint32_t m : next_m) next.push_back(m);
        intern(std::move(next), id, label);
        return;
      }
      const uint32_t bit = uint32_t{1} << tape;
      if (mask & bit) {
        letters[tape] = kBlank;
        scratch[tape] = current[tape];
        self(self, tape + 1, new_mask, any_letter);
        return;
      }
      // Option 1: finish this tape now.
      letters[tape] = kBlank;
      scratch[tape] = current[tape];
      self(self, tape + 1, new_mask | bit, any_letter);
      // Option 2: advance along an out-edge.
      for (const LabeledEdge& e : db_->OutEdges(current[tape])) {
        letters[tape] = static_cast<TapeLetter>(e.symbol);
        scratch[tape] = e.to;
        self(self, tape + 1, new_mask, true);
      }
      scratch[tape] = current[tape];
    };
    recurse(recurse, 0, mask, false);
  }
  obs::RecordMax(shard_, obs::CounterId::kFrontierPeak, frontier_peak);

  result.explored_states = states.size();
  if (stop_at_target != nullptr) {
    // Targeted search that exhausted the space without finding the target.
    ReachSet targeted;
    targeted.explored_states = result.explored_states;
    targeted.aborted = result.aborted;
    if (result.targets.count(*stop_at_target) > 0) {
      targeted.targets.insert(*stop_at_target);
    }
    obs::Record(shard_, obs::HistogramId::kReachSetSize,
                targeted.targets.size());
    return targeted;
  }
  obs::Record(shard_, obs::HistogramId::kReachSetSize, result.targets.size());
  return result;
}

bool TupleSearcher::DenseFeasible(uint64_t* space_out) const {
  const int r = arity();
  const uint64_t n = db_->NumVertices();
  if (n == 0 || r <= 0) return false;
  uint64_t space = 1;
  for (int i = 0; i < r; ++i) {
    if (space > kDenseBitsPerMachineState / n) return false;
    space *= n;
  }
  const uint64_t masks = uint64_t{1} << r;
  if (space > kDenseBitsPerMachineState / masks) return false;
  space *= masks;
  *space_out = space;
  return true;
}

ReachSet TupleSearcher::RunBfsDense(const std::vector<VertexId>& sources,
                                    uint64_t space) {
  const int r = arity();
  ECRPQ_CHECK_EQ(static_cast<int>(sources.size()), r);
  const uint64_t n = db_->NumVertices();

  ReachSet result;

  // Joint machine states are interned to small ids; each id owns a (lazily
  // allocated) bitset over the dense (vertex-tuple, mask) code. In practice
  // only a handful of joint states are ever reached, so memory stays
  // proportional to the part of the product actually touched.
  std::map<JoinMachine::State, uint32_t> machine_ids;
  std::vector<JoinMachine::State> machine_states;
  std::vector<std::unique_ptr<DynamicBitset>> visited;
  auto machine_id_of = [&](const JoinMachine::State& m) -> uint32_t {
    auto it = machine_ids.find(m);
    if (it != machine_ids.end()) return it->second;
    const uint32_t id = static_cast<uint32_t>(machine_states.size());
    machine_ids.emplace(m, id);
    machine_states.push_back(m);
    visited.push_back(nullptr);
    return id;
  };
  auto visited_of = [&](uint32_t mid) -> DynamicBitset& {
    if (visited[mid] == nullptr) {
      visited[mid] = std::make_unique<DynamicBitset>(space);
      obs::Add(shard_, obs::CounterId::kVisitedBytes, (space + 7) / 8);
    }
    return *visited[mid];
  };

  const uint32_t mask_bits = static_cast<uint32_t>(r);
  auto encode = [&](const std::vector<VertexId>& verts,
                    uint32_t mask) -> uint64_t {
    uint64_t code = 0;
    for (int i = 0; i < r; ++i) code = code * n + verts[i];
    return (code << mask_bits) | mask;
  };

  // Level-synchronous traversal: the BFS runs level by level over
  // (dense code, machine id) pairs, appending discoveries to the next
  // level. Pop order — and therefore every budget/abort point and counter —
  // is identical to a FIFO queue, but the level structure gives the
  // deterministic frontier-occupancy samples and keeps the accepting fold
  // out of the hot loop (it runs once, word-parallel, at the end).
  std::vector<std::pair<uint64_t, uint32_t>> level;
  std::vector<std::pair<uint64_t, uint32_t>> next_level;
  size_t interned = 0;

  // Seed state.
  {
    const JoinMachine::State m0 = machine_->Initial();
    if (!machine_->IsDead(m0)) {
      const uint32_t mid = machine_id_of(m0);
      const uint64_t code = encode(sources, 0);
      visited_of(mid).Set(code);
      level.emplace_back(code, mid);
      interned = 1;
      obs::Add(shard_, obs::CounterId::kProductStatesExpanded);
    }
  }

  std::vector<VertexId> current(r);
  std::vector<TapeLetter> letters(r);
  std::vector<VertexId> scratch(r);

  size_t pops = 0;
  uint64_t frontier_peak = 0;
  while (!level.empty() && !result.aborted) {
    obs::Record(shard_, obs::HistogramId::kFrontierOccupancy, level.size());
    for (size_t pos = 0; pos < level.size(); ++pos) {
    const size_t frontier_size = (level.size() - pos) + next_level.size();
    frontier_peak = std::max<uint64_t>(frontier_peak, frontier_size);
    obs::Record(shard_, obs::HistogramId::kFrontierSize, frontier_size);
    if (options_.obs != nullptr &&
        (options_.obs->Exhausted() ||
         ((++pops & (kBudgetCheckStride - 1)) == 0 &&
          options_.obs->CheckBudget()))) {
      result.aborted = true;
      break;
    }
    const auto [code, mid] = level[pos];
    uint64_t rest = code >> mask_bits;
    const uint32_t mask =
        static_cast<uint32_t>(code & ((uint64_t{1} << mask_bits) - 1));
    for (int i = r - 1; i >= 0; --i) {
      current[i] = static_cast<VertexId>(rest % n);
      rest /= n;
    }
    // `machine_states` grows during successor expansion; copy, don't alias.
    const JoinMachine::State mstate = machine_states[mid];

    // (Accepting states are folded out of the visited bitsets after the
    // traversal — see the word-parallel sweep below.)

    // Successor enumeration — identical column discipline to the sparse
    // path: each unfinished tape takes an out-edge or finishes (⊥), frozen
    // tapes stay put, at least one tape must read a letter.
    scratch = current;
    auto recurse = [&](auto&& self, int tape, uint32_t new_mask,
                       bool any_letter) -> void {
      if (tape == r) {
        if (!any_letter) return;  // All-blank column: not a step.
        const Label label = machine_->pack().Pack(letters);
        const JoinMachine::State next_m = machine_->Next(mstate, label);
        if (machine_->IsDead(next_m)) return;
        const uint32_t nmid = machine_id_of(next_m);
        const uint64_t ncode = encode(scratch, new_mask);
        if (visited_of(nmid).TestAndSet(ncode)) {
          ++interned;
          next_level.emplace_back(ncode, nmid);
          obs::Add(shard_, obs::CounterId::kProductStatesExpanded);
        }
        return;
      }
      const uint32_t bit = uint32_t{1} << tape;
      if (mask & bit) {
        letters[tape] = kBlank;
        scratch[tape] = current[tape];
        self(self, tape + 1, new_mask, any_letter);
        return;
      }
      // Option 1: finish this tape now.
      letters[tape] = kBlank;
      scratch[tape] = current[tape];
      self(self, tape + 1, new_mask | bit, any_letter);
      // Option 2: advance along an out-edge.
      for (const LabeledEdge& e : db_->OutEdges(current[tape])) {
        letters[tape] = static_cast<TapeLetter>(e.symbol);
        scratch[tape] = e.to;
        self(self, tape + 1, new_mask, true);
      }
      scratch[tape] = current[tape];
    };
    recurse(recurse, 0, mask, false);
    }
    level.clear();
    std::swap(level, next_level);
  }
  obs::RecordMax(shard_, obs::CounterId::kFrontierPeak, frontier_peak);

  // Accepting fold, word-parallel: every state the BFS visited is a set bit
  // in its machine state's dense bitset, so the reach set is the union of
  // the accepting machine states' bitsets with the mask bits dropped. The
  // sweep touches each 64-bit word once (zero words cost one compare) —
  // this is the reduce pipeline's reach-set fold.
  for (size_t mid = 0; mid < machine_states.size(); ++mid) {
    if (visited[mid] == nullptr) continue;
    if (!machine_->IsAccepting(machine_states[mid])) continue;
    visited[mid]->ForEachSetBit([&](size_t code) {
      uint64_t rest = static_cast<uint64_t>(code) >> mask_bits;
      for (int i = r - 1; i >= 0; --i) {
        current[i] = static_cast<VertexId>(rest % n);
        rest /= n;
      }
      result.targets.insert(current);
    });
  }

  result.explored_states = interned;
  return result;
}

std::vector<const ReachSet*> ReachMany(
    const std::vector<TupleSearcher*>& searchers,
    const std::vector<std::vector<VertexId>>& sources, ThreadPool* pool,
    CancelToken* cancel, obs::MetricsShard* shard) {
  ECRPQ_CHECK(!searchers.empty());
  std::vector<const ReachSet*> results(sources.size(), nullptr);
  if (sources.empty()) return results;
  // Returned pointers alias the memo tables; the scratch used by
  // disable_memo would be overwritten by the next Reach() call.
  for (TupleSearcher* s : searchers) {
    ECRPQ_CHECK(s != nullptr);
    ECRPQ_DCHECK(!s->options().disable_memo);
  }
  if (pool == nullptr || pool->num_threads() <= 1 || searchers.size() == 1) {
    TupleSearcher* s = searchers[0];
    for (size_t i = 0; i < sources.size(); ++i) {
      if (cancel != nullptr && cancel->IsCancelled()) break;
      results[i] = &s->Reach(sources[i]);
    }
    return results;
  }
  // Worker w owns searchers[w]; tuples are chunked into per-worker
  // work-stealing deques, so an expensive tuple does not stall the rest of
  // the batch and cheap tuples keep spatial locality within a chunk. Every
  // tuple lands in slot i regardless of which worker ran it.
  FrontierScheduler scheduler(pool, shard);
  scheduler.Execute(sources.size(), [&](size_t i, int w) {
    ECRPQ_DCHECK(static_cast<size_t>(w) < searchers.size());
    if (cancel != nullptr && cancel->IsCancelled()) return;
    results[i] = &searchers[w]->Reach(sources[i]);
  });
  return results;
}

}  // namespace ecrpq
