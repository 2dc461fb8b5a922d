#include "graphdb/tuple_search.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <optional>
#include <utility>

#include "common/bitset.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "common/worklist.h"

namespace ecrpq {
namespace {

// Coded search state of the sparse path: [v_0 .. v_{r-1}, finished_mask,
// machine id].
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
    seed.reserve(r + 2);
    for (VertexId v : sources) seed.push_back(v);
    seed.push_back(0);  // Mask: no tape finished yet.
    seed.push_back(m0);
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
    const JoinMachine::State mstate = current[r + 1];

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
        next.reserve(r + 2);
        next.assign(scratch.begin(), scratch.begin() + r);
        next.push_back(new_mask);
        next.push_back(next_m);
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

  // Each joint machine id the search reaches owns a (lazily allocated)
  // bitset over the dense (vertex-tuple, mask) code. In practice only a
  // handful of joint states are ever reached, so memory stays proportional
  // to the part of the product actually touched.
  std::vector<std::unique_ptr<DynamicBitset>> visited;
  auto visited_of = [&](uint32_t mid) -> DynamicBitset& {
    if (mid >= visited.size()) visited.resize(machine_->NumStates());
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
      const uint64_t code = encode(sources, 0);
      visited_of(m0).Set(code);
      level.emplace_back(code, m0);
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
    const JoinMachine::State mstate = mid;

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
        const JoinMachine::State nmid = machine_->Next(mstate, label);
        if (machine_->IsDead(nmid)) return;
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
  for (size_t mid = 0; mid < visited.size(); ++mid) {
    if (visited[mid] == nullptr) continue;
    if (!machine_->IsAccepting(static_cast<JoinMachine::State>(mid))) {
      continue;
    }
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

namespace {

// A sweep searches from one machine word of source tuples at once: bit i
// of a product state's word stands for the sweep's i-th source tuple.
constexpr size_t kSweepWidth = 64;

// Sweeps handed to the scheduler at a time. Rows are kept per sweep until
// their round is appended, so this bounds the memory of a build over many
// source tuples.
constexpr size_t kSweepsPerRound = 1024;

// How TupleReachAll codes a product state (v̄, mask, id) into 64 bits:
// ((v̄ << r | mask) << id_bits) | id, with v̄ = Σ v_i·|V|^i.
struct TupleCoding {
  uint64_t n = 0;
  int r = 0;
  int id_bits = 0;
  std::vector<uint64_t> power;  // power[i] = |V|^i, i <= r.

  uint64_t Code(uint64_t tuple, uint32_t mask, JoinMachine::State id) const {
    return (((tuple << r) | mask) << id_bits) | id;
  }
  JoinMachine::State Id(uint64_t code) const {
    return static_cast<JoinMachine::State>(code &
                                           ((uint64_t{1} << id_bits) - 1));
  }
  uint32_t Mask(uint64_t code) const {
    return static_cast<uint32_t>((code >> id_bits) &
                                 ((uint64_t{1} << r) - 1));
  }
  uint64_t Tuple(uint64_t code) const { return code >> (id_bits + r); }
  VertexId Digit(uint64_t tuple, int i) const {
    return static_cast<VertexId>(tuple / power[i] % n);
  }
  // Machine ids this coding can hold.
  uint64_t IdLimit() const {
    return id_bits >= 32 ? uint64_t{1} << 32 : uint64_t{1} << id_bits;
  }
};

// What one worker sweeps with: its own machine copy (the machine's caches
// are single-owner) and a product-state table that is all-empty between
// sweeps — a sweep clears exactly the entries it made, so the next one
// costs its own work, not the table's size.
struct TupleSweepScratch {
  explicit TupleSweepScratch(const JoinMachine& prototype)
      : machine(prototype) {}

  // Bytes a reached state takes: its code, words and slot position, plus
  // the two index slots of a table kept at most half full.
  static constexpr size_t kStateBytes =
      3 * sizeof(uint64_t) + 3 * sizeof(uint32_t);

  // The state index of `code`, inserting an all-zero state when absent.
  uint32_t StateOf(uint64_t code) {
    if (2 * (codes.size() + 1) > slots.size()) Grow();
    const size_t mask = slots.size() - 1;
    size_t slot = HashMix64(code) & mask;
    for (; slots[slot] != 0; slot = (slot + 1) & mask) {
      if (codes[slots[slot] - 1] == code) return slots[slot] - 1;
    }
    const uint32_t state = static_cast<uint32_t>(codes.size());
    slots[slot] = state + 1;
    codes.push_back(code);
    seen.push_back(0);
    next.push_back(0);
    slot_of.push_back(static_cast<uint32_t>(slot));
    return state;
  }

  void Grow() {
    slots.assign(std::max<size_t>(64, 2 * slots.size()), 0);
    const size_t mask = slots.size() - 1;
    for (uint32_t state = 0; state < codes.size(); ++state) {
      size_t slot = HashMix64(codes[state]) & mask;
      while (slots[slot] != 0) slot = (slot + 1) & mask;
      slots[slot] = state + 1;
      slot_of[state] = static_cast<uint32_t>(slot);
    }
  }

  void Reset() {
    for (const uint32_t slot : slot_of) slots[slot] = 0;
    codes.clear();
    seen.clear();
    next.clear();
    slot_of.clear();
  }

  JoinMachine machine;
  std::vector<uint32_t> slots;    // Linear probing: state index + 1, or 0.
  std::vector<uint64_t> codes;    // By state index.
  std::vector<uint64_t> seen;     // Tuples that reached the state.
  std::vector<uint64_t> next;     // Tuples new to the state this level.
  std::vector<uint32_t> slot_of;  // Index slot of each state.
  std::vector<uint32_t> grown;    // States whose `next` word is nonzero.
  std::vector<std::pair<uint32_t, uint64_t>> frontier;  // (state, new tuples).
  std::vector<std::pair<uint64_t, uint64_t>> targets;   // (target, tuples).
  std::vector<TapeLetter> letters;
};

// One level-synchronous product sweep over the `width` source tuples that
// start at mixed-radix index `first`. Appends their rows of R'_C to *rows;
// returns false when a machine id outgrew the coding.
bool TupleSweep(const GraphDb& db, const TupleCoding& coding,
                std::span<const int> same_as, uint64_t first, size_t width,
                TupleSweepScratch* s, std::vector<VertexId>* rows,
                obs::MetricsShard* shard) {
  const int r = coding.r;
  JoinMachine& machine = s->machine;
  const TapePack& pack = machine.pack();
  uint64_t discovered = 0;
  bool id_overflow = false;
  auto gain = [&](uint64_t code, uint64_t word) {
    const uint32_t state = s->StateOf(code);
    const uint64_t fresh = word & ~(s->seen[state] | s->next[state]);
    if (fresh == 0) return;
    if (s->next[state] == 0) s->grown.push_back(state);
    s->next[state] |= fresh;
    discovered += static_cast<uint64_t>(std::popcount(fresh));
  };
  const JoinMachine::State initial = machine.Initial();
  if (!machine.IsDead(initial)) {
    for (size_t i = 0; i < width; ++i) {
      gain(coding.Code(first + i, 0, initial), uint64_t{1} << i);
    }
  }
  s->letters.assign(r, kBlank);
  uint64_t frontier_peak = 0;
  while (!s->grown.empty()) {
    // Commit the level: its new bits join `seen` and become the frontier.
    s->frontier.clear();
    for (const uint32_t state : s->grown) {
      const uint64_t word = std::exchange(s->next[state], 0);
      s->seen[state] |= word;
      s->frontier.emplace_back(state, word);
    }
    s->grown.clear();
    obs::Record(shard, obs::HistogramId::kFrontierOccupancy,
                s->frontier.size());
    frontier_peak = std::max<uint64_t>(frontier_peak, s->frontier.size());
    for (const auto& [state, word] : s->frontier) {
      const uint64_t code = s->codes[state];
      const JoinMachine::State id = coding.Id(code);
      const uint32_t mask = coding.Mask(code);
      const uint64_t tuple = coding.Tuple(code);
      // Successor columns: each unfinished tape takes an out-edge or
      // finishes (⊥); finished tapes stay frozen; at least one tape reads a
      // letter. `moved` is the new tuple's offset from `tuple`, modulo
      // 2^64.
      auto column = [&](auto&& self, int tape, uint32_t new_mask,
                        uint64_t moved, bool any_letter) -> void {
        if (tape == r) {
          if (!any_letter) return;  // All-blank column: not a step.
          const JoinMachine::State next_id =
              machine.Next(id, pack.Pack(s->letters));
          if (machine.IsDead(next_id)) return;
          if (next_id >= coding.IdLimit()) {
            id_overflow = true;
            return;
          }
          gain(coding.Code(tuple + moved, new_mask, next_id), word);
          return;
        }
        const uint32_t bit = uint32_t{1} << tape;
        s->letters[tape] = kBlank;
        if (mask & bit) {
          self(self, tape + 1, new_mask, moved, any_letter);
          return;
        }
        self(self, tape + 1, new_mask | bit, moved, any_letter);
        const VertexId at = coding.Digit(tuple, tape);
        for (const LabeledEdge& e : db.OutEdges(at)) {
          s->letters[tape] = static_cast<TapeLetter>(e.symbol);
          self(self, tape + 1, new_mask,
               moved + (uint64_t{e.to} - at) * coding.power[tape], true);
        }
        s->letters[tape] = kBlank;
      };
      column(column, 0, mask, 0, false);
    }
  }
  obs::RecordMax(shard, obs::CounterId::kFrontierPeak, frontier_peak);
  obs::Add(shard, obs::CounterId::kProductStatesExpanded, discovered);
  obs::Add(shard, obs::CounterId::kVisitedBytes,
           s->codes.size() * TupleSweepScratch::kStateBytes);

  // Accepting fold: OR each target tuple's words across masks and accepting
  // ids, then emit each (source, target) row once.
  for (uint32_t state = 0; state < s->codes.size(); ++state) {
    const uint64_t code = s->codes[state];
    if (machine.IsAccepting(coding.Id(code))) {
      s->targets.emplace_back(coding.Tuple(code), s->seen[state]);
    }
  }
  s->Reset();
  std::sort(s->targets.begin(), s->targets.end());
  std::array<uint64_t, kSweepWidth> reach_set_size{};
  std::vector<VertexId> row(2 * r);
  size_t kept = 0;
  for (size_t t = 0; t < s->targets.size();) {
    const uint64_t target = s->targets[t].first;
    uint64_t word = 0;
    for (; t < s->targets.size() && s->targets[t].first == target; ++t) {
      word |= s->targets[t].second;
    }
    for (int i = 0; i < r; ++i) row[2 * i + 1] = coding.Digit(target, i);
    for (; word != 0; word &= word - 1) {
      const int bit = std::countr_zero(word);
      ++reach_set_size[bit];
      for (int i = 0; i < r; ++i) {
        row[2 * i] = coding.Digit(first + static_cast<uint64_t>(bit), i);
      }
      bool coincides = true;
      for (int i = 0; i < 2 * r && coincides; ++i) {
        coincides = same_as[i] < 0 || row[i] == row[same_as[i]];
      }
      if (!coincides) continue;
      rows->insert(rows->end(), row.begin(), row.end());
      ++kept;
    }
  }
  s->targets.clear();
  for (size_t i = 0; i < width; ++i) {
    obs::Record(shard, obs::HistogramId::kReachSetSize, reach_set_size[i]);
  }
  obs::Add(shard, obs::CounterId::kTuplesMaterialized, kept);
  return !id_overflow;
}

}  // namespace

Result<std::vector<VertexId>> TupleReachAll(const GraphDb& db,
                                            const JoinMachine& machine,
                                            std::span<const int> same_as,
                                            int num_threads,
                                            obs::Session* obs) {
  const int r = machine.joint_arity();
  if (r >= 31) {
    return Status::CapacityExceeded(
        "component has too many path variables for the finished-tape mask "
        "(limit 30)");
  }
  if (static_cast<int>(same_as.size()) != 2 * r) {
    return Status::Invalid("same_as must have one entry per row position");
  }
  for (int i = 0; i < 2 * r; ++i) {
    if (same_as[i] >= i) {
      return Status::Invalid("same_as must point to an earlier position");
    }
  }
  std::vector<VertexId> rows;
  TupleCoding coding;
  coding.n = static_cast<uint64_t>(db.NumVertices());
  coding.r = r;
  coding.power.assign(1, 1);
  for (int i = 0; i < r; ++i) {
    if (coding.power.back() >
        (~uint64_t{0} >> r) / std::max<uint64_t>(coding.n, 1)) {
      return Status::CapacityExceeded(
          "product-state code of this component does not fit in 64 bits");
    }
    coding.power.push_back(coding.power.back() * coding.n);
  }
  const uint64_t num_tuples = coding.power[r];
  if (num_tuples == 0) return rows;
  // Bits of the (tuple, mask) part of a code, at least one for the tuple
  // so that no shift in TupleCoding reaches 64; the rest holds machine ids.
  const int used_bits =
      r + std::bit_width(std::max<uint64_t>(num_tuples - 1, 1));
  if (used_bits >= 64) {
    return Status::CapacityExceeded(
        "product-state code of this component does not fit in 64 bits");
  }
  coding.id_bits = 64 - used_bits;

  obs::MetricsShard* shard =
      obs != nullptr ? obs->metrics().AcquireShard() : nullptr;
  const uint64_t num_sweeps = (num_tuples + kSweepWidth - 1) / kSweepWidth;
  const int threads = ThreadPool::ResolveNumThreads(num_threads);
  const bool parallel = threads > 1 && num_sweeps > 1;
  if (parallel) db.Finalize();  // The lazy CSR build is not thread-safe.
  std::vector<std::optional<TupleSweepScratch>> scratch(
      parallel ? static_cast<size_t>(threads) : 1);
  std::atomic<bool> id_overflow{false};
  auto run_sweep = [&](uint64_t b, int worker, std::vector<VertexId>* out) {
    // One poll per sweep: a sweep is the natural coarse stride here.
    if (id_overflow.load(std::memory_order_relaxed)) return;
    if (obs != nullptr && (obs->Exhausted() || obs->CheckBudget())) return;
    std::optional<TupleSweepScratch>& mine = scratch[worker];
    if (!mine.has_value()) mine.emplace(machine);
    const uint64_t first = b * kSweepWidth;
    const size_t width = static_cast<size_t>(
        std::min<uint64_t>(kSweepWidth, num_tuples - first));
    obs::ScopedTimer sweep_timer(shard, obs::HistogramId::kPhaseBfsNs);
    if (!TupleSweep(db, coding, same_as, first, width, &*mine, out, shard)) {
      id_overflow.store(true, std::memory_order_relaxed);
    }
  };
  for (uint64_t round = 0; round < num_sweeps; round += kSweepsPerRound) {
    const size_t in_round = static_cast<size_t>(
        std::min<uint64_t>(kSweepsPerRound, num_sweeps - round));
    if (!parallel) {
      for (size_t b = 0; b < in_round; ++b) run_sweep(round + b, 0, &rows);
    } else {
      // Sweeps are independent; the scheduler only decides which worker
      // fills which slot, and the slots are appended in sweep order.
      std::vector<std::vector<VertexId>> per_sweep(in_round);
      FrontierScheduler scheduler(ThreadPool::Shared(threads), shard);
      scheduler.Execute(in_round, [&](size_t b, int worker) {
        run_sweep(round + b, worker, &per_sweep[b]);
      });
      for (const std::vector<VertexId>& block : per_sweep) {
        rows.insert(rows.end(), block.begin(), block.end());
      }
    }
    if (id_overflow.load() || (obs != nullptr && obs->Exhausted())) break;
  }
  if (id_overflow.load()) {
    return Status::CapacityExceeded(
        "join machine outgrew the product-state code of this component");
  }
  if (obs != nullptr && obs->Exhausted()) return obs->ExhaustedStatus();
  return rows;
}

}  // namespace ecrpq
