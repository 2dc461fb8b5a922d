#include "graphdb/tuple_search.h"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace ecrpq {
namespace {

// Coded search state of the sparse search: [v_0 .. v_{r-1}, finished_mask,
// machine id].
using Coded = std::vector<uint32_t>;

// Expanded product states between obs::Session budget polls. Coarse enough
// that the poll (a few atomic loads + a clock read) is invisible, fine
// enough that a tripped budget stops a runaway search within microseconds.
constexpr size_t kBudgetCheckStride = 1024;

// Approximate heap bytes per sparse-interned product state: the coded
// vector's payload plus hash-node/bookkeeping overhead. Feeds the
// kVisitedBytes counter and the max_memory_bytes budget axis.
size_t SparseStateBytes(size_t coded_words) {
  return coded_words * sizeof(uint32_t) + 64;
}

// Reach sweeps only when the (tuple, mask) part of a code fits in this many
// bits, which leaves 32 bits for the uint32 machine ids: a one-tuple sweep
// never outgrows its coding.
constexpr int kReachCodeBits = 32;

// How a sweep codes a product state (v̄, mask, id) into 64 bits:
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
  uint64_t TupleOf(const std::vector<VertexId>& vertices) const {
    uint64_t tuple = 0;
    for (int i = 0; i < r; ++i) tuple += vertices[i] * power[i];
    return tuple;
  }
  VertexId Digit(uint64_t tuple, int i) const {
    return static_cast<VertexId>(tuple / power[i] % n);
  }
  // Machine ids this coding can hold.
  uint64_t IdLimit() const {
    return id_bits >= 32 ? uint64_t{1} << 32 : uint64_t{1} << id_bits;
  }
};

// The coding of r-tape product states over n vertices, or nullopt when the
// (tuple, mask) part would need more than `max_bits` bits.
std::optional<TupleCoding> MakeCoding(uint64_t n, int r, int max_bits) {
  TupleCoding coding;
  coding.n = n;
  coding.r = r;
  coding.power.assign(1, 1);
  for (int i = 0; i < r; ++i) {
    if (coding.power.back() > (~uint64_t{0} >> r) / std::max<uint64_t>(n, 1)) {
      return std::nullopt;
    }
    coding.power.push_back(coding.power.back() * n);
  }
  // At least one bit for the tuple, so that no shift in TupleCoding reaches
  // 64; the rest holds machine ids.
  const int used_bits =
      r + std::bit_width(std::max<uint64_t>(coding.power[r], 2) - 1);
  if (used_bits > max_bits) return std::nullopt;
  coding.id_bits = 64 - used_bits;
  return coding;
}

// The buffers a sweep runs on. The product-state table is all-empty between
// sweeps — a sweep clears exactly the entries it made, so the next one costs
// its own work, not the table's size.
struct TupleSweepScratch {
  // Bytes a reached state takes: its code, words and slot position, plus
  // the two index slots of a table kept at most half full.
  static constexpr size_t kStateBytes =
      3 * sizeof(uint64_t) + 3 * sizeof(uint32_t);
  static constexpr size_t kFirstStates = 32;

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
    if (slots.empty()) {
      // A fresh scratch: room for a small search up front, so that the
      // first sweep of a searcher (one per component per evaluation) does
      // not regrow these one doubling at a time.
      codes.reserve(kFirstStates);
      seen.reserve(kFirstStates);
      next.reserve(kFirstStates);
      slot_of.reserve(kFirstStates);
      grown.reserve(kFirstStates);
      frontier.reserve(kFirstStates);
      targets.reserve(kFirstStates);
    }
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
    grown.clear();
  }

  std::vector<uint32_t> slots;    // Linear probing: state index + 1, or 0.
  std::vector<uint64_t> codes;    // By state index.
  std::vector<uint64_t> seen;     // Tuples that reached the state.
  std::vector<uint64_t> next;     // Tuples new to the state this level.
  std::vector<uint32_t> slot_of;  // Index slot of each state.
  std::vector<uint32_t> grown;    // States whose `next` word is nonzero.
  std::vector<std::pair<uint32_t, uint64_t>> frontier;  // (state, new tuples).
  // After a finished sweep: each accepting target tuple once, with the
  // word of the sweep's tuples that reach it, ascending by target.
  std::vector<std::pair<uint64_t, uint64_t>> targets;
  std::vector<TapeLetter> letters;
};

struct SweepOutcome {
  // Product states reached, summed over the sweep's source tuples.
  uint64_t discovered = 0;
  bool id_overflow = false;  // A machine id outgrew the coding.
  bool stopped = false;      // The session's budget tripped mid-sweep.
};

// One level-synchronous product sweep over the `width` source tuples that
// start at mixed-radix index `first`. Unless it stopped, it leaves their
// accepting target tuples in s->targets. With a session it checks
// Exhausted() on every expanded state and polls CheckBudget() every
// kBudgetCheckStride of them, charging what it reached before each poll.
SweepOutcome TupleSweep(const GraphDb& db, JoinMachine* machine,
                        const TupleCoding& coding, uint64_t first,
                        size_t width, TupleSweepScratch* s,
                        obs::MetricsShard* shard, obs::Session* session) {
  const int r = coding.r;
  const TapePack& pack = machine->pack();
  SweepOutcome out;
  uint64_t charged_discovered = 0;
  size_t charged_codes = 0;
  auto charge = [&] {
    obs::Add(shard, obs::CounterId::kProductStatesExpanded,
             out.discovered - charged_discovered);
    obs::Add(shard, obs::CounterId::kVisitedBytes,
             (s->codes.size() - charged_codes) *
                 TupleSweepScratch::kStateBytes);
    charged_discovered = out.discovered;
    charged_codes = s->codes.size();
  };
  size_t expanded = 0;
  auto budget_tripped = [&] {
    if (session == nullptr) return false;
    if (++expanded % kBudgetCheckStride != 0) return session->Exhausted();
    charge();
    return session->CheckBudget();
  };
  auto gain = [&](uint64_t code, uint64_t word) {
    const uint32_t state = s->StateOf(code);
    const uint64_t fresh = word & ~(s->seen[state] | s->next[state]);
    if (fresh == 0) return;
    if (s->next[state] == 0) s->grown.push_back(state);
    s->next[state] |= fresh;
    out.discovered += static_cast<uint64_t>(std::popcount(fresh));
  };
  const JoinMachine::State initial = machine->Initial();
  if (!machine->IsDead(initial)) {
    for (size_t i = 0; i < width; ++i) {
      gain(coding.Code(first + i, 0, initial), uint64_t{1} << i);
    }
  }
  s->letters.assign(r, kBlank);
  uint64_t frontier_peak = 0;
  while (!s->grown.empty() && !out.stopped) {
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
      if (budget_tripped()) {
        out.stopped = true;
        break;
      }
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
              machine->Next(id, pack.Pack(s->letters));
          if (machine->IsDead(next_id)) return;
          if (next_id >= coding.IdLimit()) {
            out.id_overflow = true;
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
  charge();

  // Accepting fold: OR each target tuple's words across masks and accepting
  // ids, so that each target appears once.
  s->targets.clear();
  if (!out.stopped) {
    for (uint32_t state = 0; state < s->codes.size(); ++state) {
      const uint64_t code = s->codes[state];
      if (machine->IsAccepting(coding.Id(code))) {
        s->targets.emplace_back(coding.Tuple(code), s->seen[state]);
      }
    }
  }
  s->Reset();
  std::sort(s->targets.begin(), s->targets.end());
  size_t kept = 0;
  for (const auto& [target, word] : s->targets) {
    if (kept > 0 && s->targets[kept - 1].first == target) {
      s->targets[kept - 1].second |= word;
    } else {
      s->targets[kept++] = {target, word};
    }
  }
  s->targets.resize(kept);
  return out;
}

// Appends to *rows the rows of R'_C that a finished sweep over the `width`
// source tuples from `first` left in s.targets, keeping those whose
// coinciding positions agree, and records one reach_set_size sample per
// source tuple.
void AppendRows(const TupleCoding& coding, std::span<const int> same_as,
                uint64_t first, size_t width, const TupleSweepScratch& s,
                std::vector<VertexId>* rows, obs::MetricsShard* shard) {
  const int r = coding.r;
  std::array<uint64_t, kSweepWidth> reach_set_size{};
  std::vector<VertexId> row(2 * r);
  for (const auto& [target, tuples] : s.targets) {
    for (int i = 0; i < r; ++i) row[2 * i + 1] = coding.Digit(target, i);
    for (uint64_t word = tuples; word != 0; word &= word - 1) {
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
    }
  }
  for (size_t i = 0; i < width; ++i) {
    obs::Record(shard, obs::HistogramId::kReachSetSize, reach_set_size[i]);
  }
}

}  // namespace

struct TupleSearcher::Sweep {
  TupleCoding coding;
  TupleSweepScratch scratch;
};

Result<TupleSearcher> TupleSearcher::Create(const GraphDb* db,
                                            JoinMachine* machine,
                                            TupleSearchOptions options) {
  if (db == nullptr || machine == nullptr) {
    return Status::Invalid("null database or machine");
  }
  const int r = machine->joint_arity();
  if (r < 1) return Status::Invalid("component has no path variables");
  if (r >= 31) {
    return Status::CapacityExceeded(
        "component has too many path variables for the finished-tape mask "
        "(limit 30)");
  }
  // The machine packs graph symbols; their ids must agree.
  // (JoinMachine components were checked against the machine alphabet.)
  std::unique_ptr<Sweep> sweep;
  if (std::optional<TupleCoding> coding =
          MakeCoding(db->NumVertices(), r, kReachCodeBits)) {
    sweep = std::make_unique<Sweep>();
    sweep->coding = *std::move(coding);
  }
  return TupleSearcher(db, machine, options, std::move(sweep));
}

TupleSearcher::TupleSearcher(const GraphDb* db, JoinMachine* machine,
                             TupleSearchOptions options,
                             std::unique_ptr<Sweep> sweep)
    : db_(db),
      machine_(machine),
      options_(options),
      shard_(options.obs != nullptr ? options.obs->metrics().AcquireShard()
                                    : nullptr),
      sweep_(std::move(sweep)) {}

TupleSearcher::TupleSearcher(TupleSearcher&&) noexcept = default;
TupleSearcher& TupleSearcher::operator=(TupleSearcher&&) noexcept = default;
TupleSearcher::~TupleSearcher() = default;

const ReachSet& TupleSearcher::Reach(const std::vector<VertexId>& sources) {
  owner_role_.Assert();  // Single-owner contract; see header.
  obs::Add(shard_, obs::CounterId::kReachQueries);
  if (options_.disable_memo) {
    obs::Add(shard_, obs::CounterId::kMemoMisses);
    unmemoized_scratch_ = Search(sources);
    total_explored_ += unmemoized_scratch_.explored_states;
    return unmemoized_scratch_;
  }
  auto it = memo_.find(sources);
  if (it != memo_.end()) {
    obs::Add(shard_, obs::CounterId::kMemoHits);
    return *it->second;
  }
  obs::Add(shard_, obs::CounterId::kMemoMisses);
  auto result = std::make_unique<ReachSet>(Search(sources));
  total_explored_ += result->explored_states;
  auto [inserted_it, ok] = memo_.emplace(sources, std::move(result));
  ECRPQ_DCHECK(ok);
  return *inserted_it->second;
}

bool TupleSearcher::Check(const std::vector<VertexId>& sources,
                          const std::vector<VertexId>& targets) {
  owner_role_.Assert();  // Single-owner contract; see header.
  const int r = arity();
  ECRPQ_CHECK_EQ(static_cast<int>(targets.size()), r);
  const std::vector<VertexId>& found = Reach(sources).targets;
  for (auto it = found.begin(); it != found.end(); it += r) {
    if (std::equal(targets.begin(), targets.end(), it)) return true;
  }
  return false;
}

std::optional<std::vector<std::vector<PathStep>>> TupleSearcher::WitnessPaths(
    const std::vector<VertexId>& sources,
    const std::vector<VertexId>& targets) {
  owner_role_.Assert();  // Single-owner contract; see header.
  ECRPQ_CHECK_EQ(static_cast<int>(targets.size()), arity());
  std::optional<std::vector<std::vector<PathStep>>> witness;
  SparseSearch(sources, &targets, &witness);
  return witness;
}

ReachSet TupleSearcher::Search(const std::vector<VertexId>& sources) {
  const int r = arity();
  ECRPQ_CHECK_EQ(static_cast<int>(sources.size()), r);
  ReachSet result;
  if (sweep_ == nullptr) {
    result = SparseSearch(sources, nullptr, nullptr);
  } else {
    // One fresh search == one kPhaseBfsNs sample.
    obs::ScopedTimer bfs_timer(shard_, obs::HistogramId::kPhaseBfsNs);
    const TupleCoding& coding = sweep_->coding;
    ECRPQ_DCHECK(coding.n == db_->NumVertices());
    const SweepOutcome outcome =
        TupleSweep(*db_, machine_, coding, coding.TupleOf(sources), 1,
                   &sweep_->scratch, shard_, options_.obs);
    ECRPQ_DCHECK(!outcome.id_overflow);  // 32 id bits hold every id.
    result.explored_states = outcome.discovered;
    result.aborted = outcome.stopped;
    result.targets.reserve(sweep_->scratch.targets.size() * r);
    for (const auto& [target, word] : sweep_->scratch.targets) {
      for (int i = 0; i < r; ++i) {
        result.targets.push_back(coding.Digit(target, i));
      }
    }
  }
  obs::Record(shard_, obs::HistogramId::kReachSetSize,
              result.targets.size() / r);
  return result;
}

ReachSet TupleSearcher::SparseSearch(
    const std::vector<VertexId>& sources,
    const std::vector<VertexId>* witness_target,
    std::optional<std::vector<std::vector<PathStep>>>* witness_out) {
  const int r = arity();
  ECRPQ_CHECK_EQ(static_cast<int>(sources.size()), r);
  ECRPQ_DCHECK(r < 31);  // Enforced with a Status in Create().

  // One fresh search == one kPhaseBfsNs sample.
  obs::ScopedTimer bfs_timer(shard_, obs::HistogramId::kPhaseBfsNs);

  ReachSet result;
  std::vector<std::vector<VertexId>> found;  // Accepting targets, repeating.
  const bool track_parents = witness_out != nullptr;

  std::unordered_map<Coded, uint32_t, VectorHash<uint32_t>> id_of;
  std::vector<Coded> states;
  // parent[i] = (predecessor id, packed joint label).
  std::vector<std::pair<uint32_t, Label>> parents;
  // States are interned in discovery order and popped in id order, so the
  // BFS queue *is* `states` behind a cursor.

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
    if (!machine_->IsDead(m0)) {
      Coded seed(sources.begin(), sources.end());
      seed.push_back(0);  // Mask: no tape finished yet.
      seed.push_back(m0);
      intern(std::move(seed), 0u, 0u);
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
      if (witness_target != nullptr &&
          std::equal(witness_target->begin(), witness_target->end(),
                     current.begin())) {
        // Reconstruct per-tape paths from parent pointers.
        std::vector<std::vector<PathStep>> paths(r);
        for (uint32_t cur = id; cur != 0;) {
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
        }
        for (auto& p : paths) std::reverse(p.begin(), p.end());
        *witness_out = std::move(paths);
        return result;
      }
      found.emplace_back(current.begin(), current.begin() + r);
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
        const JoinMachine::State next_m = machine_->Next(mstate, label);
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

  // Into the sweep's order: each target once, by target code, that is
  // compared from the last tape's vertex down to the first's.
  std::sort(found.begin(), found.end(),
            [](const std::vector<VertexId>& a, const std::vector<VertexId>& b) {
              return std::lexicographical_compare(a.rbegin(), a.rend(),
                                                  b.rbegin(), b.rend());
            });
  found.erase(std::unique(found.begin(), found.end()), found.end());
  for (const std::vector<VertexId>& target : found) {
    result.targets.insert(result.targets.end(), target.begin(), target.end());
  }
  return result;
}

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
  const std::optional<TupleCoding> coding =
      MakeCoding(db.NumVertices(), r, /*max_bits=*/63);
  if (!coding.has_value()) {
    return Status::CapacityExceeded(
        "product-state code of this component does not fit in 64 bits");
  }
  return RunSweeps(
      db, coding->power[r], /*row_width=*/2 * static_cast<size_t>(r),
      num_threads, obs, [&](obs::MetricsShard* shard) -> SweepFn {
        // Each worker sweeps with its own machine copy (the machine's
        // caches are single-owner) and its own scratch.
        return [&, shard, own = machine, scratch = TupleSweepScratch()](
                   uint64_t first, size_t width,
                   std::vector<VertexId>* rows) mutable -> Status {
          const SweepOutcome outcome = TupleSweep(
              db, &own, *coding, first, width, &scratch, shard, obs);
          if (outcome.id_overflow) {
            return Status::CapacityExceeded(
                "join machine outgrew the product-state code of this "
                "component");
          }
          if (!outcome.stopped) {
            AppendRows(*coding, same_as, first, width, scratch, rows, shard);
          }
          return Status::OK();
        };
      });
}

}  // namespace ecrpq
