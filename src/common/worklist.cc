#include "common/worklist.h"

#include <algorithm>
#include <utility>

namespace ecrpq {
namespace {

// Chunks are packed (begin << 32) | end; the index spaces scheduled here
// (vertices, branch values, batch slots) are all 32-bit.
constexpr uint64_t PackChunk(size_t begin, size_t end) {
  return (static_cast<uint64_t>(begin) << 32) | static_cast<uint64_t>(end);
}
constexpr size_t ChunkBegin(uint64_t chunk) {
  return static_cast<size_t>(chunk >> 32);
}
constexpr size_t ChunkEnd(uint64_t chunk) {
  return static_cast<size_t>(chunk & 0xffffffffu);
}

}  // namespace

size_t FrontierScheduler::ChunkSizeFor(size_t n, int workers) {
  if (workers <= 1) return n == 0 ? 1 : n;
  const size_t target = n / (static_cast<size_t>(workers) * 8);
  return std::clamp<size_t>(target, 1, 64);
}

void FrontierScheduler::Start(size_t n, TaskFn fn) {
  ECRPQ_CHECK(!running_) << "FrontierScheduler::Start while a run is active";
  ECRPQ_CHECK(n < (uint64_t{1} << 32)) << "index space too large to chunk";
  n_ = n;
  fn_ = std::move(fn);
  workers_ = 1;
  if (n == 0) return;
  const int pool_threads = pool_ != nullptr ? pool_->num_threads() : 1;
  if (pool_threads <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn_(i, 0);
    return;
  }
  const size_t chunk = ChunkSizeFor(n, pool_threads);
  const size_t num_chunks = (n + chunk - 1) / chunk;
  workers_ =
      static_cast<int>(std::min<size_t>(pool_threads, num_chunks));
  // Seed chunks round-robin so every worker starts with a contiguous-ish
  // slice of the index space, pushed in descending order so that each
  // owner pops its chunks in ascending order (the ordered replay of
  // eval/generic_eval.cc waits for index 0 first) and thieves take the
  // largest ones. Seeding happens before any Submit: the scheduler is the
  // deques' single writer here, and the pool's queue handoff publishes
  // them to the workers.
  const size_t per_worker =
      (num_chunks + static_cast<size_t>(workers_) - 1) /
      static_cast<size_t>(workers_);
  deques_.clear();
  deques_.reserve(workers_);
  for (int w = 0; w < workers_; ++w) {
    deques_.push_back(std::make_unique<WorkStealingDeque>(per_worker));
  }
  for (size_t c = num_chunks; c-- > 0;) {
    const size_t begin = c * chunk;
    const size_t end = std::min(n, begin + chunk);
    deques_[c % static_cast<size_t>(workers_)]->PushBottom(
        PackChunk(begin, end));
  }
  running_ = true;
  wg_.Add(workers_);
  for (int w = 0; w < workers_; ++w) {
    pool_->Submit([this, w] {
      WorkerRun(w);
      wg_.Done();
    });
  }
}

void FrontierScheduler::Wait() {
  if (!running_) return;
  wg_.Wait();
  running_ = false;
  deques_.clear();
  fn_ = nullptr;
}

void FrontierScheduler::WorkerRun(int w) {
  uint64_t steal_attempts = 0;
  uint64_t steals_succeeded = 0;
  auto run_chunk = [&](uint64_t chunk) {
    const size_t end = ChunkEnd(chunk);
    for (size_t i = ChunkBegin(chunk); i < end; ++i) fn_(i, w);
  };
  // Phase 1: drain the worker's own deque (LIFO, uncontended fast path).
  while (std::optional<uint64_t> chunk = deques_[w]->PopBottom()) {
    run_chunk(*chunk);
  }
  // Phase 2: steal (FIFO from victims' tops). The work set is static — no
  // chunk spawns chunks — so once a full sweep over all victims comes back
  // empty, every remaining index is already running on some worker and
  // this worker can retire.
  for (;;) {
    bool swept_clean = true;
    for (int off = 1; off < workers_; ++off) {
      WorkStealingDeque& victim = *deques_[(w + off) % workers_];
      for (;;) {
        uint64_t chunk = 0;
        ++steal_attempts;
        const WorkStealingDeque::StealResult r = victim.Steal(&chunk);
        if (r == WorkStealingDeque::StealResult::kEmpty) break;
        if (r == WorkStealingDeque::StealResult::kLost) {
          // Lost a race while items may remain: not a clean sweep.
          swept_clean = false;
          break;
        }
        ++steals_succeeded;
        swept_clean = false;
        run_chunk(chunk);
      }
    }
    if (swept_clean) break;
  }
  obs::Add(shard_, obs::CounterId::kStealAttempts, steal_attempts);
  obs::Add(shard_, obs::CounterId::kStealsSucceeded, steals_succeeded);
}

}  // namespace ecrpq
