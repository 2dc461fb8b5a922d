// The work-stealing runtime behind the parallel evaluation layer: a
// Chase-Lev-style deque of chunked work items plus the FrontierScheduler
// that drives the hot fan-out loops (per-source product BFS, batched tuple
// searches, branch-parallel backtracking) from per-worker worklists.
//
// Why not ThreadPool::ParallelFor? The fixed atomic-counter schedule hands
// out indices one at a time: cheap items pay one contended fetch_add each,
// and an expensive item pins its worker while the counter starves everyone
// of locality. The scheduler here seeds each worker with contiguous chunks
// of the index space, in descending order; a worker drains its own deque
// LIFO (cache-warm, uncontended, so in ascending index order) and only when
// empty steals FIFO from a victim (its largest chunk) — the classic
// work-stealing recipe (Chase & Lev, SPAA'05) specialized to a static work
// set, which is exactly what the evaluation fan-outs are: the index space
// is known up front and chunks never spawn more chunks.
//
// Determinism: the scheduler only changes *which worker* runs index i and
// *when* — every index still runs exactly once, callers still write results
// into slot i and merge in input order, and answer emission stays behind
// the ordered-coordinator replay (eval/generic_eval.cc). The differential
// suite checks this at pool sizes 1/2/4/8.
//
// Concurrency contract (PR 5 vocabulary): PushBottom/PopBottom are
// owner-only (an ExclusiveRole capability — the deque has exactly one
// owning worker once the scheduler hands it off; the scheduler itself is
// the single writer during seeding, before any worker starts). Steal may be
// called from any thread. All cross-thread state is std::atomic — including
// the buffer slots, so a stale speculative read in a lost steal race is an
// atomic load, not a data race (TSan-clean by construction).
#ifndef ECRPQ_COMMON_WORKLIST_H_
#define ECRPQ_COMMON_WORKLIST_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace ecrpq {

// Single-owner bottom, lock-free top. Fixed capacity chosen at
// construction: the schedulers built on top seed all work up front and
// never push from inside a task, so the high-water mark is known exactly
// and growth is unnecessary (PushBottom CHECKs instead of reallocating —
// a full deque is a scheduler bug, not a load condition).
class WorkStealingDeque {
 public:
  enum class StealResult { kStolen, kEmpty, kLost };

  explicit WorkStealingDeque(size_t capacity)
      : mask_(RoundUpPow2(capacity < 2 ? 2 : capacity) - 1),
        buffer_(mask_ + 1) {}

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  size_t capacity() const { return mask_ + 1; }

  // Owner-only. Appends an item at the bottom.
  void PushBottom(uint64_t item) ECRPQ_ASSERT_EXCLUSIVE(owner_role_) {
    owner_role_.Assert();
    const uint64_t b = bottom_.load(std::memory_order_relaxed);
    const uint64_t t = top_.load(std::memory_order_acquire);
    ECRPQ_CHECK(b - t <= mask_) << "WorkStealingDeque overflow";
    buffer_[b & mask_].store(item, std::memory_order_relaxed);
    // Publish the slot before the new bottom becomes visible to thieves.
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  // Owner-only. Takes the most recently pushed item (LIFO), or nullopt when
  // the deque is empty. The memory-order choreography is the C11 Chase-Lev
  // formulation (Lê et al., PPoPP'13).
  std::optional<uint64_t> PopBottom() ECRPQ_ASSERT_EXCLUSIVE(owner_role_) {
    owner_role_.Assert();
    const uint64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    uint64_t t = top_.load(std::memory_order_relaxed);
    // Signed comparison: popping an empty deque decrements bottom below top
    // (transiently to -1 when both started at 0), which unsigned compares
    // would misread as a huge size.
    if (static_cast<int64_t>(t) > static_cast<int64_t>(b)) {
      // Already empty: restore bottom.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return std::nullopt;
    }
    uint64_t item = buffer_[b & mask_].load(std::memory_order_relaxed);
    if (t == b) {
      // Last item: race the thieves for it via top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        // A thief won; the deque is now empty.
        bottom_.store(b + 1, std::memory_order_relaxed);
        return std::nullopt;
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  // Any thread. Tries to take the oldest item (FIFO). kLost means the CAS
  // lost a race with the owner or another thief while items may remain —
  // callers should retry; kEmpty is a definitive miss.
  StealResult Steal(uint64_t* item) {
    uint64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const uint64_t b = bottom_.load(std::memory_order_acquire);
    // Signed: bottom may transiently sit one below top mid-PopBottom.
    if (static_cast<int64_t>(t) >= static_cast<int64_t>(b)) {
      return StealResult::kEmpty;
    }
    // Speculative read: if the CAS below fails the slot may have been
    // recycled, but the value is discarded — and the slot is an atomic, so
    // the stale read is defined behavior.
    const uint64_t candidate = buffer_[t & mask_].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return StealResult::kLost;
    }
    *item = candidate;
    return StealResult::kStolen;
  }

  // Approximate (racy) size; exact when no concurrent operations run.
  size_t ApproxSize() const {
    const int64_t b =
        static_cast<int64_t>(bottom_.load(std::memory_order_relaxed));
    const int64_t t =
        static_cast<int64_t>(top_.load(std::memory_order_relaxed));
    return b > t ? static_cast<size_t>(b - t) : 0;
  }

 private:
  static size_t RoundUpPow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  const uint64_t mask_;
  // Slots are atomics so lost-race speculative reads are never data races.
  std::vector<std::atomic<uint64_t>> buffer_;
  // Owner index (bottom) vs thief index (top); both increase monotonically.
  std::atomic<uint64_t> bottom_{0};
  std::atomic<uint64_t> top_{0};
  // Phantom capability: exactly one thread may call PushBottom/PopBottom at
  // a time (the seeding scheduler, then the owning worker after handoff —
  // the pool's Submit synchronizes the transfer).
  ExclusiveRole owner_role_;
};

// Drives fn(index, worker) for every index in [0, n) across a thread pool
// using per-worker chunked deques with stealing. `worker` identifies the
// executing worker in [0, num_workers()): callers use it to index
// per-worker state (searchers, engines) exactly as with the old
// Submit-per-worker pattern.
//
// Start() returns once all work is seeded and submitted; Wait() blocks
// until every index has run. Execute() is Start+Wait. With a null/1-thread
// pool or n <= 1, Start() runs everything inline on the calling thread
// (pool size 1 stays byte-for-byte the sequential engine).
//
// Steal traffic is recorded into the optional MetricsShard (steal_attempts
// / steals_succeeded) — scheduling-dependent by nature, so these counters
// are excluded from determinism comparisons.
class FrontierScheduler {
 public:
  using TaskFn = std::function<void(size_t index, int worker)>;

  explicit FrontierScheduler(ThreadPool* pool,
                             obs::MetricsShard* shard = nullptr)
      : pool_(pool), shard_(shard) {}
  ~FrontierScheduler() { Wait(); }

  FrontierScheduler(const FrontierScheduler&) = delete;
  FrontierScheduler& operator=(const FrontierScheduler&) = delete;

  // Number of workers the last Start() fanned out to (1 when inline).
  int num_workers() const { return workers_; }

  // Chunk granularity: small enough that W workers get ~8 chunks each to
  // balance, capped at 64 so one stolen chunk never carries a large tail of
  // an imbalanced frontier.
  static size_t ChunkSizeFor(size_t n, int workers);

  void Start(size_t n, TaskFn fn);
  void Wait();
  void Execute(size_t n, TaskFn fn) {
    Start(n, std::move(fn));
    Wait();
  }

 private:
  void WorkerRun(int w);

  ThreadPool* pool_;
  obs::MetricsShard* shard_;
  int workers_ = 1;
  size_t n_ = 0;
  TaskFn fn_;
  std::vector<std::unique_ptr<WorkStealingDeque>> deques_;
  WaitGroup wg_;
  bool running_ = false;
};

}  // namespace ecrpq

#endif  // ECRPQ_COMMON_WORKLIST_H_
