// Lock-free evaluation metrics: per-thread counter and histogram shards
// aggregated deterministically into a StatsReport.
//
// Design:
//  - every worker (engine, searcher) acquires its *own* MetricsShard from
//    the evaluation's Metrics registry; increments are relaxed atomic adds
//    on a cache-line-aligned block the worker exclusively writes, so the
//    hot path is wait-free and contention-free;
//  - aggregation folds shards with commutative operations only (sum for
//    throughput counters and histogram buckets, max for peaks), so the
//    StatsReport is identical for every interleaving and pool size that
//    does the same work;
//  - everything is null-safe: call sites guard on a nullable shard pointer
//    (see the free Add/RecordMax/Record helpers), and with observability
//    disabled the engine never touches a shard at all — the
//    zero-overhead-when-disabled contract of docs/OBSERVABILITY.md.
//
// Histograms use log2 ("power of two") buckets: bucket 0 holds the value
// 0 and bucket k >= 1 holds values in [2^(k-1), 2^k - 1]. Two kinds exist:
//  - kTimeNs histograms record wall-clock phase durations; their bucket
//    counts vary run to run and are *excluded* from determinism checks;
//  - kSize histograms record work-shape samples (frontier sizes, bag
//    widths); their bucket counts are a pure function of the work done, so
//    engines whose work set is pool-size-independent produce identical
//    bucket counts at every pool size (checked by the differential suite).
#ifndef ECRPQ_COMMON_METRICS_H_
#define ECRPQ_COMMON_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>

#include "common/annotations.h"

namespace ecrpq {
namespace obs {

// The metric vocabulary. Names (CounterName) are the stable identifiers
// used in reports, trace metadata, BENCH_*.json and docs/OBSERVABILITY.md.
enum class CounterId : int {
  kProductStatesExpanded = 0,  // Product-BFS states interned (all searches).
  kFrontierPeak,               // Max BFS frontier size (max-aggregated).
  kTuplesMaterialized,         // Rows added to materialized CQ relations.
  kBagTuplesMaterialized,      // Tuples materialized in tree-dec bags.
  kMemoHits,                   // Reach() calls served from the memo.
  kMemoMisses,                 // Reach() calls that ran a fresh BFS.
  kReachQueries,               // Total Reach() calls (hits + misses).
  kVisitedBytes,               // Bytes allocated for visited-set tracking.
  kRpqBfsRuns,                 // RPQ-layer product sweeps (64 sources each).
  kAssignmentsTried,           // Backtracking nodes in the generic engine.
  kBranchesExplored,           // Parallel branches claimed by workers.
  kAnswersEmitted,             // Answers emitted (pre-dedup, per branch).
  // Work-stealing runtime (common/worklist.h). Scheduling-dependent: their
  // values vary run to run under contention and are excluded from
  // cross-pool-size determinism comparisons (bench export prefixes them
  // "sched_" so bench_compare treats them as informational).
  kStealAttempts,              // Steal probes by idle scheduler workers.
  kStealsSucceeded,            // Steal probes that won a chunk.
  // Cross-query caching layer (common/cache.h). History-dependent: values
  // depend on what earlier evaluations left in the process-wide caches, so
  // — like the sched_ group — they are excluded from determinism
  // comparisons and exported with a "cache_" name prefix that
  // bench_compare treats as informational-only.
  kCacheHits,                  // Cache lookups served from a live entry.
  kCacheMisses,                // Cache lookups that found nothing.
  kCacheEvictions,             // LRU entries evicted to respect the budget.
  // Query-service admission control (service/admission.h). Load- and
  // timing-dependent like the sched_ group: a queued-vs-admitted outcome
  // depends on what else is in flight, so these are exported with a
  // "service_" name prefix that bench_compare treats as
  // informational-only.
  kServiceAdmitted,            // Queries admitted (immediately or queued).
  kServiceQueued,              // Queries that waited in the admission queue.
  kServiceRejected,            // Queries rejected (policy or queue deadline).
  kServiceActivePeak,          // Max concurrently admitted (max-aggregated).
  // Request-telemetry layer (event log, postmortems). Load-dependent
  // like the service_ group; exported with a "telemetry_" name prefix that
  // bench_compare treats as informational-only.
  kTelemetryEventsLogged,      // Records appended to the JSON-lines log.
  kTelemetryPostmortemDumps,   // Span-buffer postmortem files written.
  kNumCounters,
};

inline constexpr int kNumCounters = static_cast<int>(CounterId::kNumCounters);

// How a counter folds across shards.
enum class CounterKind { kSum, kMax };

const char* CounterName(CounterId id);
CounterKind CounterKindOf(CounterId id);

// The histogram vocabulary — phase wall-times and work-size distributions.
// Names (HistogramName) are the stable identifiers used in reports,
// StatsReport::ToJson() and docs/OBSERVABILITY.md.
enum class HistogramId : int {
  // Phase wall-time (nanoseconds per occurrence). Non-deterministic values;
  // excluded from determinism checks.
  kPhaseNfaBuildNs = 0,      // JoinMachine / product-NFA construction.
  kPhaseBfsNs,               // One tuple-search BFS or one RPQ sweep.
  kPhaseReduceNs,            // One reduction component materialization.
  kPhaseBagMaterializeNs,    // One tree-dec bag materialization.
  kPhaseBranchNs,            // One parallel branch evaluation.
  kAnswerLatencyNs,          // Engine start -> each answer emission.
  // Work-size samples. Deterministic bucket counts whenever the engine's
  // work set does not depend on the pool size (see header comment).
  kFrontierSize,             // BFS frontier size at each pop.
  kReachSetSize,             // Accepting targets per searched source.
  kBagWidth,                 // Variables per materialized tree-dec bag.
  kFrontierOccupancy,        // Frontier size per level (level-sync BFS).
  kCacheLookupNs,            // One sharded-LRU lookup, hit or miss.
  kServiceRequestNs,         // QueryService request: admission -> response.
  kServiceQueueNs,           // Admission wait per query (0 when unqueued).
  kNumHistograms,
};

inline constexpr int kNumHistograms =
    static_cast<int>(HistogramId::kNumHistograms);

// Log2 bucketing: bucket 0 <=> value 0; bucket k >= 1 <=> [2^(k-1), 2^k).
// 65 buckets cover the full uint64_t range (bit_width(~0ull) == 64).
inline constexpr int kNumHistogramBuckets = 65;

constexpr int HistogramBucketOf(uint64_t v) { return std::bit_width(v); }

// Inclusive upper bound of a bucket's value range (0 for bucket 0,
// 2^k - 1 for bucket k) — the deterministic representative used for
// percentile estimates.
constexpr uint64_t HistogramBucketUpperBound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= 64) return ~uint64_t{0};
  return (uint64_t{1} << bucket) - 1;
}

// Whether a histogram records wall-clock durations or work sizes.
enum class HistogramKind { kTimeNs, kSize };

const char* HistogramName(HistogramId id);
HistogramKind HistogramKindOf(HistogramId id);

// Folded (cross-shard) view of one histogram: bucket counts plus exact
// sum/max. Percentiles are estimated from the buckets (each bucket's
// upper bound stands in for its values, clamped to the exact max), so the
// summary is a deterministic function of the bucket counts.
struct HistogramData {
  std::array<uint64_t, kNumHistogramBuckets> buckets{};
  uint64_t sum = 0;
  uint64_t max = 0;

  uint64_t Count() const;
  // q in [0, 1]; returns 0 on an empty histogram. Percentile(1.0) == max.
  uint64_t Percentile(double q) const;
  bool Empty() const { return Count() == 0; }
};

// Deterministic aggregate of one evaluation's metrics.
struct StatsReport {
  std::array<uint64_t, kNumCounters> values{};
  std::array<HistogramData, kNumHistograms> histograms{};

  uint64_t operator[](CounterId id) const {
    return values[static_cast<int>(id)];
  }
  uint64_t& at(CounterId id) { return values[static_cast<int>(id)]; }

  const HistogramData& hist(HistogramId id) const {
    return histograms[static_cast<int>(id)];
  }
  HistogramData& hist(HistogramId id) {
    return histograms[static_cast<int>(id)];
  }

  // Aligned "name  value" lines, one per counter, followed by one
  // count/sum/p50/p90/p99/max line per non-empty histogram.
  std::string ToString() const;
  // {"counters": {...}, "histograms": {...}}; counter keys in enum order,
  // histogram entries carry count/sum/max/p50/p90/p99 and a sparse
  // "buckets" array of [bucket_index, count] pairs.
  std::string ToJson() const;
};

// One worker's counter block. Writers own their shard exclusively; readers
// (aggregation, budget checks) may load concurrently from any thread.
class alignas(64) MetricsShard {
 public:
  void Add(CounterId id, uint64_t n = 1) {
    counters_[static_cast<int>(id)].fetch_add(n, std::memory_order_relaxed);
  }
  void RecordMax(CounterId id, uint64_t v) {
    StoreMax(counters_[static_cast<int>(id)], v);
  }
  uint64_t Load(CounterId id) const {
    return counters_[static_cast<int>(id)].load(std::memory_order_relaxed);
  }

  // Records one sample into a histogram: a relaxed bucket increment, a
  // relaxed sum add and a CAS-max — wait-free for the (exclusive) writer.
  void Record(HistogramId id, uint64_t v) {
    Hist& h = histograms_[static_cast<int>(id)];
    h.buckets[HistogramBucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    h.sum.fetch_add(v, std::memory_order_relaxed);
    StoreMax(h.max, v);
  }

  // Folds a whole report into this shard, as if this shard's owner had
  // done the reported work — how a nested evaluation's session hands its
  // counters to the enclosing one.
  void Absorb(const StatsReport& report);

  // Concurrent-read snapshot of one histogram (folded by Metrics).
  void LoadInto(HistogramId id, HistogramData* out) const {
    const Hist& h = histograms_[static_cast<int>(id)];
    for (int b = 0; b < kNumHistogramBuckets; ++b) {
      out->buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
    }
    out->sum += h.sum.load(std::memory_order_relaxed);
    out->max = std::max(out->max, h.max.load(std::memory_order_relaxed));
  }

 private:
  // Relaxed CAS-max: raises `slot` to `v` unless it already holds more.
  static void StoreMax(std::atomic<uint64_t>& slot, uint64_t v) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < v &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  struct Hist {
    std::array<std::atomic<uint64_t>, kNumHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum{};
    std::atomic<uint64_t> max{};
  };

  std::array<std::atomic<uint64_t>, kNumCounters> counters_{};
  std::array<Hist, kNumHistograms> histograms_{};
};

// Registry of shards for one evaluation. AcquireShard() is the only
// synchronized operation and is called once per worker-scoped object
// (engine, searcher) — never from a hot loop.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  // Returns a fresh shard with a stable address (lives as long as the
  // Metrics object).
  MetricsShard* AcquireShard() ECRPQ_EXCLUDES(mutex_);

  // Folds all shards (sum / max per CounterKindOf). Safe to call while
  // writers are active: the result is then a consistent-enough snapshot of
  // a moment in the run (each counter individually exact at load time).
  StatsReport Aggregate() const ECRPQ_EXCLUDES(mutex_);

  // Current folded value of a single counter — the cheap primitive budget
  // checks poll.
  uint64_t Total(CounterId id) const ECRPQ_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;  // Guards shards_ growth only.
  // deque: stable element addresses. Guarded as a container; the shards
  // themselves are atomics written lock-free by their owning workers.
  std::deque<MetricsShard> shards_ ECRPQ_GUARDED_BY(mutex_);
};

// Null-safe increment helpers: the disabled path is one predictable branch.
inline void Add(MetricsShard* shard, CounterId id, uint64_t n = 1) {
  if (shard != nullptr) shard->Add(id, n);
}
inline void RecordMax(MetricsShard* shard, CounterId id, uint64_t v) {
  if (shard != nullptr) shard->RecordMax(id, v);
}
inline void Record(MetricsShard* shard, HistogramId id, uint64_t v) {
  if (shard != nullptr) shard->Record(id, v);
}

// RAII phase timer: records the scope's wall time (ns) into a kTimeNs
// histogram on destruction. Against a null shard the clock is never read —
// the zero-overhead-when-disabled contract.
class ScopedTimer {
 public:
  ScopedTimer(MetricsShard* shard, HistogramId id) : shard_(shard), id_(id) {
    if (shard_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { RecordElapsed(shard_, id_, start_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Records now - `start` into histogram `id`; no-op on a null shard.
  static void RecordElapsed(MetricsShard* shard, HistogramId id,
                            std::chrono::steady_clock::time_point start) {
    if (shard == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start;
    shard->Record(
        id, static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                    .count()));
  }

 private:
  MetricsShard* shard_;
  HistogramId id_;
  std::chrono::steady_clock::time_point start_{};
};

// An engine's answer clock: started at construction, each Record() adds
// one kAnswerLatencyNs sample (start -> now). Engines call Record() once
// per distinct answer they emit. Null shard = no-op.
class AnswerLatency {
 public:
  explicit AnswerLatency(MetricsShard* shard) : shard_(shard) {
    if (shard_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  void Record() const {
    ScopedTimer::RecordElapsed(shard_, HistogramId::kAnswerLatencyNs, start_);
  }

 private:
  MetricsShard* shard_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace obs
}  // namespace ecrpq

#endif  // ECRPQ_COMMON_METRICS_H_
