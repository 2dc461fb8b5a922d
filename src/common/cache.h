// ShardedLruCache: the bounded, thread-safe LRU map behind every
// process-wide cache (plan cache, automaton interner, reach memo).
//
// Design:
//  - N shards, each an independent (annotated Mutex, intrusive LRU list,
//    hash index) triple; a key's shard is a pure function of its hash, so
//    two lookups contend only when they collide on a shard — the
//    cross-query caches are read-mostly and the critical sections are a
//    list splice plus a hash probe;
//  - capacity is a BYTE budget, split evenly across shards. Every entry
//    carries a caller-supplied cost (the value's heap footprint) plus a
//    fixed bookkeeping overhead; insertion evicts from the shard's LRU
//    tail until the entry fits, and an entry larger than a whole shard is
//    rejected outright. Invariant (unit-tested): a shard's resident bytes
//    NEVER exceed its budget, not even transiently — eviction happens
//    before the insert, so the budget is a true high-water mark;
//  - correctness never depends on the hash: the index compares full keys,
//    and callers key on canonical serialized bytes (exact equality), so a
//    64-bit collision costs a shard mix-up at worst, never a wrong value;
//  - observability: lookups time themselves into the kCacheLookupNs
//    histogram and count kCacheHits/kCacheMisses, evictions count
//    kCacheEvictions — all against the caller's (nullable) MetricsShard,
//    plus process-lifetime atomic totals readable via GetStats() for
//    callers with no obs session (benches, tests).
//
// Values are returned by copy; cached payloads are shared_ptr-shaped (or
// small PODs) so a copy is a refcount bump and an evicted entry stays
// alive for readers that already hold it.
#ifndef ECRPQ_COMMON_CACHE_H_
#define ECRPQ_COMMON_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/metrics.h"

namespace ecrpq {

// Fixed per-entry bookkeeping charge: list node + index slot + key copy
// amortized. Deliberately coarse — the budget bounds memory order, not
// bytes-exact heap use.
inline constexpr size_t kCacheEntryOverheadBytes = 64;

template <typename Key, typename Value, typename KeyHash = std::hash<Key>>
class ShardedLruCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  // `capacity_bytes` is the total budget across all shards; `num_shards`
  // is rounded up to a power of two (shard choice is a mask).
  explicit ShardedLruCache(size_t capacity_bytes, int num_shards = 8) {
    int shards = 1;
    while (shards < num_shards && shards < 64) shards <<= 1;
    shards_ = std::vector<Shard>(static_cast<size_t>(shards));
    shard_mask_ = static_cast<size_t>(shards - 1);
    per_shard_capacity_ = capacity_bytes / static_cast<size_t>(shards);
    ECRPQ_CHECK(per_shard_capacity_ > kCacheEntryOverheadBytes)
        << "ShardedLruCache: capacity too small for even one entry";
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  // Returns the cached value and refreshes its LRU position, or nullopt.
  std::optional<Value> Lookup(const Key& key,
                              obs::MetricsShard* obs_shard = nullptr) {
    obs::ScopedTimer timer(obs_shard, obs::HistogramId::kCacheLookupNs);
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      RecordMiss(obs_shard);
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    RecordHit(obs_shard);
    return it->second->value;
  }

  // Inserts (or refreshes) `key -> value`, charging `cost_bytes` plus the
  // fixed overhead, evicting LRU entries as needed. An entry that cannot
  // fit in an empty shard is dropped (the caller keeps its computed value;
  // it is simply not shared). Re-inserting an existing key replaces the
  // value and re-charges the new cost — including when the new cost is
  // oversized: the old entry is removed first, so the cache never keeps
  // serving a value its caller just tried to replace.
  void Insert(const Key& key, Value value, size_t cost_bytes,
              obs::MetricsShard* obs_shard = nullptr) {
    const size_t charge = cost_bytes + kCacheEntryOverheadBytes;
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.bytes -= it->second->charge;
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    if (charge > per_shard_capacity_) return;  // Oversized: never cached.
    EvictUntilFits(shard, charge, obs_shard);
    shard.lru.push_front(Entry{key, std::move(value), charge});
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += charge;
  }

  // Atomic lookup-or-compute: `factory` runs under the shard lock on a
  // miss, so concurrent callers with the same key compute the value once
  // and observe one canonical copy (the automaton interner relies on this
  // for unique-id stability). Keep factories free of calls back into the
  // same cache. `cost_of` maps the computed value to its byte cost.
  template <typename Factory, typename CostOf>
  Value GetOrInsert(const Key& key, Factory&& factory, CostOf&& cost_of,
                    obs::MetricsShard* obs_shard = nullptr) {
    Shard& shard = ShardFor(key);
    Value result;
    {
      obs::ScopedTimer timer(obs_shard, obs::HistogramId::kCacheLookupNs);
      MutexLock lock(shard.mutex);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        RecordHit(obs_shard);
        return it->second->value;
      }
      RecordMiss(obs_shard);
      result = factory();
      const size_t charge = cost_of(result) + kCacheEntryOverheadBytes;
      if (charge <= per_shard_capacity_) {
        EvictUntilFits(shard, charge, obs_shard);
        shard.lru.push_front(Entry{key, result, charge});
        shard.index.emplace(key, shard.lru.begin());
        shard.bytes += charge;
      }
    }
    return result;
  }

  // Drops every entry (tests, cold-cache benchmarks). Does not reset the
  // lifetime Stats counters.
  void Clear() {
    for (Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      shard.lru.clear();
      shard.index.clear();
      shard.bytes = 0;
    }
  }

  size_t SizeBytes() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      total += shard.bytes;
    }
    return total;
  }

  size_t NumEntries() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      total += shard.index.size();
    }
    return total;
  }

  size_t capacity_bytes() const {
    return per_shard_capacity_ * shards_.size();
  }

  Stats GetStats() const {
    return Stats{hits_.load(std::memory_order_relaxed),
                 misses_.load(std::memory_order_relaxed),
                 evictions_.load(std::memory_order_relaxed)};
  }

 private:
  struct Entry {
    Key key;
    Value value;
    size_t charge;
  };

  struct Shard {
    mutable Mutex mutex;
    std::list<Entry> lru ECRPQ_GUARDED_BY(mutex);  // front = MRU.
    std::unordered_map<Key, typename std::list<Entry>::iterator, KeyHash>
        index ECRPQ_GUARDED_BY(mutex);
    size_t bytes ECRPQ_GUARDED_BY(mutex) = 0;
  };

  Shard& ShardFor(const Key& key) {
    // Remix the index hash so shard choice and in-shard bucket choice use
    // decorrelated bits.
    return shards_[HashMix64(KeyHash{}(key)) & shard_mask_];
  }

  void EvictUntilFits(Shard& shard, size_t charge,
                      obs::MetricsShard* obs_shard)
      ECRPQ_REQUIRES(shard.mutex) {
    while (shard.bytes + charge > per_shard_capacity_ && !shard.lru.empty()) {
      const Entry& victim = shard.lru.back();
      shard.bytes -= victim.charge;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      obs::Add(obs_shard, obs::CounterId::kCacheEvictions);
    }
  }

  void RecordHit(obs::MetricsShard* obs_shard) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    obs::Add(obs_shard, obs::CounterId::kCacheHits);
  }
  void RecordMiss(obs::MetricsShard* obs_shard) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::Add(obs_shard, obs::CounterId::kCacheMisses);
  }

  std::vector<Shard> shards_;
  size_t shard_mask_ = 0;
  size_t per_shard_capacity_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace ecrpq

#endif  // ECRPQ_COMMON_CACHE_H_
