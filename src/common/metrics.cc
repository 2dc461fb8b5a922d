#include "common/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace ecrpq {
namespace obs {

const char* CounterName(CounterId id) {
  switch (id) {
    case CounterId::kProductStatesExpanded:
      return "product_states_expanded";
    case CounterId::kFrontierPeak:
      return "frontier_peak";
    case CounterId::kTuplesMaterialized:
      return "tuples_materialized";
    case CounterId::kBagTuplesMaterialized:
      return "bag_tuples_materialized";
    case CounterId::kMemoHits:
      return "memo_hits";
    case CounterId::kMemoMisses:
      return "memo_misses";
    case CounterId::kReachQueries:
      return "reach_queries";
    case CounterId::kVisitedBytes:
      return "visited_bytes";
    case CounterId::kRpqBfsRuns:
      return "rpq_bfs_runs";
    case CounterId::kAssignmentsTried:
      return "assignments_tried";
    case CounterId::kBranchesExplored:
      return "branches_explored";
    case CounterId::kAnswersEmitted:
      return "answers_emitted";
    case CounterId::kStealAttempts:
      return "steal_attempts";
    case CounterId::kStealsSucceeded:
      return "steals_succeeded";
    case CounterId::kCacheHits:
      return "cache_hits";
    case CounterId::kCacheMisses:
      return "cache_misses";
    case CounterId::kCacheEvictions:
      return "cache_evictions";
    case CounterId::kServiceAdmitted:
      return "service_admitted";
    case CounterId::kServiceQueued:
      return "service_queued";
    case CounterId::kServiceRejected:
      return "service_rejected";
    case CounterId::kServiceActivePeak:
      return "service_active_peak";
    case CounterId::kTelemetryEventsLogged:
      return "telemetry_events_logged";
    case CounterId::kTelemetryPostmortemDumps:
      return "telemetry_postmortem_dumps";
    case CounterId::kNumCounters:
      break;
  }
  ECRPQ_CHECK(false) << "invalid CounterId " << static_cast<int>(id);
  return "?";
}

CounterKind CounterKindOf(CounterId id) {
  return id == CounterId::kFrontierPeak ||
                 id == CounterId::kServiceActivePeak
             ? CounterKind::kMax
             : CounterKind::kSum;
}

const char* HistogramName(HistogramId id) {
  switch (id) {
    case HistogramId::kPhaseNfaBuildNs:
      return "phase_nfa_build_ns";
    case HistogramId::kPhaseBfsNs:
      return "phase_bfs_ns";
    case HistogramId::kPhaseReduceNs:
      return "phase_reduce_ns";
    case HistogramId::kPhaseBagMaterializeNs:
      return "phase_bag_materialize_ns";
    case HistogramId::kPhaseBranchNs:
      return "phase_branch_ns";
    case HistogramId::kAnswerLatencyNs:
      return "answer_latency_ns";
    case HistogramId::kFrontierSize:
      return "frontier_size";
    case HistogramId::kReachSetSize:
      return "reach_set_size";
    case HistogramId::kBagWidth:
      return "bag_width";
    case HistogramId::kFrontierOccupancy:
      return "frontier_occupancy";
    case HistogramId::kCacheLookupNs:
      return "cache_lookup_ns";
    case HistogramId::kServiceRequestNs:
      return "service_request_ns";
    case HistogramId::kServiceQueueNs:
      return "service_queue_ns";
    case HistogramId::kNumHistograms:
      break;
  }
  ECRPQ_CHECK(false) << "invalid HistogramId " << static_cast<int>(id);
  return "?";
}

HistogramKind HistogramKindOf(HistogramId id) {
  switch (id) {
    case HistogramId::kFrontierSize:
    case HistogramId::kReachSetSize:
    case HistogramId::kBagWidth:
    case HistogramId::kFrontierOccupancy:
      return HistogramKind::kSize;
    default:
      return HistogramKind::kTimeNs;
  }
}

uint64_t HistogramData::Count() const {
  uint64_t count = 0;
  for (const uint64_t b : buckets) count += b;
  return count;
}

uint64_t HistogramData::Percentile(double q) const {
  const uint64_t count = Count();
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the requested order statistic, 1-based; q == 0 means rank 1.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * count + 0.5));
  uint64_t seen = 0;
  for (int b = 0; b < kNumHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      // The exact max tightens the top bucket's representative.
      return std::min(HistogramBucketUpperBound(b), max);
    }
  }
  return max;
}

std::string StatsReport::ToString() const {
  size_t width = 0;
  for (int i = 0; i < kNumCounters; ++i) {
    width = std::max(width,
                     std::string_view(CounterName(static_cast<CounterId>(i)))
                         .size());
  }
  for (int i = 0; i < kNumHistograms; ++i) {
    width = std::max(
        width,
        std::string_view(HistogramName(static_cast<HistogramId>(i))).size());
  }
  std::ostringstream out;
  for (int i = 0; i < kNumCounters; ++i) {
    const std::string name = CounterName(static_cast<CounterId>(i));
    out << name << std::string(width - name.size() + 2, ' ') << values[i]
        << "\n";
  }
  for (int i = 0; i < kNumHistograms; ++i) {
    const HistogramData& h = histograms[i];
    if (h.Empty()) continue;  // Engines not on this code path stay silent.
    const std::string name = HistogramName(static_cast<HistogramId>(i));
    out << name << std::string(width - name.size() + 2, ' ')
        << "count " << h.Count() << "  sum " << h.sum << "  p50 "
        << h.Percentile(0.50) << "  p90 " << h.Percentile(0.90) << "  p99 "
        << h.Percentile(0.99) << "  max " << h.max << "\n";
  }
  return out.str();
}

std::string StatsReport::ToJson() const {
  std::ostringstream out;
  out << "{\"counters\": {";
  for (int i = 0; i < kNumCounters; ++i) {
    if (i > 0) out << ", ";
    out << "\"" << CounterName(static_cast<CounterId>(i))
        << "\": " << values[i];
  }
  out << "}, \"histograms\": {";
  bool first = true;
  for (int i = 0; i < kNumHistograms; ++i) {
    const HistogramData& h = histograms[i];
    if (h.Empty()) continue;
    if (!first) out << ", ";
    first = false;
    out << "\"" << HistogramName(static_cast<HistogramId>(i))
        << "\": {\"count\": " << h.Count() << ", \"sum\": " << h.sum
        << ", \"max\": " << h.max << ", \"p50\": " << h.Percentile(0.50)
        << ", \"p90\": " << h.Percentile(0.90)
        << ", \"p99\": " << h.Percentile(0.99) << ", \"buckets\": [";
    bool first_bucket = true;
    for (int b = 0; b < kNumHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first_bucket) out << ", ";
      first_bucket = false;
      out << "[" << b << ", " << h.buckets[b] << "]";
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

void MetricsShard::Absorb(const StatsReport& report) {
  for (int i = 0; i < kNumCounters; ++i) {
    const CounterId id = static_cast<CounterId>(i);
    if (CounterKindOf(id) == CounterKind::kMax) {
      RecordMax(id, report.values[i]);
    } else {
      Add(id, report.values[i]);
    }
  }
  for (int i = 0; i < kNumHistograms; ++i) {
    const HistogramData& from = report.histograms[i];
    Hist& h = histograms_[i];
    for (int b = 0; b < kNumHistogramBuckets; ++b) {
      h.buckets[b].fetch_add(from.buckets[b], std::memory_order_relaxed);
    }
    h.sum.fetch_add(from.sum, std::memory_order_relaxed);
    StoreMax(h.max, from.max);
  }
}

MetricsShard* Metrics::AcquireShard() {
  MutexLock lock(mutex_);
  shards_.emplace_back();
  return &shards_.back();
}

StatsReport Metrics::Aggregate() const {
  MutexLock lock(mutex_);
  StatsReport report;
  for (const MetricsShard& shard : shards_) {
    for (int i = 0; i < kNumCounters; ++i) {
      const CounterId id = static_cast<CounterId>(i);
      const uint64_t v = shard.Load(id);
      if (CounterKindOf(id) == CounterKind::kMax) {
        report.values[i] = std::max(report.values[i], v);
      } else {
        report.values[i] += v;
      }
    }
    for (int i = 0; i < kNumHistograms; ++i) {
      shard.LoadInto(static_cast<HistogramId>(i), &report.histograms[i]);
    }
  }
  return report;
}

uint64_t Metrics::Total(CounterId id) const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const MetricsShard& shard : shards_) {
    const uint64_t v = shard.Load(id);
    if (CounterKindOf(id) == CounterKind::kMax) {
      total = std::max(total, v);
    } else {
      total += v;
    }
  }
  return total;
}

}  // namespace obs
}  // namespace ecrpq
