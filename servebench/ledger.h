// The traced run: the same request stream as the timed run, executed by
// calling the public layers HandleLine goes through, in ExecuteQuery's
// order, each call wrapped in a span the benchmark records. Spans are kept
// in memory per client and written as one chrome://tracing file at exit.
#ifndef SERVEBENCH_LEDGER_H_
#define SERVEBENCH_LEDGER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "graphdb/graph_db.h"
#include "service/admission.h"
#include "service/protocol.h"

namespace servebench {

// Layers timed by the traced run, in call order. Every layer span is a
// child of one request span.
enum Layer : int {
  kServiceParse = 0,  // ParseRequestLine.
  kServiceAdmit,      // AdmissionController::Admit + ticket release.
  kQueryParse,        // ParseEcrpq.
  kQueryKey,          // CanonicalQueryKey and its hash, as the service does.
  kEvalClassify,      // ClassifyQueryCached.
  kEvalEvaluate,      // EvaluatePlanned.
  kServiceRender,     // ResponseBuilder for the answer payload.
  kCommonTelemetry,   // Trace ToJson + PhaseProfile + Report.
  kGraphdbMutate,     // GraphDb::AddEdge + Finalize.
  kNumLayers,
};

// "service.parse", ...; "request" for -1.
const char* LayerName(int layer);

struct Span {
  int layer = -1;  // -1: the request span.
  int tid = 0;
  uint64_t request = 0;
  int64_t parent = -1;  // Index in the same client's span list.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Per-client tallies of what the layers report.
struct LedgerCounters {
  uint64_t queries = 0;
  uint64_t writes = 0;
  uint64_t errors = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t classify_miss_ns = 0;
  uint64_t response_bytes = 0;
  std::array<uint64_t, 4> routes{};  // Indexed by EngineChoice.
  // Summed over the per-query obs::Session reports.
  uint64_t product_states = 0;
  uint64_t bfs_runs = 0;
  uint64_t tuples_materialized = 0;
  uint64_t steals = 0;
  uint64_t reduce_ns = 0;
  uint64_t bag_ns = 0;

  void Merge(const LedgerCounters& other);
};

// The graphs and admission controller the traced clients share. The
// graphs are parsed from the texts the timed run installs; a graph is
// either never written or used by exactly one client.
struct LedgerEnv {
  explicit LedgerEnv(const ecrpq::AdmissionLimits& limits)
      : admission(limits) {}
  std::map<std::string, std::unique_ptr<ecrpq::GraphDb>> graphs;
  ecrpq::AdmissionController admission;
  int pool_threads = 1;
};

// One traced client; one per client thread.
class LedgerClient {
 public:
  LedgerClient(LedgerEnv* env, int tid,
               std::chrono::steady_clock::time_point origin)
      : env_(env), tid_(tid), origin_(origin) {}

  // Executes one request line and returns the response line HandleLine
  // produces for it, recording its spans and counters.
  std::string Handle(const std::string& line, uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }
  const LedgerCounters& counters() const { return counters_; }

 private:
  std::string Execute(const std::string& line, uint64_t request,
                      int64_t root);
  std::string ExecuteQuery(const ecrpq::ServiceRequest& req,
                           const ecrpq::GraphDb& db, uint64_t request,
                           int64_t root);
  uint64_t NowNs() const;
  int64_t Begin(int layer, uint64_t request, int64_t parent);
  void End(int64_t span);

  LedgerEnv* env_;
  int tid_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  LedgerCounters counters_;
  // Receives ClassifyQueryCached's hit/miss counts, so a miss is known
  // per call without racing the other clients on the global stats.
  ecrpq::obs::Metrics classify_metrics_;
  ecrpq::obs::MetricsShard* classify_shard_ = classify_metrics_.AcquireShard();
};

// Self time per layer, and coverage: the share of request-span time the
// layer spans account for.
struct LayerTable {
  std::array<uint64_t, kNumLayers> count{};
  std::array<uint64_t, kNumLayers> self_ns{};
  uint64_t requests = 0;
  uint64_t request_ns = 0;
  uint64_t covered_ns = 0;
  double min_request_coverage = 1.0;

  double Coverage() const;
  double MeanUs(int layer) const;
  std::string ToString() const;
};

LayerTable BuildLayerTable(const std::vector<std::vector<Span>>& clients);

// Trace Event JSON of every client's spans; args carry the request, the
// span's id and its parent's id.
std::string SpansToTraceJson(const std::vector<std::vector<Span>>& clients);

}  // namespace servebench

#endif  // SERVEBENCH_LEDGER_H_
