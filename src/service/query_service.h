// QueryService: the long-lived server process around the evaluation
// library — many concurrent sessions, one shared graph registry, one
// global admission controller, and the process-wide cross-query caches
// (plan cache, automaton interner, reach memo) doing the amortizing.
//
// Shape:
//  - the SERVICE owns the graphs (a named registry; "default" is installed
//    at construction), the service-level obs::Metrics, the
//    AdmissionController, and the request-telemetry sinks (the
//    TelemetryRegistry behind the `stats` exposition, the JSON-lines event
//    log, and the postmortem configuration);
//  - a SESSION is one client: it executes its requests strictly in order
//    and produces exactly one response line per request line, so a
//    client's response stream is a pure function of its request stream
//    and the graphs it touches. Sessions are cheap; open one per
//    connection / per batch run;
//  - EVALUATIONS fan out on the process-shared worker pool
//    (ThreadPool::Shared via EvalOptions::num_threads = pool_threads),
//    so concurrent queries share workers instead of spawning threads.
//
// Telemetry (ServiceConfig::telemetry, default on): each session owns one
// bounded span buffer (obs::Trace, common/trace.h). Every query runs under
// an obs::Session that records its engine spans into that buffer under a
// request-scoped trace id — client-supplied via the wire "trace_id" field,
// else the deterministic "auto:" + request id — and the request-level
// events (service_request, query, protocol_error, admission_reject,
// budget_trip) land there too, mirrored into the process-wide buffer the
// fatal-signal dump drains. Nothing is rendered per query: the session
// keeps the claim range of its newest traces, and JSON is built only when
// read — by the `trace` op, by a postmortem dump (budget trips, admission
// rejections, protocol errors) or by the fatal-signal dump. The event-log
// record, when a log is configured and the query qualifies, is the only
// per-query rendering. A client-supplied trace_id is echoed on every
// response line; an absent one changes no response byte, which is what
// keeps the differential suite's byte-determinism contract intact.
//
// Concurrency contract per graph: a readers/writer discipline. Queries
// hold a shared (read) claim and may run concurrently; mutation ops
// (create/add_vertex/add_edge) hold the graph exclusively, and re-run
// Finalize() before publishing — so the lazy (non-thread-safe) CSR build
// never races between concurrent readers, and every mutation bumps the
// graph epoch that keys the reach memo. Two sessions writing the SAME
// graph serialize in lock-acquisition order (nondeterministic, like any
// database under concurrent writers); sessions that touch disjoint graphs
// have fully deterministic response streams — the property the service
// differential suite pins against a sequential oracle.
//
// Admission: every query charges the controller its per-query budget caps
// (request override, else the service default) before evaluation; the
// RAII ticket returns the reservation on every exit path exactly once.
// Rejection surfaces on the wire as status=error / code=resource_exhausted
// — the same shape a tripped per-query budget produces, with the partial
// stats attached.
#ifndef ECRPQ_SERVICE_QUERY_SERVICE_H_
#define ECRPQ_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/annotations.h"
#include "common/event_log.h"
#include "common/metrics.h"
#include "common/obs.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "graphdb/graph_db.h"
#include "service/admission.h"
#include "service/protocol.h"

namespace ecrpq {

class ServiceSession;

struct ServiceConfig {
  // Worker threads per evaluation (EvalOptions::num_threads semantics:
  // 0 = ECRPQ_THREADS / hardware default, 1 = sequential).
  int pool_threads = 0;
  AdmissionLimits admission;
  // Per-query budget axes applied when a request leaves them 0. All-zero
  // means queries run unlimited unless the request says otherwise.
  obs::EvalBudget default_budget;
  // Service-wide cache bypass (each request can also opt out on its own).
  bool disable_cache = false;
  // Requests longer than this are answered with a structured error and
  // never parsed.
  size_t max_line_bytes = 1 << 20;

  // Request telemetry (see the header comment). Off = no span buffer, no
  // per-query tracing, no trace retention, no event log, no postmortems —
  // the configuration the telemetry-overhead bench compares against.
  bool telemetry = true;
  // JSON-lines event log path; empty disables the log.
  std::string event_log_path;
  // Queries faster than this stay out of the event log (0 = log every
  // query). Errors and budget trips are always logged.
  int64_t slow_ms = 0;
  // Directory for postmortem dumps of a session's span buffer; empty
  // disables them.
  std::string postmortem_dir;
};

class QueryService {
 public:
  // Installs an empty "default" graph over alphabet {a, b}.
  explicit QueryService(const ServiceConfig& config);
  // Installs `base_graph` as "default".
  QueryService(const ServiceConfig& config, GraphDb base_graph);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Sessions borrow the service; the service must outlive them.
  std::unique_ptr<ServiceSession> OpenSession();

  const ServiceConfig& config() const { return config_; }
  AdmissionCounters admission_counters() const {
    return admission_.counters();
  }
  // Service-level metrics fold: service_* admission counters plus the
  // service_request_ns latency histogram every session records into.
  obs::StatsReport Report() const { return metrics_.Aggregate(); }

  // Point-in-time Prometheus-style exposition: the service StatsReport
  // plus the admission gauge group (one locked counters() call, so the
  // drain identities hold in every snapshot) and the process-wide cache
  // gauges. Served by the `stats` op with format=prometheus and polled by
  // `ecrpq_cli top`.
  std::string RenderTelemetry() const {
    return telemetry_registry_.Render(Report());
  }

  // The configured event log, or nullptr. A configured-but-unopenable log
  // reports !ok() here; `serve` refuses to start on it.
  const obs::EventLog* event_log() const { return event_log_.get(); }

  // One registered graph plus its readers/writer state. Implementation
  // detail, public only for the file-local claim helpers in
  // query_service.cc. Entries are created under registry_mutex_ and never
  // destroyed before the service (std::map nodes => stable addresses), so
  // sessions hold plain pointers.
  struct GraphEntry {
    explicit GraphEntry(GraphDb graph) : db(std::move(graph)) {}
    Mutex mu;
    CondVar cv;
    int active_readers ECRPQ_GUARDED_BY(mu) = 0;
    bool writer ECRPQ_GUARDED_BY(mu) = false;
    // Governed by the readers/writer discipline above, not by `mu` (which
    // only guards the claim counts): readers access db concurrently
    // without holding mu, writers hold the exclusive claim. Every writer
    // calls db.Finalize() before releasing, so readers never trigger the
    // lazy CSR build.
    GraphDb db;
  };

 private:
  friend class ServiceSession;

  void RegisterTelemetryGroups();

  GraphEntry* FindGraph(const std::string& name)
      ECRPQ_EXCLUDES(registry_mutex_);
  // Nullptr when the name is already taken.
  GraphEntry* InstallGraph(const std::string& name, GraphDb db)
      ECRPQ_EXCLUDES(registry_mutex_);

  const ServiceConfig config_;
  mutable obs::Metrics metrics_;
  AdmissionController admission_;
  obs::TelemetryRegistry telemetry_registry_;
  std::unique_ptr<obs::EventLog> event_log_;
  std::atomic<uint64_t> next_session_id_{0};
  mutable Mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<GraphEntry>> graphs_
      ECRPQ_GUARDED_BY(registry_mutex_);
};

// One client's strictly-ordered request/response channel. Not thread-safe:
// one session serves one connection (or one batch file); concurrency comes
// from opening many sessions.
class ServiceSession {
 public:
  // Traces retained for the `trace` op per session; oldest evicted first.
  // A retained trace whose events the span buffer has since overwritten
  // is gone as well.
  static constexpr size_t kMaxRetainedTraces = 16;

  ServiceSession(const ServiceSession&) = delete;
  ServiceSession& operator=(const ServiceSession&) = delete;

  // Executes one request line and returns exactly one response line (no
  // trailing newline). Never throws, never crashes, never blocks beyond
  // the admission queue deadline and the query's own evaluation: every
  // malformed input maps to a status=error response.
  std::string HandleLine(std::string_view line);

  // True once this session has processed a shutdown request; the server
  // drivers stop their loops on it.
  bool shutdown_requested() const { return shutdown_; }

  // This session's span buffer (test and bench hook); null with telemetry
  // off.
  const obs::Trace* trace() const { return trace_.get(); }

 private:
  friend class QueryService;
  explicit ServiceSession(QueryService* service);

  // Status-or-response-line core; HandleLine converts errors to wire form.
  Result<std::string> Execute(const ServiceRequest& req);
  Result<std::string> ExecuteQuery(const ServiceRequest& req);
  Result<std::string> ExecuteCreateGraph(const ServiceRequest& req);
  Result<std::string> ExecuteMutation(const ServiceRequest& req);
  Result<std::string> ExecuteStats(const ServiceRequest& req);
  Result<std::string> ExecuteTrace(const ServiceRequest& req);

  // Telemetry plumbing; callers check that trace_ is set.
  struct RetainedTrace {
    std::string trace_id;
    uint64_t begin = 0;  // Claim range of the request's events in trace_.
    uint64_t end = 0;
  };
  void RetainTrace(const std::string& trace_id, uint64_t begin, uint64_t end);
  const RetainedTrace* FindRetainedTrace(const std::string& trace_id) const;
  // Records a request-level event from `start_ns` until now, with the
  // request sequence number as its arg, here and in obs::Trace::Process().
  void RecordRequestEvent(const char* name, uint64_t start_ns);
  // Dumps the span buffer to config.postmortem_dir (no-op when the dir is
  // empty), under `trace_id`.
  void MaybeDumpPostmortem(const std::string& trace_id);

  QueryService* service_;
  obs::MetricsShard* shard_;  // Owned by the service's Metrics registry.
  std::unordered_set<std::string> seen_ids_;
  bool shutdown_ = false;
  uint64_t session_id_ = 0;
  uint64_t request_seq_ = 0;
  uint64_t postmortem_seq_ = 0;
  // Engine spans and request-level events of every request, when
  // telemetry is on.
  std::unique_ptr<obs::Trace> trace_;
  // Insertion order; linear scan is fine at kMaxRetainedTraces entries.
  std::deque<RetainedTrace> recent_traces_;
};

}  // namespace ecrpq

#endif  // ECRPQ_SERVICE_QUERY_SERVICE_H_
