// X7 (supplementary) — the price of request telemetry on the warm serving
// path: the same primed single-client script as x6's warm-1 regime, run
// against three service configurations that differ only in their
// telemetry knobs.
//
//   warm/off      ServiceConfig::telemetry = false: no span buffer, no
//                 per-query tracing, no trace retention. The baseline a
//                 telemetry-free build of the serving loop would see.
//   warm/on       the default configuration: per-query obs::Session
//                 tracing into the session's span buffer with
//                 server-generated "auto:" trace ids, request-level
//                 events, claim-range retention for the `trace` op —
//                 and no rendering, since nothing here reads a trace.
//                 tools/ci.sh gates warm/on at <= 5% per-query overhead
//                 over warm/off (ECRPQ_SKIP_PERF_GATE=1 skips).
//   warm/on+log   warm/on plus a JSON-lines event log with slow_ms=0, so
//                 every query renders and appends an event record — the
//                 worst-case logging configuration. Informational only:
//                 the render+write cost depends on the sink, not on the
//                 serving loop this bench guards.
//
// The telemetry_-prefixed counters are informational-only under
// tools/bench_compare (like service_): they describe the run, they are
// not a regression signal.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/dcheck.h"
#include "common/event_log.h"
#include "common/rng.h"
#include "eval/planner.h"
#include "graphdb/graph_db.h"
#include "service/query_service.h"

namespace ecrpq {
namespace {

GraphDb BenchGraph() {
  // x6's graph: symbol-skewed (a-heavy, b-rare) so the (a|b)* sweeps do
  // real work cold while the warm per-request join stays cheap — which is
  // exactly where a fixed per-request telemetry cost would show up.
  constexpr int kVertices = 256;
  Rng rng(71);
  GraphDb db(Alphabet::OfChars("ab"));
  db.AddVertices(kVertices);
  for (VertexId v = 0; v < kVertices; ++v) {
    const uint64_t a_degree = 2 + rng.Below(2);
    for (uint64_t e = 0; e < a_degree; ++e) {
      db.AddEdge(v, static_cast<Symbol>(0),
                 static_cast<VertexId>(rng.Below(kVertices)));
    }
    if (rng.Below(2) == 0) {
      db.AddEdge(v, static_cast<Symbol>(1),
                 static_cast<VertexId>(rng.Below(kVertices)));
    }
  }
  return db;
}

// x6's eight distinct read-only queries. No client trace_id on the wire:
// the gated pair measures the default path, where an absent trace_id
// changes no response byte and the server mints "auto:" ids internally.
std::vector<std::string> ClientScript() {
  const std::vector<std::string> kQueries = {
      "q() := x -[/(a|b)*bbbbbbbb/]-> y",
      "q() := x -[/(a|b)*bbbbbbba/]-> y",
      "q() := x -[/(a|b)*abbbbbbb/]-> y",
      "q() := x -[/(a|b)*bbbabbbb/]-> y",
      "q() := x -[/a(a|b)*bbbbbbb/]-> y",
      "q() := x -[/b(a|b)*bbbbbbb/]-> y",
      "q() := x -[/(a|b)*bbbbbbab/]-> y",
      "q() := x -[/(a|b)*babbbbbb/]-> y",
  };
  std::vector<std::string> script;
  int next_id = 0;
  for (const std::string& q : kQueries) {
    script.push_back("{\"id\":\"q" + std::to_string(next_id++) +
                     "\",\"op\":\"query\",\"query\":\"" + q + "\"}");
  }
  return script;
}

ServiceConfig BenchConfig(bool telemetry) {
  ServiceConfig config;
  config.pool_threads = 1;
  config.admission.max_concurrent = 8;
  config.admission.policy = OverflowPolicy::kQueue;
  config.admission.queue_deadline_millis = 10'000;
  config.telemetry = telemetry;
  return config;
}

void RunScript(ServiceSession* session,
               const std::vector<std::string>& script) {
  for (const std::string& line : script) {
    std::string response = session->HandleLine(line);
    benchmark::DoNotOptimize(response);
  }
}

// One checked pass (doubles as the cache primer): the script must answer
// status:"ok" end to end, or the regimes compare error paths.
void CheckScript(QueryService& service,
                 const std::vector<std::string>& script) {
  auto session = service.OpenSession();
  for (const std::string& line : script) {
    const std::string response = session->HandleLine(line);
    ECRPQ_CHECK(response.find("\"status\":\"ok\"") != std::string::npos);
  }
}

// Shared warm-path body: a long-lived primed service, one fresh session
// per iteration running the fixed script.
void WarmLoop(benchmark::State& state, QueryService& service,
              const std::vector<std::string>& script) {
  CheckScript(service, script);
  for (auto _ : state) {
    auto session = service.OpenSession();
    RunScript(session.get(), script);
  }
  state.counters["queries_per_iter"] = static_cast<double>(script.size());
}

void BM_ServiceWarmTelemetryOff(benchmark::State& state) {
  const std::vector<std::string> script = ClientScript();
  ClearGlobalCaches();
  QueryService service(BenchConfig(/*telemetry=*/false), BenchGraph());
  WarmLoop(state, service, script);
  state.counters["telemetry_on"] = 0;
}
BENCHMARK(BM_ServiceWarmTelemetryOff)->Unit(benchmark::kMillisecond);

void BM_ServiceWarmTelemetryOn(benchmark::State& state) {
  const std::vector<std::string> script = ClientScript();
  ClearGlobalCaches();
  QueryService service(BenchConfig(/*telemetry=*/true), BenchGraph());
  WarmLoop(state, service, script);
  state.counters["telemetry_on"] = 1;
  // What one scripted session records into its span buffer — engine
  // spans plus request-level events, the per-request event volume the
  // overhead pays for. Informational.
  auto session = service.OpenSession();
  RunScript(session.get(), script);
  state.counters["telemetry_flight_events_per_script"] =
      static_cast<double>(session->trace()->NumRecorded());
}
BENCHMARK(BM_ServiceWarmTelemetryOn)->Unit(benchmark::kMillisecond);

void BM_ServiceWarmTelemetryOnEventLog(benchmark::State& state) {
  const std::vector<std::string> script = ClientScript();
  ClearGlobalCaches();
  ServiceConfig config = BenchConfig(/*telemetry=*/true);
  // slow_ms=0 logs every query; /dev/null isolates the render+append cost
  // from filesystem throughput.
  config.event_log_path = "/dev/null";
  config.slow_ms = 0;
  QueryService service(config, BenchGraph());
  ECRPQ_CHECK(service.event_log() != nullptr && service.event_log()->ok());
  WarmLoop(state, service, script);
  state.counters["telemetry_on"] = 1;
  state.counters["telemetry_event_lines"] =
      static_cast<double>(service.event_log()->lines_written());
}
BENCHMARK(BM_ServiceWarmTelemetryOnEventLog)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecrpq
