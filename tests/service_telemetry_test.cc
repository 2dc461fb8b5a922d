// Service-level request telemetry: trace_id propagation and echo, the
// `trace` wire op and its retention rule, budget-trip partial stats
// carrying histogram percentiles, span-buffer postmortems, and the
// slow-query event log — the end-to-end story docs/OBSERVABILITY.md
// promises.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/trace.h"
#include "service/query_service.h"

namespace ecrpq {
namespace {

using obs::ValidateTraceJson;

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A per-test scratch directory under the gtest temp root.
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ecrpq_svc_telemetry_" + name;
  ::mkdir(dir.c_str(), 0755);  // EEXIST is fine: tests clean their files.
  return dir;
}

void BuildChain(ServiceSession* session, int n) {
  session->HandleLine("{\"id\":\"setup-v\",\"op\":\"add_vertex\",\"count\":" +
                      std::to_string(n) + "}");
  for (int i = 0; i + 1 < n; ++i) {
    session->HandleLine(
        "{\"id\":\"setup-e" + std::to_string(i) + "\",\"op\":\"add_edge\","
        "\"from\":" + std::to_string(i) + ",\"symbol\":\"a\",\"to\":" +
        std::to_string(i + 1) + "}");
  }
}

TEST(ServiceTelemetryTest, ClientTraceIdEchoedOnEveryResponseLine) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  const std::vector<std::string> kOps = {
      "{\"id\":\"p\",\"op\":\"ping\",\"trace_id\":\"corr-1\"}",
      "{\"id\":\"v\",\"op\":\"add_vertex\",\"count\":2,"
      "\"trace_id\":\"corr-1\"}",
      "{\"id\":\"e\",\"op\":\"add_edge\",\"from\":0,\"symbol\":\"a\","
      "\"to\":1,\"trace_id\":\"corr-1\"}",
      "{\"id\":\"q\",\"op\":\"query\",\"query\":\"q(x) := x -[/a/]-> y\","
      "\"trace_id\":\"corr-1\"}",
      "{\"id\":\"s\",\"op\":\"stats\",\"trace_id\":\"corr-1\"}",
  };
  for (const std::string& line : kOps) {
    const std::string response = session->HandleLine(line);
    Result<json::Value> doc = json::Parse(response);
    ASSERT_TRUE(doc.ok()) << response;
    std::string status, echoed;
    ASSERT_TRUE(doc->GetString("status", &status)) << response;
    EXPECT_EQ(status, "ok") << line << " -> " << response;
    ASSERT_TRUE(doc->GetString("trace_id", &echoed)) << response;
    // Byte-identical echo, and early in the line (right after id/status)
    // so stream processors can route on it without a full parse.
    EXPECT_EQ(echoed, "corr-1");
    EXPECT_NE(response.find("\"trace_id\":\"corr-1\""), std::string::npos);
  }
}

TEST(ServiceTelemetryTest, AbsentTraceIdChangesNoResponseByte) {
  // The differential suite's byte-determinism contract: a server-generated
  // trace id is never echoed, so running with telemetry on/off or with no
  // client trace_id produces identical wire bytes.
  ServiceConfig with;
  ServiceConfig without;
  without.telemetry = false;
  QueryService service_with(with);
  QueryService service_without(without);
  auto s1 = service_with.OpenSession();
  auto s2 = service_without.OpenSession();
  const std::vector<std::string> kOps = {
      "{\"id\":\"p\",\"op\":\"ping\"}",
      "{\"id\":\"v\",\"op\":\"add_vertex\",\"count\":3}",
      "{\"id\":\"e\",\"op\":\"add_edge\",\"from\":0,\"symbol\":\"a\","
      "\"to\":1}",
      "{\"id\":\"q\",\"op\":\"query\",\"query\":\"q(x) := x -[/a*/]-> y\","
      "\"stats\":false}",
  };
  for (const std::string& line : kOps) {
    const std::string r1 = s1->HandleLine(line);
    const std::string r2 = s2->HandleLine(line);
    EXPECT_EQ(r1, r2) << line;
    EXPECT_EQ(r1.find("trace_id"), std::string::npos) << r1;
  }
}

TEST(ServiceTelemetryTest, TraceOpReturnsValidatingTraceJson) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  BuildChain(session.get(), 4);
  ASSERT_NE(session->HandleLine(
                "{\"id\":\"q1\",\"op\":\"query\",\"query\":"
                "\"q(x) := x -[/a*/]-> y\",\"trace_id\":\"t-req\"}")
                .find("\"status\":\"ok\""),
            std::string::npos);

  const std::string response = session->HandleLine(
      "{\"id\":\"t1\",\"op\":\"trace\",\"trace_id\":\"t-req\"}");
  Result<json::Value> doc = json::Parse(response);
  ASSERT_TRUE(doc.ok()) << response;
  std::string echoed;
  ASSERT_TRUE(doc->GetString("trace_id", &echoed)) << response;
  EXPECT_EQ(echoed, "t-req");

  // The trace is spliced in raw as the LAST response field; the extracted
  // object must validate under the exporter's own schema checker and carry
  // the linking traceId key.
  const size_t pos = response.find("\"trace\":");
  ASSERT_NE(pos, std::string::npos) << response;
  ASSERT_EQ(response.back(), '}');
  const std::string trace_json = response.substr(
      pos + std::string("\"trace\":").size(),
      response.size() - 1 - (pos + std::string("\"trace\":").size()));
  EXPECT_TRUE(ValidateTraceJson(trace_json, /*min_events=*/1).ok())
      << trace_json;
  Result<json::Value> trace_doc = json::Parse(trace_json);
  ASSERT_TRUE(trace_doc.ok());
  std::string trace_id;
  ASSERT_TRUE(trace_doc->GetString("traceId", &trace_id));
  EXPECT_EQ(trace_id, "t-req");
}

TEST(ServiceTelemetryTest, ServerGeneratedTraceRetrievableUnderAutoId) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  BuildChain(session.get(), 3);
  session->HandleLine(
      "{\"id\":\"r6\",\"op\":\"query\",\"query\":\"q(x) := x -[/a/]-> y\"}");
  // No client trace_id: the trace is retained under "auto:" + request id.
  const std::string response = session->HandleLine(
      "{\"id\":\"t\",\"op\":\"trace\",\"trace_id\":\"auto:r6\"}");
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"traceEvents\""), std::string::npos) << response;
}

TEST(ServiceTelemetryTest, RetainedTracesAreBoundedPerSession) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  BuildChain(session.get(), 3);
  const int total = static_cast<int>(ServiceSession::kMaxRetainedTraces) + 4;
  for (int i = 0; i < total; ++i) {
    session->HandleLine("{\"id\":\"q" + std::to_string(i) +
                        "\",\"op\":\"query\",\"query\":"
                        "\"q(x) := x -[/a/]-> y\"}");
  }
  // The oldest traces fell off the deque...
  EXPECT_NE(session
                ->HandleLine("{\"id\":\"t0\",\"op\":\"trace\","
                             "\"trace_id\":\"auto:q0\"}")
                .find("not_found"),
            std::string::npos);
  // ...the newest are still there.
  EXPECT_NE(session
                ->HandleLine("{\"id\":\"tN\",\"op\":\"trace\","
                             "\"trace_id\":\"auto:q" +
                             std::to_string(total - 1) + "\"}")
                .find("\"traceEvents\""),
            std::string::npos);
}

// Satellite pin: a budget-tripped query's partial_stats is a full
// StatsReport — histograms with count/sum/percentiles, not just counters.
// The admission queue-time histogram is recorded into the SESSION shard
// before evaluation starts, so it is present even when the trip happens
// in the first engine phase.
TEST(ServiceTelemetryTest, BudgetTripPartialStatsIncludesPercentiles) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  BuildChain(session.get(), 30);
  const std::string tripped = session->HandleLine(
      "{\"id\":\"tiny\",\"op\":\"query\",\"query\":\"q(x) := x -[/a*/]-> y\","
      "\"engine\":\"generic\",\"budget_states\":3,\"trace_id\":\"trip-1\"}");
  Result<json::Value> doc = json::Parse(tripped);
  ASSERT_TRUE(doc.ok()) << tripped;
  std::string code, echoed;
  ASSERT_TRUE(doc->GetString("code", &code)) << tripped;
  EXPECT_EQ(code, "resource_exhausted");
  ASSERT_TRUE(doc->GetString("trace_id", &echoed)) << tripped;
  EXPECT_EQ(echoed, "trip-1");

  const json::Value* stats = doc->Find("partial_stats");
  ASSERT_NE(stats, nullptr) << tripped;
  const json::Value* histograms = stats->Find("histograms");
  ASSERT_NE(histograms, nullptr) << tripped;
  ASSERT_TRUE(histograms->is_object()) << tripped;
  const json::Value* queue = histograms->Find("service_queue_ns");
  ASSERT_NE(queue, nullptr)
      << "queue-time histogram missing from partial_stats: " << tripped;
  for (const char* key : {"count", "sum", "p50", "p90", "p99"}) {
    double value = -1;
    EXPECT_TRUE(queue->GetNumber(key, &value)) << key << ": " << tripped;
  }
  uint64_t count = 0;
  ASSERT_TRUE(queue->GetUint64("count", &count));
  EXPECT_EQ(count, 1u) << "one admission wait for this request";
}

// Satellite pin: the postmortem written on a budget trip is a
// ValidateTraceJson-conformant trace file, engine spans included.
TEST(ServiceTelemetryTest, PostmortemDumpAfterBudgetTripValidates) {
  const std::string dir = ScratchDir("postmortem");
  // First session of this service => session id 1, first dump => seq 1.
  const std::string expected = dir + "/postmortem_s1_1.json";
  std::remove(expected.c_str());

  ServiceConfig config;
  config.postmortem_dir = dir;
  QueryService service(config);
  auto session = service.OpenSession();
  BuildChain(session.get(), 30);
  const std::string tripped = session->HandleLine(
      "{\"id\":\"tiny\",\"op\":\"query\",\"query\":\"q(x) := x -[/a*/]-> y\","
      "\"engine\":\"generic\",\"budget_states\":3,\"trace_id\":\"boom-7\"}");
  ASSERT_NE(tripped.find("resource_exhausted"), std::string::npos) << tripped;

  const std::string dumped = Slurp(expected);
  ASSERT_FALSE(dumped.empty()) << "no postmortem at " << expected;
  EXPECT_TRUE(ValidateTraceJson(dumped, /*min_events=*/1).ok()) << dumped;
  Result<json::Value> doc = json::Parse(dumped);
  ASSERT_TRUE(doc.ok());
  std::string trace_id;
  ASSERT_TRUE(doc->GetString("traceId", &trace_id)) << dumped;
  EXPECT_EQ(trace_id, "boom-7");
  EXPECT_NE(dumped.find("\"name\":\"budget_trip\""), std::string::npos)
      << dumped;
  EXPECT_NE(dumped.find("\"name\":\"EvaluateGeneric\""), std::string::npos)
      << dumped;
  std::remove(expected.c_str());
}

TEST(ServiceTelemetryTest, EventLogRecordCarriesVerdictAndCacheBreakdown) {
  const std::string path =
      ScratchDir("eventlog") + "/events.jsonl";
  std::remove(path.c_str());

  ServiceConfig config;
  config.event_log_path = path;
  config.slow_ms = 0;  // Log every query.
  QueryService service(config);
  ASSERT_NE(service.event_log(), nullptr);
  ASSERT_TRUE(service.event_log()->ok());
  auto session = service.OpenSession();
  BuildChain(session.get(), 4);
  const std::string ok = session->HandleLine(
      "{\"id\":\"q1\",\"op\":\"query\",\"query\":\"q(x) := x -[/a*/]-> y\","
      "\"trace_id\":\"logme-1\"}");
  ASSERT_NE(ok.find("\"status\":\"ok\""), std::string::npos) << ok;
  EXPECT_GE(service.event_log()->lines_written(), 1u);

  // Find this request's record and check the analysis payload.
  std::ifstream in(path);
  std::string line, record;
  while (std::getline(in, line)) {
    if (line.find("\"trace_id\":\"logme-1\"") != std::string::npos) {
      record = line;
    }
  }
  ASSERT_FALSE(record.empty()) << "no record for logme-1 in " << path;
  Result<json::Value> doc = json::Parse(record);
  ASSERT_TRUE(doc.ok()) << record;
  std::string event, request_id, hash, status;
  ASSERT_TRUE(doc->GetString("event", &event));
  EXPECT_EQ(event, "query");
  ASSERT_TRUE(doc->GetString("request_id", &request_id));
  EXPECT_EQ(request_id, "q1");
  ASSERT_TRUE(doc->GetString("query_key_hash", &hash)) << record;
  EXPECT_EQ(hash.size(), 16u) << "64-bit hex hash: " << hash;
  ASSERT_TRUE(doc->GetString("status", &status));
  EXPECT_EQ(status, "ok");
  // Planner verdict: the regime attribution for this exact request.
  const json::Value* verdict = doc->Find("verdict");
  ASSERT_NE(verdict, nullptr) << record;
  ASSERT_TRUE(verdict->is_object()) << record;
  double cc_vertex = -1;
  EXPECT_TRUE(verdict->GetNumber("cc_vertex", &cc_vertex)) << record;
  // Cache breakdown and budget outcome.
  const json::Value* cache = doc->Find("cache");
  ASSERT_NE(cache, nullptr) << record;
  for (const char* key : {"hits", "misses", "evictions"}) {
    uint64_t v = 0;
    EXPECT_TRUE(cache->GetUint64(key, &v)) << key << ": " << record;
  }
  const json::Value* budget = doc->Find("budget");
  ASSERT_NE(budget, nullptr) << record;
  std::string outcome;
  ASSERT_TRUE(budget->GetString("outcome", &outcome));
  EXPECT_EQ(outcome, "unlimited");
  // Phase-profile summary and timing.
  const json::Value* phases = doc->Find("phases");
  ASSERT_NE(phases, nullptr) << record;
  EXPECT_TRUE(phases->is_array()) << record;
  double latency_ms = -1, queue_ms = -1;
  EXPECT_TRUE(doc->GetNumber("latency_ms", &latency_ms));
  EXPECT_GE(latency_ms, 0);
  EXPECT_TRUE(doc->GetNumber("queue_ms", &queue_ms));
  std::remove(path.c_str());
}

TEST(ServiceTelemetryTest, FastQueriesStayOutOfTheSlowLog) {
  const std::string path = ScratchDir("slowlog") + "/slow.jsonl";
  std::remove(path.c_str());

  ServiceConfig config;
  config.event_log_path = path;
  config.slow_ms = 60000;  // Nothing here takes a minute...
  QueryService service(config);
  auto session = service.OpenSession();
  BuildChain(session.get(), 4);
  session->HandleLine(
      "{\"id\":\"fast\",\"op\":\"query\",\"query\":\"q(x) := x -[/a/]-> y\"}");
  EXPECT_EQ(service.event_log()->lines_written(), 0u);

  // ...but errors always land in the log, however fast.
  session->HandleLine("{\"id\":\"bad\",\"op\":\"query\",\"query\":\"q() := \","
                      "\"trace_id\":\"err-1\"}");
  EXPECT_GE(service.event_log()->lines_written(), 1u);
  const std::string content = Slurp(path);
  EXPECT_NE(content.find("\"trace_id\":\"err-1\""), std::string::npos)
      << content;
  std::remove(path.c_str());
}

TEST(ServiceTelemetryTest, ProtocolErrorsLandInTheEventLog) {
  const std::string path = ScratchDir("protoerr") + "/events.jsonl";
  std::remove(path.c_str());

  ServiceConfig config;
  config.event_log_path = path;
  QueryService service(config);
  auto session = service.OpenSession();
  session->HandleLine("this is not json");
  EXPECT_GE(service.event_log()->lines_written(), 1u);
  const std::string content = Slurp(path);
  EXPECT_NE(content.find("\"event\":\"protocol_error\""), std::string::npos)
      << content;
  std::remove(path.c_str());
}

TEST(ServiceTelemetryTest, SessionBufferAccumulatesPerRequestEvents) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  BuildChain(session.get(), 3);
  const uint64_t before = session->trace()->NumRecorded();
  session->HandleLine(
      "{\"id\":\"q\",\"op\":\"query\",\"query\":\"q(x) := x -[/a/]-> y\"}");
  // The query's engine spans and its request-level events share the one
  // buffer.
  const std::vector<obs::Trace::Event> events =
      session->trace()->Events(before);
  std::vector<std::string> names;
  for (const obs::Trace::Event& e : events) names.push_back(e.name);
  for (const char* want : {"service_request", "query"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  }
  EXPECT_GT(events.size(), 3u) << "engine spans missing";
  EXPECT_TRUE(ValidateTraceJson(session->trace()->ToJson()).ok());

  // Telemetry off: no buffer at all.
  ServiceConfig off;
  off.telemetry = false;
  QueryService quiet(off);
  EXPECT_EQ(quiet.OpenSession()->trace(), nullptr);
}

TEST(ServiceTelemetryTest, OverwrittenTraceRangeIsNotFound) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  BuildChain(session.get(), 3);
  const std::string query =
      "\"op\":\"query\",\"query\":\"q(x) := x -[/a/]-> y\"";
  session->HandleLine("{\"id\":\"old\"," + query + "}");
  auto fetch_old = [&](const std::string& id) {
    return session->HandleLine(
        "{\"id\":\"" + id + "\",\"op\":\"trace\",\"trace_id\":\"auto:old\"}");
  };
  ASSERT_NE(fetch_old("t1").find("\"traceEvents\""), std::string::npos);
  // Each ping records one request-level event; enough of them overwrite
  // every event of "old" while it is still among the retained traces.
  for (size_t i = 0; i < obs::Trace::kCapacity; ++i) {
    session->HandleLine("{\"id\":\"p" + std::to_string(i) +
                        "\",\"op\":\"ping\"}");
  }
  EXPECT_NE(fetch_old("t2").find("\"code\":\"not_found\""),
            std::string::npos);
  session->HandleLine("{\"id\":\"new\"," + query + "}");
  const std::string fresh = session->HandleLine(
      "{\"id\":\"t-new\",\"op\":\"trace\",\"trace_id\":\"auto:new\"}");
  EXPECT_NE(fresh.find("\"status\":\"ok\""), std::string::npos) << fresh;
  EXPECT_NE(fresh.find("\"name\":\"query\""), std::string::npos) << fresh;
}

}  // namespace
}  // namespace ecrpq
