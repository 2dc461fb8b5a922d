#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/hash.h"
#include "common/obs.h"
#include "eval/planner.h"
#include "query/parser.h"
#include "query/simplify.h"

namespace servebench {
namespace {

using ecrpq::obs::CounterId;
using ecrpq::obs::HistogramId;

// The service's answer rendering (query_service.cc), byte for byte: the
// traced responses must equal the HandleLine responses.
std::string AnswersJson(
    const std::vector<std::vector<ecrpq::VertexId>>& answers) {
  std::string out = "[";
  for (size_t i = 0; i < answers.size(); ++i) {
    if (i > 0) out += ",";
    out += "[";
    for (size_t j = 0; j < answers[i].size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(answers[i][j]);
    }
    out += "]";
  }
  out += "]";
  return out;
}

}  // namespace

const char* LayerName(int layer) {
  static const char* const kNames[kNumLayers] = {
      "service.parse",  "service.admit", "query.parse",
      "query.key",      "eval.classify", "eval.evaluate",
      "service.render", "common.telemetry", "graphdb.mutate"};
  return layer < 0 ? "request" : kNames[layer];
}

void LedgerCounters::Merge(const LedgerCounters& o) {
  queries += o.queries;
  writes += o.writes;
  errors += o.errors;
  plan_hits += o.plan_hits;
  plan_misses += o.plan_misses;
  classify_miss_ns += o.classify_miss_ns;
  response_bytes += o.response_bytes;
  for (size_t i = 0; i < routes.size(); ++i) routes[i] += o.routes[i];
  product_states += o.product_states;
  bfs_runs += o.bfs_runs;
  tuples_materialized += o.tuples_materialized;
  steals += o.steals;
  reduce_ns += o.reduce_ns;
  bag_ns += o.bag_ns;
}

uint64_t LedgerClient::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

int64_t LedgerClient::Begin(int layer, uint64_t request, int64_t parent) {
  spans_.push_back(Span{layer, tid_, request, parent, NowNs(), 0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void LedgerClient::End(int64_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

std::string LedgerClient::Handle(const std::string& line, uint64_t request) {
  const int64_t root = Begin(-1, request, -1);
  std::string response = Execute(line, request, root);
  End(root);
  return response;
}

std::string LedgerClient::Execute(const std::string& line, uint64_t request,
                                  int64_t root) {
  int64_t span = Begin(kServiceParse, request, root);
  ecrpq::Result<ecrpq::ServiceRequest> req = ecrpq::ParseRequestLine(line);
  End(span);
  if (!req.ok()) {
    ++counters_.errors;
    return ecrpq::ErrorResponseLine(nullptr, req.status().code(),
                                    req.status().message());
  }
  auto graph = env_->graphs.find(req->graph);
  if (graph == env_->graphs.end()) {
    ++counters_.errors;
    return ecrpq::ErrorResponseLine(
        &req->id, ecrpq::StatusCode::kNotFound,
        "no graph named '" + req->graph + "'");
  }
  ecrpq::GraphDb& db = *graph->second;
  if (req->op == ecrpq::RequestOp::kQuery) {
    return ExecuteQuery(*req, db, request, root);
  }
  ++counters_.writes;
  span = Begin(kGraphdbMutate, request, root);
  db.AddEdge(req->from, std::string_view(req->symbol), req->to);
  db.Finalize();
  End(span);
  span = Begin(kServiceRender, request, root);
  ecrpq::ResponseBuilder b(req->id);
  b.AddUint("vertices", static_cast<uint64_t>(db.NumVertices()));
  b.AddUint("edges", static_cast<uint64_t>(db.NumEdges()));
  std::string response = b.Finish();
  End(span);
  return response;
}

std::string LedgerClient::ExecuteQuery(const ecrpq::ServiceRequest& req,
                                       const ecrpq::GraphDb& db,
                                       uint64_t request, int64_t root) {
  ++counters_.queries;
  int64_t span = Begin(kServiceAdmit, request, root);
  ecrpq::Result<ecrpq::AdmissionTicket> admitted =
      env_->admission.Admit(ecrpq::AdmissionCharge{});
  End(span);
  if (!admitted.ok()) {
    ++counters_.errors;
    return ecrpq::ErrorResponseLine(&req.id, admitted.status().code(),
                                    admitted.status().message());
  }
  ecrpq::AdmissionTicket ticket = std::move(admitted).ValueOrDie();

  // Telemetry on, as the service runs by default: a traced session with
  // the service's "auto:" trace id.
  const std::string trace_id = "auto:" + req.id;
  ecrpq::obs::Session session;
  session.EnableTrace();
  session.SetTraceId(trace_id);

  span = Begin(kQueryParse, request, root);
  ecrpq::Result<ecrpq::EcrpqQuery> query =
      ecrpq::ParseEcrpq(req.query, db.alphabet());
  End(span);
  if (!query.ok()) {
    ++counters_.errors;
    return ecrpq::ErrorResponseLine(&req.id, query.status().code(),
                                    query.status().message());
  }

  span = Begin(kQueryKey, request, root);
  const uint64_t key_hash =
      ecrpq::HashBytes(ecrpq::CanonicalQueryKey(*query));
  End(span);
  (void)key_hash;

  span = Begin(kEvalClassify, request, root);
  const uint64_t misses_before = classify_shard_->Load(CounterId::kCacheMisses);
  ecrpq::ClassifyQueryCached(*query, {}, classify_shard_);
  End(span);
  if (classify_shard_->Load(CounterId::kCacheMisses) != misses_before) {
    ++counters_.plan_misses;
    const Span& s = spans_[static_cast<size_t>(span)];
    counters_.classify_miss_ns += s.end_ns - s.start_ns;
  } else {
    ++counters_.plan_hits;
  }

  span = Begin(kEvalEvaluate, request, root);
  ecrpq::EvalOptions options;
  options.num_threads = env_->pool_threads;
  options.obs = &session;
  ecrpq::QueryClassification classification;
  ecrpq::Result<ecrpq::EvalResult> result = ecrpq::Status::Internal("unset");
  {
    ecrpq::obs::Span request_span(session.trace(), "service_request");
    result = ecrpq::EvaluatePlanned(db, *query, options, {}, &classification);
  }
  End(span);
  if (!result.ok()) {
    ++counters_.errors;
    return ecrpq::ErrorResponseLine(&req.id, result.status().code(),
                                    result.status().message());
  }
  ++counters_.routes[static_cast<size_t>(classification.engine)];

  span = Begin(kServiceRender, request, root);
  ecrpq::ResponseBuilder b(req.id);
  b.AddBool("satisfiable", result->satisfiable);
  b.AddUint("num_answers", result->answers.size());
  b.AddRaw("answers", AnswersJson(result->answers));
  b.AddString("engine", ecrpq::EngineChoiceName(classification.engine));
  std::string response = b.Finish();
  End(span);
  counters_.response_bytes += response.size();

  span = Begin(kServiceAdmit, request, root);
  ticket.Release();
  End(span);

  span = Begin(kCommonTelemetry, request, root);
  const ecrpq::obs::PhaseProfile profile = session.PhaseProfile();
  const ecrpq::obs::StatsReport report = session.Report();
  const std::string trace_json = session.trace()->ToJson(trace_id);
  End(span);
  (void)profile;
  (void)trace_json;

  counters_.product_states += report[CounterId::kProductStatesExpanded];
  counters_.bfs_runs += report[CounterId::kRpqBfsRuns];
  counters_.tuples_materialized += report[CounterId::kTuplesMaterialized];
  counters_.steals += report[CounterId::kStealsSucceeded];
  counters_.reduce_ns += report.hist(HistogramId::kPhaseReduceNs).sum;
  counters_.bag_ns += report.hist(HistogramId::kPhaseBagMaterializeNs).sum;
  return response;
}

double LayerTable::Coverage() const {
  return request_ns == 0 ? 0.0
                         : static_cast<double>(covered_ns) /
                               static_cast<double>(request_ns);
}

double LayerTable::MeanUs(int layer) const {
  return count[layer] == 0 ? 0.0
                           : static_cast<double>(self_ns[layer]) / 1e3 /
                                 static_cast<double>(count[layer]);
}

std::string LayerTable::ToString() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-18s %9s %12s %10s %7s\n", "layer",
                "calls", "self_ms", "mean_us", "share");
  out += line;
  auto row = [&](const char* name, uint64_t calls, uint64_t ns) {
    const double share =
        request_ns == 0 ? 0.0
                        : 100.0 * static_cast<double>(ns) /
                              static_cast<double>(request_ns);
    std::snprintf(line, sizeof(line), "%-18s %9llu %12.3f %10.2f %6.2f%%\n",
                  name, static_cast<unsigned long long>(calls),
                  static_cast<double>(ns) / 1e6,
                  calls == 0 ? 0.0
                             : static_cast<double>(ns) / 1e3 /
                                   static_cast<double>(calls),
                  share);
    out += line;
  };
  for (int layer = 0; layer < kNumLayers; ++layer) {
    row(LayerName(layer), count[layer], self_ns[layer]);
  }
  row("(uncovered)", requests, request_ns - covered_ns);
  std::snprintf(line, sizeof(line),
                "layer coverage of request time: %.2f%% overall, %.2f%% "
                "worst request, %llu requests\n",
                100.0 * Coverage(), 100.0 * min_request_coverage,
                static_cast<unsigned long long>(requests));
  out += line;
  return out;
}

LayerTable BuildLayerTable(const std::vector<std::vector<Span>>& clients) {
  LayerTable table;
  for (const std::vector<Span>& spans : clients) {
    // Layer spans never nest inside each other, so a layer's self time is
    // its duration; the request span's self time is what no layer covers.
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.layer < 0) continue;
      const uint64_t dur = s.end_ns - s.start_ns;
      ++table.count[s.layer];
      table.self_ns[s.layer] += dur;
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += dur;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].layer >= 0) continue;
      const uint64_t dur = spans[i].end_ns - spans[i].start_ns;
      ++table.requests;
      table.request_ns += dur;
      table.covered_ns += child_ns[i];
      if (dur > 0) {
        table.min_request_coverage =
            std::min(table.min_request_coverage,
                     static_cast<double>(child_ns[i]) /
                         static_cast<double>(dur));
      }
    }
  }
  return table;
}

std::string SpansToTraceJson(const std::vector<std::vector<Span>>& clients) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  int64_t base = 0;
  char buf[320];
  for (const std::vector<Span>& spans : clients) {
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const long long id = static_cast<long long>(base) +
                           static_cast<long long>(i);
      const long long parent =
          s.parent < 0 ? -1 : static_cast<long long>(base + s.parent);
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
          "\"pid\":1,\"tid\":%d,\"args\":{\"request\":%llu,\"span\":%lld,"
          "\"parent\":%lld}}",
          first ? "" : ",", LayerName(s.layer),
          static_cast<double>(s.start_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
          static_cast<unsigned long long>(s.request), id, parent);
      out += buf;
      first = false;
    }
    base += static_cast<int64_t>(spans.size());
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace servebench
