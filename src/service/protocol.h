// The query service's wire protocol: line-delimited JSON, one request
// object in, one response object out, in request order.
//
// Request (one JSON object per line; `id` and `op` always required):
//   {"id":"r1","op":"query","query":"q(x) := x -[/a*/]-> y",
//    "graph":"g","engine":"auto","max_answers":10,
//    "budget_states":1000,"budget_mem":1048576,"budget_ms":50,
//    "no_cache":true,"stats":true}
//   {"id":"r2","op":"create_graph","graph":"g","alphabet":"ab"}
//   {"id":"r3","op":"create_graph","graph":"g","text":"alphabet a b\n..."}
//   {"id":"r4","op":"add_vertex","graph":"g","count":5}
//   {"id":"r5","op":"add_edge","graph":"g","from":0,"symbol":"a","to":1}
//   {"id":"r6","op":"ping"}   {"id":"r7","op":"stats"}
//   {"id":"r7b","op":"stats","format":"prometheus"}
//   {"id":"r7c","op":"trace","trace_id":"t1"}
//   {"id":"r8","op":"shutdown"}
// Every op additionally accepts an optional "trace_id" string (<= 128
// visible-ASCII bytes), echoed on the response line; see ServiceRequest.
//
// Response:
//   {"id":"r1","status":"ok", ...op-specific fields...}
//   {"id":"r1","status":"error","code":"<wire code>","message":"..."}
// An unparseable line (bad JSON, no usable id) answers with "id":null; the
// connection survives — a structured error response, never a crash, a
// hang, or a dropped line.
//
// The protocol is STRICT: unknown fields, duplicate fields, wrong types,
// oversized lines (> max_line_bytes) and ids reused within a session are
// all errors. Strictness is what makes the robustness suite meaningful —
// silently-ignored garbage is how protocol drift hides.
#ifndef ECRPQ_SERVICE_PROTOCOL_H_
#define ECRPQ_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/obs.h"
#include "common/result.h"
#include "common/status.h"

namespace ecrpq {

enum class RequestOp {
  kQuery,
  kCreateGraph,
  kAddEdge,
  kAddVertex,
  kPing,
  kStats,
  kTrace,
  kShutdown,
};

// Upper bound on a client-supplied trace_id; longer ids are a protocol
// error ("oversized trace_id"), because the id is echoed on every response
// line and retained server-side — an unbounded id is an amplification
// vector.
inline constexpr size_t kMaxTraceIdBytes = 128;

// 1 to kMaxTraceIdBytes visible-ASCII bytes, excluding '"' and '\\' so the
// id can be spliced verbatim into JSON responses, trace exports and log
// lines. Parse-time gate for the wire field; also used for best-effort
// trace_id recovery on lines that failed full parsing.
bool IsValidTraceId(std::string_view id);

struct ServiceRequest {
  std::string id;
  RequestOp op = RequestOp::kPing;
  // Optional client-supplied trace context, allowed on every op: 1 to
  // kMaxTraceIdBytes visible-ASCII bytes. When present it is echoed as a
  // "trace_id" field on the response line (ok or error) and attached to the
  // request's obs::Session, so the client can correlate its request with
  // the server-side trace (`trace` op) and the event log. Absent (empty)
  // keeps the response bytes exactly as before — the byte-determinism
  // contract of the differential suite.
  std::string trace_id;
  // Target graph; every session resolves names in the service-wide
  // registry ("default" is the graph the service owns from startup).
  std::string graph = "default";

  // op == kQuery.
  std::string query;
  std::string engine = "auto";  // auto | generic | crpq.
  uint64_t max_answers = 0;
  obs::EvalBudget budget;  // Zero axes fall back to the service default.
  bool no_cache = false;
  bool want_stats = false;  // Append the (non-deterministic) StatsReport.

  // op == kCreateGraph: either a full graphdb/io text payload or just an
  // alphabet for a fresh empty graph.
  std::string graph_text;
  std::string alphabet = "ab";

  // op == kAddEdge.
  uint32_t from = 0;
  uint32_t to = 0;
  std::string symbol;

  // op == kAddVertex.
  uint64_t count = 1;

  // op == kStats: "" (legacy counters response), "counters" (same,
  // explicit) or "prometheus" (full telemetry exposition).
  std::string stats_format;
};

// Parses and validates one request line. Errors (ParseError /
// InvalidArgument) carry a message suitable for the wire; the caller still
// owes the client a response line (see ErrorResponseLine).
Result<ServiceRequest> ParseRequestLine(std::string_view line);

// Stable wire name of a status code ("invalid_argument",
// "resource_exhausted", ...).
const char* WireCodeName(StatusCode code);

// {"id":<id or null>,"status":"error","code":...,"message":...}
// `id` == nullptr means the id could not be recovered from the line.
// A non-empty `trace_id` appends ,"trace_id":"..." — the echo contract
// holds on error lines too.
std::string ErrorResponseLine(const std::string* id, StatusCode code,
                              std::string_view message);
std::string ErrorResponseLine(const std::string* id, StatusCode code,
                              std::string_view message,
                              std::string_view trace_id);

// Incremental builder for ok responses:
//   ResponseBuilder b(id); b.AddBool("satisfiable", true); b.Finish();
// Field order is insertion order, so response bytes are deterministic.
class ResponseBuilder {
 public:
  explicit ResponseBuilder(const std::string& id);
  void AddBool(std::string_view key, bool v);
  void AddUint(std::string_view key, uint64_t v);
  void AddString(std::string_view key, std::string_view v);
  // Pre-rendered JSON (arrays, nested objects); caller owns validity.
  void AddRaw(std::string_view key, std::string_view json);
  std::string Finish();  // Closes the object; builder is spent.

 private:
  std::string out_;
};

}  // namespace ecrpq

#endif  // ECRPQ_SERVICE_PROTOCOL_H_
