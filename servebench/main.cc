// servebench: the serving benchmark. Drives a workload's seeded request
// streams through ServiceSession::HandleLine in a closed loop (each client
// sends its next request when the previous response arrives), checks every
// response off the clock against a cache-free generic-engine oracle, and
// prints the end-to-end metrics. With --trace 1 it instead times the same
// streams through the public layers HandleLine calls (ledger.h) and prints
// the per-layer metrics.
//
//   servebench --workload crpq_warm --seed 1 --seconds 10 --trace 0
//              [--trace-out FILE]
//
// The last stdout line is {"correct":..,"attempted":..,"failed":..,
// "metrics":{..}}; the line before it carries the run's metadata.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/interner.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "eval/planner.h"
#include "graphdb/io.h"
#include "graphdb/reach_memo.h"
#include "ledger.h"
#include "service/query_service.h"
#include "workloads.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

// A --trace 0 run sets up in two rounds, one before the window and one
// after it, each of at least kMinSetups set-ups and kMinSetupSeconds;
// setup_s is the median of both rounds. A churn_rw set-up takes ~7 ms, so
// a fixed handful of them would follow whatever the host did in that
// 0.05 s, and host slowdowns last seconds, so one round can sit inside one.
constexpr int kMinSetups = 5;
constexpr double kMinSetupSeconds = 1.5;

// Sub-windows of a --trace 0 window; see BlockMedian.
constexpr int kBlocks = 5;

// Clients reconnect (open a fresh session) after this many requests. A
// session remembers every request id it has seen, so one session held for
// a whole run grows by ~300 bytes per request and peak RSS would follow
// throughput instead of what the caches and engines hold.
constexpr uint64_t kRequestsPerSession = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// Linear-interpolated percentile of `samples` (sorted in place).
double Percentile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double pos = q * static_cast<double>(samples->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples->size() - 1);
  return (*samples)[lo] +
         (pos - static_cast<double>(lo)) * ((*samples)[hi] - (*samples)[lo]);
}

// A response without its {"id":"<id>", prefix: equal requests at different
// ids give equal bodies, so a client keeps one copy per distinct body.
std::string_view Body(std::string_view response, const std::string& id) {
  const std::string prefix = "{\"id\":\"" + id + "\",";
  if (response.substr(0, prefix.size()) == prefix) {
    response.remove_prefix(prefix.size());
  }
  return response;
}

// One timed request: when its response arrived (seconds into the window),
// how long HandleLine took, and whether it answered ok.
struct Sample {
  double at_s = 0;
  double ms = 0;
  bool ok = false;
};

// What one client saw. Responses are kept as digests of their bodies plus
// one copy of each distinct body, so memory follows the number of
// distinct answers, not the request count.
struct ClientLog {
  std::vector<Sample> queries;
  std::vector<Sample> writes;
  std::vector<uint64_t> digests;
  std::unordered_map<uint64_t, std::string> bodies;

  void Record(std::string_view body) {
    const uint64_t digest = ecrpq::HashBytes(body);
    digests.push_back(digest);
    if (bodies.find(digest) == bodies.end()) {
      bodies.emplace(digest, std::string(body));
    }
  }
  const std::string& BodyAt(size_t n) const { return bodies.at(digests[n]); }
};

bool IsOk(std::string_view body) {
  return body.substr(0, 13) == "\"status\":\"ok\"";
}

// A timing metric of the samples that arrived in one sub-window of the
// given length (seconds).
using BlockStat =
    std::function<double(const std::vector<Sample>&, double length)>;

double OkRate(const std::vector<Sample>& samples, double length) {
  uint64_t ok = 0;
  for (const Sample& s : samples) ok += s.ok;
  return static_cast<double>(ok) / length;
}

BlockStat Quantile(double q) {
  return [q](const std::vector<Sample>& samples, double) {
    std::vector<double> ms;
    for (const Sample& s : samples) ms.push_back(s.ms);
    return Percentile(&ms, q);
  };
}

// The median over kBlocks equal sub-windows of `stat`, each sample counted
// in the sub-window its response arrived in. The window was `seconds`
// long, plus the last in-flight requests (`window_s` in all), which count
// in the last sub-window. On a shared VM, noise from other tenants comes
// in bursts of seconds; a burst then moves one or two sub-windows, not the
// result.
double BlockMedian(const std::vector<Sample>& samples, double seconds,
                   double window_s, const BlockStat& stat) {
  std::vector<std::vector<Sample>> blocks(kBlocks);
  for (const Sample& s : samples) {
    const int k = std::min(kBlocks - 1,
                           static_cast<int>(s.at_s * kBlocks / seconds));
    blocks[static_cast<size_t>(k)].push_back(s);
  }
  std::vector<double> values;
  for (int k = 0; k < kBlocks; ++k) {
    const double length = k + 1 < kBlocks
                              ? seconds / kBlocks
                              : window_s - seconds * (kBlocks - 1) / kBlocks;
    values.push_back(stat(blocks[static_cast<size_t>(k)], length));
  }
  return Percentile(&values, 0.5);
}

// The service under test, set up from scratch: graphs generated, service
// constructed, graphs installed with create_graph, and for warm workloads
// every pool text run once.
struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<ecrpq::QueryService> service;
  double seconds = 0;
  bool ok = true;
};

ecrpq::ServiceConfig ServiceConfigFor(const Workload& w) {
  ecrpq::ServiceConfig config;
  config.pool_threads = w.workers;
  return config;
}

Setup RunSetup(const std::string& name, uint64_t seed) {
  ecrpq::ClearGlobalCaches();
  Setup s;
  const Clock::time_point start = Clock::now();
  s.workload = MakeWorkload(name, seed);
  s.service = std::make_unique<ecrpq::QueryService>(
      ServiceConfigFor(*s.workload));
  auto session = s.service->OpenSession();
  uint64_t n = 0;
  for (const auto& [graph, text] : s.workload->graphs) {
    s.ok &= IsOk(Body(session->HandleLine(CreateGraphLine(
                          "setup-" + std::to_string(n), graph, text)),
                      "setup-" + std::to_string(n)));
    ++n;
  }
  for (const RequestSpec& spec : PoolQueries(*s.workload)) {
    const std::string id = "setup-" + std::to_string(n++);
    s.ok &= IsOk(Body(session->HandleLine(RenderRequest(spec, id, "")), id));
  }
  s.seconds = Seconds(Clock::now() - start);
  return s;
}

// One round of set-ups (see kMinSetups), each time appended to *times;
// returns the last.
Setup SetupRound(const std::string& name, uint64_t seed,
                 std::vector<double>* times) {
  Setup setup;
  double total = 0;
  for (int n = 0; n < kMinSetups || total < kMinSetupSeconds; ++n) {
    setup = Setup{};  // The previous service goes before the next one.
    setup = RunSetup(name, seed);
    times->push_back(setup.seconds);
    total += setup.seconds;
  }
  return setup;
}

// Closed loop: one thread per client, released together; each runs
// `client(c, deadline)`, sending its next request as soon as the previous
// response is back until the deadline. Returns the window: from the
// release until the last client's last response.
template <typename Client>
double RunClients(int clients, double seconds, const Client& client) {
  std::latch ready(clients + 1);
  Clock::time_point deadline;  // Published to the clients by the latch.
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.arrive_and_wait();
      client(c, deadline);
    });
  }
  const Clock::time_point start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  ready.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  return Seconds(Clock::now() - start);
}

struct TimedRun {
  std::vector<ClientLog> clients;
  double window_s = 0;
};

TimedRun RunTimed(ecrpq::QueryService* service, const Workload& w,
                  double seconds) {
  TimedRun run;
  run.clients.resize(static_cast<size_t>(w.clients));
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  auto client = [&](int c, Clock::time_point deadline) {
    ClientLog& log = run.clients[static_cast<size_t>(c)];
    const Clock::time_point start = deadline - length;
    auto session = service->OpenSession();
    RequestStream stream(w, c);
    for (uint64_t n = 0; Clock::now() < deadline; ++n) {
      if (n > 0 && n % kRequestsPerSession == 0) {
        session = service->OpenSession();
      }
      const RequestSpec spec = stream.Next();
      const std::string id = RequestId(c, n);
      const std::string line = RenderRequest(spec, id, "");
      const Clock::time_point t0 = Clock::now();
      const std::string response = session->HandleLine(line);
      const Clock::time_point t1 = Clock::now();
      const std::string_view body = Body(response, id);
      (spec.kind == RequestSpec::Kind::kQuery ? log.queries : log.writes)
          .push_back(Sample{
              Seconds(t1 - start),
              std::chrono::duration<double, std::milli>(t1 - t0).count(),
              IsOk(body)});
      log.Record(body);
    }
  };
  run.window_s = RunClients(w.clients, seconds, client);
  return run;
}

// The traced run over fresh copies of the workload's graphs.
struct TracedRun {
  std::vector<ClientLog> clients;
  std::vector<std::vector<Span>> spans;
  LedgerCounters counters;
  double window_s = 0;
  uint64_t memo_hits = 0, memo_misses = 0, memo_evictions = 0;
  uint64_t intern_hits = 0, intern_misses = 0;
};

TracedRun RunTraced(const Workload& w, double seconds) {
  ecrpq::ClearGlobalCaches();
  LedgerEnv env(ServiceConfigFor(w).admission);
  env.pool_threads = w.workers;
  for (const auto& [graph, text] : w.graphs) {
    ecrpq::Result<ecrpq::GraphDb> db = ecrpq::GraphDbFromString(text);
    ECRPQ_CHECK(db.ok());
    auto copy = std::make_unique<ecrpq::GraphDb>(std::move(db).ValueOrDie());
    copy->Finalize();
    env.graphs.emplace(graph, std::move(copy));
  }
  const Clock::time_point origin = Clock::now();
  {
    LedgerClient primer(&env, -1, origin);  // Its spans are dropped.
    uint64_t n = 0;
    for (const RequestSpec& spec : PoolQueries(w)) {
      primer.Handle(RenderRequest(spec, "setup-" + std::to_string(n++), ""),
                    0);
    }
  }

  TracedRun run;
  run.clients.resize(static_cast<size_t>(w.clients));
  run.spans.resize(static_cast<size_t>(w.clients));
  std::vector<LedgerCounters> counters(static_cast<size_t>(w.clients));
  const auto memo0 = ecrpq::ReachMemo::Global().cache().GetStats();
  const auto intern0 =
      ecrpq::AutomatonInterner::Global().nfa_cache().GetStats();
  auto client = [&](int c, Clock::time_point deadline) {
    ClientLog& log = run.clients[static_cast<size_t>(c)];
    LedgerClient ledger(&env, c, origin);
    RequestStream stream(w, c);
    for (uint64_t n = 0; Clock::now() < deadline; ++n) {
      const std::string id = RequestId(c, n);
      const std::string line = RenderRequest(stream.Next(), id, "");
      const uint64_t request =
          (static_cast<uint64_t>(c) << 40) | n;  // Unique across clients.
      log.Record(Body(ledger.Handle(line, request), id));
    }
    run.spans[static_cast<size_t>(c)] = ledger.spans();
    counters[static_cast<size_t>(c)] = ledger.counters();
  };
  run.window_s = RunClients(w.clients, seconds, client);
  for (const LedgerCounters& c : counters) run.counters.Merge(c);
  const auto memo1 = ecrpq::ReachMemo::Global().cache().GetStats();
  const auto intern1 =
      ecrpq::AutomatonInterner::Global().nfa_cache().GetStats();
  run.memo_hits = memo1.hits - memo0.hits;
  run.memo_misses = memo1.misses - memo0.misses;
  run.memo_evictions = memo1.evictions - memo0.evictions;
  run.intern_hits = intern1.hits - intern0.hits;
  run.intern_misses = intern1.misses - intern0.misses;
  return run;
}

// satisfiable, num_answers and answers of an ok query response body.
struct Answer {
  bool ok = false;
  bool satisfiable = false;
  uint64_t num_answers = 0;
  std::vector<std::vector<double>> answers;
  bool operator==(const Answer&) const = default;
};

Answer ParseAnswer(const std::string& body) {
  Answer a;
  ecrpq::Result<ecrpq::json::Value> doc = ecrpq::json::Parse("{" + body);
  if (!doc.ok() || !doc->is_object()) return a;
  std::string status;
  const ecrpq::json::Value* sat = doc->Find("satisfiable");
  const ecrpq::json::Value* answers = doc->Find("answers");
  if (!doc->GetString("status", &status) || status != "ok" ||
      sat == nullptr || !sat->is_bool() ||
      !doc->GetUint64("num_answers", &a.num_answers) || answers == nullptr ||
      !answers->is_array()) {
    return a;
  }
  a.satisfiable = sat->AsBool();
  for (const ecrpq::json::Value& row : answers->AsArray()) {
    if (!row.is_array()) return a;
    std::vector<double> tuple;
    for (const ecrpq::json::Value& v : row.AsArray()) {
      if (!v.is_number()) return a;
      tuple.push_back(v.AsNumber());
    }
    a.answers.push_back(std::move(tuple));
  }
  a.ok = true;
  return a;
}

// The oracle: each session's stream replayed in order through a fresh
// cache-free service with every query forced onto the generic engine.
// Pool workloads' writes only re-add edges a graph already has, so no
// write changes an answer there and a text's answer is computed once and
// reused. Returns the number of query responses in `runs` that
// disagree with it; (*runs[k])[c] is run k's log for client c.
uint64_t CheckWithOracle(const Workload& w,
                         const std::vector<std::vector<ClientLog>*>& runs,
                         std::vector<std::string>* notes) {
  ecrpq::ServiceConfig config;
  config.pool_threads = 1;
  config.disable_cache = true;
  auto open = [&] {
    auto service = std::make_unique<ecrpq::QueryService>(config);
    auto session = service->OpenSession();
    uint64_t n = 0;
    for (const auto& [graph, text] : w.graphs) {
      const std::string id = "oracle-setup-" + std::to_string(n++);
      ECRPQ_CHECK(
          IsOk(Body(session->HandleLine(CreateGraphLine(id, graph, text)),
                    id)));
    }
    return std::make_pair(std::move(service), std::move(session));
  };
  auto ask = [](ecrpq::ServiceSession* session, const RequestSpec& spec,
                const std::string& id) {
    return ParseAnswer(std::string(
        Body(session->HandleLine(RenderRequest(spec, id, "generic")), id)));
  };

  // Pool workloads: one oracle service and one answer per (graph, text).
  std::map<std::pair<std::string, std::string>, Answer> pool_answers;
  if (!w.pool.empty()) {
    auto [service, session] = open();
    uint64_t n = 0;
    for (const RequestSpec& spec : PoolQueries(w)) {
      pool_answers[{spec.graph, spec.query}] =
          ask(session.get(), spec, "oracle-" + std::to_string(n++));
    }
  }

  std::vector<uint64_t> mismatches(static_cast<size_t>(w.clients), 0);
  std::vector<std::string> first(static_cast<size_t>(w.clients));
  auto check_client = [&](int c) {
    size_t count = 0;
    for (const std::vector<ClientLog>* run : runs) {
      count = std::max(count, (*run)[static_cast<size_t>(c)].digests.size());
    }
    std::unique_ptr<ecrpq::QueryService> service;
    std::unique_ptr<ecrpq::ServiceSession> session;
    if (w.pool.empty()) std::tie(service, session) = open();
    RequestStream stream(w, c);
    // (body digest, graph and text) pairs already judged.
    std::map<std::pair<uint64_t, std::string>, bool> verdicts;
    for (size_t n = 0; n < count; ++n) {
      const RequestSpec spec = stream.Next();
      const std::string id = RequestId(c, n);
      if (spec.kind == RequestSpec::Kind::kAddEdge) {
        if (w.pool.empty()) {
          ECRPQ_CHECK(IsOk(
              Body(session->HandleLine(RenderRequest(spec, id, "")), id)));
        }
        continue;
      }
      const Answer expected =
          w.pool.empty() ? ask(session.get(), spec, id)
                         : pool_answers.at({spec.graph, spec.query});
      for (const std::vector<ClientLog>* run : runs) {
        const ClientLog& log = (*run)[static_cast<size_t>(c)];
        // An error response is a failure, counted apart; only answers can
        // be wrong.
        if (n >= log.digests.size() || !IsOk(log.BodyAt(n))) continue;
        auto [it, fresh] = verdicts.try_emplace(
            {log.digests[n], spec.graph + " " + spec.query});
        if (fresh) {
          it->second = expected.ok && ParseAnswer(log.BodyAt(n)) == expected;
        }
        if (it->second) continue;
        if (mismatches[static_cast<size_t>(c)]++ == 0) {
          first[static_cast<size_t>(c)] =
              "oracle mismatch at " + id + ": " + spec.query;
        }
      }
    }
  };
  // Sessions own disjoint state, so their replays run side by side.
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) threads.emplace_back(check_client, c);
  for (std::thread& t : threads) t.join();
  uint64_t total = 0;
  for (int c = 0; c < w.clients; ++c) {
    total += mismatches[static_cast<size_t>(c)];
    if (!first[static_cast<size_t>(c)].empty()) {
      notes->push_back(first[static_cast<size_t>(c)]);
    }
  }
  return total;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricJson(
    const std::vector<std::tuple<std::string, double, std::string>>& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + std::get<0>(m[i]) + "\": {\"value\": " +
           Num(std::get<1>(m[i])) + ", \"unit\": \"" + std::get<2>(m[i]) +
           "\"}";
  }
  return out + "}";
}

// Engine field of every ok query response, as a histogram.
std::map<std::string, uint64_t> Routes(const std::vector<ClientLog>& logs) {
  std::map<std::string, uint64_t> routes;
  for (const ClientLog& log : logs) {
    std::unordered_map<uint64_t, std::string> by_digest;
    for (const auto& [digest, body] : log.bodies) {
      const size_t at = body.rfind("\"engine\":\"");
      if (at == std::string::npos) continue;
      const size_t from = at + 10;
      by_digest[digest] = body.substr(from, body.find('"', from) - from);
    }
    for (uint64_t digest : log.digests) {
      auto it = by_digest.find(digest);
      if (it != by_digest.end()) ++routes[it->second];
    }
  }
  return routes;
}

int Run(const Args& args) {
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "servebench: refusing to time a non-optimised build "
                 "(build type %s)\n",
                 SERVEBENCH_BUILD_TYPE);
    return 2;
  }
  std::unique_ptr<Workload> probe = MakeWorkload(args.workload, args.seed);
  if (probe == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (probe->clients * probe->workers > nproc) {
    std::fprintf(stderr,
                 "servebench: %s needs %d clients x %d workers but the host "
                 "has %d threads\n",
                 args.workload.c_str(), probe->clients, probe->workers,
                 nproc);
    return 2;
  }
  // Engines that ignore pool_threads fall back to ECRPQ_THREADS; pin it
  // before any pool exists.
  setenv("ECRPQ_THREADS", std::to_string(probe->workers).c_str(), 1);

  std::vector<double> setup_s;
  Setup setup = args.trace ? RunSetup(args.workload, args.seed)
                           : SetupRound(args.workload, args.seed, &setup_s);
  const Workload& w = *setup.workload;

  const double timed_seconds = args.trace ? args.seconds / 2 : args.seconds;
  TimedRun timed = RunTimed(setup.service.get(), w, timed_seconds);
  const double peak_rss_mb = PeakRssMb();
  setup.service.reset();

  std::optional<TracedRun> traced;
  if (args.trace) {
    traced = RunTraced(w, args.seconds / 2);
  } else {
    setup.ok &= SetupRound(args.workload, args.seed, &setup_s).ok;
  }
  std::vector<std::string> notes;
  if (!setup.ok) notes.push_back("set-up request failed");

  // Everything below is off the clock.
  uint64_t attempted = 0, failed = 0, ok_queries = 0;
  std::vector<Sample> queries, writes;
  for (const ClientLog& log : timed.clients) {
    attempted += log.digests.size();
    queries.insert(queries.end(), log.queries.begin(), log.queries.end());
    writes.insert(writes.end(), log.writes.begin(), log.writes.end());
  }
  for (const Sample& s : queries) ok_queries += s.ok;
  failed = attempted - ok_queries;
  for (const Sample& s : writes) failed -= s.ok;
  const std::map<std::string, uint64_t> routes = Routes(timed.clients);

  std::vector<std::vector<ClientLog>*> checked = {&timed.clients};
  if (traced) checked.push_back(&traced->clients);
  const uint64_t mismatches = CheckWithOracle(w, checked, &notes);

  bool correct = setup.ok && mismatches == 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  std::string trace_meta;
  if (!args.trace) {
    auto block_median = [&](const std::vector<Sample>& samples,
                            const BlockStat& stat) {
      return BlockMedian(samples, timed_seconds, timed.window_s, stat);
    };
    metrics = {
        {"throughput_qps", block_median(queries, OkRate), "1/s"},
        {"query_p50_ms", block_median(queries, Quantile(0.50)), "ms"},
        {"query_p99_ms", block_median(queries, Quantile(0.99)), "ms"},
        {"write_p50_ms", block_median(writes, Quantile(0.50)), "ms"},
        {"write_p99_ms", block_median(writes, Quantile(0.99)), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"setup_s", Percentile(&setup_s, 0.5), "s"},
    };
  } else {
    // The decomposed run must answer exactly as HandleLine did.
    uint64_t traced_diffs = 0;
    for (size_t c = 0; c < timed.clients.size(); ++c) {
      const ClientLog& a = timed.clients[c];
      const ClientLog& b = traced->clients[c];
      const size_t n = std::min(a.digests.size(), b.digests.size());
      for (size_t i = 0; i < n; ++i) {
        if (a.digests[i] != b.digests[i]) ++traced_diffs;
      }
    }
    if (traced_diffs != 0) {
      notes.push_back(std::to_string(traced_diffs) +
                      " traced responses differ from HandleLine");
      correct = false;
    }
    const LayerTable table = BuildLayerTable(traced->spans);
    std::fprintf(stderr, "%s", table.ToString().c_str());
    const std::string trace_json = SpansToTraceJson(traced->spans);
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << trace_json;
    }
    const ecrpq::Status valid =
        ecrpq::obs::ValidateTraceJson(trace_json, /*min_events=*/1);
    if (!valid.ok()) {
      notes.push_back("span file invalid: " + valid.ToString());
      correct = false;
    }
    const LedgerCounters& k = traced->counters;
    const double q = std::max<double>(1, static_cast<double>(k.queries));
    auto ratio = [](uint64_t hit, uint64_t miss) {
      return hit + miss == 0 ? 0.0
                             : static_cast<double>(hit) /
                                   static_cast<double>(hit + miss);
    };
    const double traced_qps =
        static_cast<double>(k.queries - k.errors) / traced->window_s;
    const double untraced_qps =
        static_cast<double>(ok_queries) / timed.window_s;
    metrics = {
        {"service.parse_us", table.MeanUs(kServiceParse), "us"},
        {"service.admit_us",
         table.MeanUs(kServiceAdmit) * 2,  // Admit + release, per query.
         "us"},
        {"service.render_us", table.MeanUs(kServiceRender), "us"},
        {"service.response_bytes", static_cast<double>(k.response_bytes) / q,
         "bytes"},
        {"query.parse_us", table.MeanUs(kQueryParse), "us"},
        {"query.key_us", table.MeanUs(kQueryKey), "us"},
        {"eval.classify_us", table.MeanUs(kEvalClassify), "us"},
        {"eval.plan_hit_ratio", ratio(k.plan_hits, k.plan_misses), "ratio"},
        {"structure.classify_miss_us",
         k.plan_misses == 0 ? 0.0
                            : static_cast<double>(k.classify_miss_ns) / 1e3 /
                                  static_cast<double>(k.plan_misses),
         "us"},
        {"eval.evaluate_us", table.MeanUs(kEvalEvaluate), "us"},
    };
    const double lookups =
        static_cast<double>(traced->memo_hits + traced->memo_misses);
    std::vector<std::tuple<std::string, double, std::string>> rest = {
        {"eval.reduce_ns", static_cast<double>(k.reduce_ns) / q, "ns"},
        {"cq.bag_ns", static_cast<double>(k.bag_ns) / q, "ns"},
        {"eval.tuples_materialized",
         static_cast<double>(k.tuples_materialized) / q, "count"},
        {"graphdb.memo_lookups_per_query", lookups / q, "count"},
        {"graphdb.memo_hit_ratio",
         ratio(traced->memo_hits, traced->memo_misses), "ratio"},
        {"graphdb.memo_evictions",
         static_cast<double>(traced->memo_evictions), "count"},
        {"graphdb.product_states", static_cast<double>(k.product_states) / q,
         "count"},
        // The per-source RPQ BFS counts runs, not product states.
        {"graphdb.bfs_runs", static_cast<double>(k.bfs_runs) / q, "count"},
        {"automata.intern_hit_ratio",
         ratio(traced->intern_hits, traced->intern_misses), "ratio"},
        {"graphdb.mutate_us", table.MeanUs(kGraphdbMutate), "us"},
        {"common.telemetry_us", table.MeanUs(kCommonTelemetry), "us"},
        {"common.sched_steals", static_cast<double>(k.steals) / q, "count"},
        {"trace.coverage_pct", 100.0 * table.Coverage(), "%"},
        {"trace.min_request_coverage_pct",
         100.0 * table.min_request_coverage, "%"},
        {"trace.overhead_pct",
         untraced_qps == 0 ? 0.0
                           : 100.0 * (untraced_qps - traced_qps) /
                                 untraced_qps,
         "%"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    // Route shares of traced queries, from classification_out. They are
    // not metrics: no direction of a share is better in itself.
    std::string shares;
    for (ecrpq::EngineChoice e :
         {ecrpq::EngineChoice::kCrpqPipeline, ecrpq::EngineChoice::kCqReduction,
          ecrpq::EngineChoice::kCqReductionNp,
          ecrpq::EngineChoice::kGeneric}) {
      shares += std::string(shares.empty() ? "" : ", ") + "\"" +
                ecrpq::EngineChoiceName(e) + "\": " +
                Num(static_cast<double>(k.routes[static_cast<size_t>(e)]) / q);
    }
    trace_meta = ", \"route_share\": {" + shares + "}" +
                 ", \"traced_requests\": " + std::to_string(table.requests) +
                 ", \"traced_qps\": " + Num(traced_qps) +
                 ", \"untraced_qps\": " + Num(untraced_qps);
  }

  std::string routes_json = "{";
  for (const auto& [engine, n] : routes) {
    if (routes_json.size() > 1) routes_json += ", ";
    routes_json += "\"" + engine + "\": " + std::to_string(n);
  }
  routes_json += "}";
  std::string notes_json = "[";
  for (const std::string& note : notes) {
    if (notes_json.size() > 1) notes_json += ", ";
    notes_json += "\"" + ecrpq::JsonEscape(note) + "\"";
  }
  notes_json += "]";
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
      "\"clients\": %d, \"pool_threads\": %d, \"ecrpq_threads\": %d, "
      "\"resolved_workers\": %d, \"build_type\": \"%s\", "
      "\"window_s\": %s, \"queries\": %llu, \"writes\": %llu, "
      "\"error_frac\": %s, \"oracle_mismatches\": %llu, \"routes\": %s%s, "
      "\"notes\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      nproc, w.clients, w.workers, ecrpq::ThreadPool::DefaultNumThreads(),
      ecrpq::ThreadPool::ResolveNumThreads(w.workers),
      SERVEBENCH_BUILD_TYPE, Num(timed.window_s).c_str(),
      static_cast<unsigned long long>(queries.size()),
      static_cast<unsigned long long>(writes.size()),
      Num(attempted == 0 ? 0.0
                         : static_cast<double>(failed) /
                               static_cast<double>(attempted))
          .c_str(),
      static_cast<unsigned long long>(mismatches), routes_json.c_str(),
      trace_meta.c_str(), notes_json.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), MetricJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  return servebench::Run(args);
}
