// Seeded request mixes for the serving benchmark. A workload is fixed by
// its name and seed: the same pair always yields the same graphs, query
// pool and per-session request streams, so the oracle and the traced run
// can replay exactly what the timed run sent.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace servebench {

// One request before it is rendered as a wire line.
struct RequestSpec {
  enum class Kind { kQuery, kAddEdge };
  Kind kind = Kind::kQuery;
  std::string graph;
  std::string query;  // kQuery.
  uint32_t from = 0;  // kAddEdge.
  uint32_t to = 0;
  char symbol = 'a';
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  // Closed-loop clients; one ServiceSession each.
  int clients = 1;
  // Evaluation workers: ServiceConfig::pool_threads and the pinned
  // ECRPQ_THREADS. clients * workers must not exceed the host's threads.
  int workers = 1;
  // Graphs installed with create_graph before timing: (name, graphdb/io
  // text). Queries only ever read graphs named "g*"; "side*" graphs are
  // only written.
  std::vector<std::pair<std::string, std::string>> graphs;
  // Query texts the stream draws from, and the graphs those queries read
  // (empty pool: every text is fresh and reads the session's "g<s>").
  // Set-up runs every pool text on every pool graph once, so the timed
  // window is warm.
  std::vector<std::string> pool;
  std::vector<std::string> pool_graphs;
  // Share of requests that are add_edge writes, each drawn uniformly from
  // the session's fixed list writes[s]. A fixed list keeps the graphs a
  // run ends with independent of how many requests it finished.
  double write_share = 0.0;
  std::vector<std::vector<RequestSpec>> writes;
};

// Builds the named workload; nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

// Every distinct (pool graph, pool text) query once: what priming runs.
std::vector<RequestSpec> PoolQueries(const Workload& workload);

// The deterministic request stream of one session.
class RequestStream {
 public:
  RequestStream(const Workload& workload, int session);
  RequestSpec Next();

 private:
  RequestSpec NextQuery();

  const Workload& workload_;
  int session_;
  ecrpq::Rng rng_;
};

// Wire lines. `engine` is omitted when empty (the service default, auto).
std::string RenderRequest(const RequestSpec& spec, const std::string& id,
                          const std::string& engine);
std::string CreateGraphLine(const std::string& id, const std::string& graph,
                            const std::string& text);

// Request id of the n-th request of a session ("s<session>-<n>").
std::string RequestId(int session, uint64_t n);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
