#include "workloads.h"

#include <algorithm>
#include <utility>

#include "graphdb/generators.h"
#include "graphdb/io.h"
#include "workloads/db_gen.h"

namespace servebench {
namespace {

using ecrpq::Rng;

// Seeds of the graphs, the pool and each session's stream are split off
// the workload seed, so changing one never shifts another.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return ecrpq::HashCombine(seed * 0x9e3779b97f4a7c15ULL + 1, stream);
}

char Letter(Rng* rng, int letters = 2) {
  return static_cast<char>('a' + rng->Below(letters));
}

std::string Word(Rng* rng, int length, int letters = 2) {
  std::string w;
  for (int i = 0; i < length; ++i) w += Letter(rng, letters);
  return w;
}

// churn_rw graphs: 1024 vertices, out-degree 3, four letters.
constexpr int kChurnVertices = 1024;
constexpr int kChurnLetters = 4;
// Distinct add_edge requests per churn_rw session.
constexpr int kChurnWrites = 64;

// A selective language over {a, b, c, d}: a word of length 1-2, a third
// of them with one position widened to a two-letter union. With 0.75
// edges per letter and vertex, such a language has under one target per
// source, so the full assignments of a 12-variable tree stay few. (The
// crpq-pipeline enumerates full assignments before projecting to the
// head, so denser languages make unary heads explode.)
std::string SelectiveRegex(Rng* rng) {
  const int length = static_cast<int>(rng->Range(1, 2));
  if (rng->Below(3) != 0) return Word(rng, length, kChurnLetters);
  const int wide = static_cast<int>(rng->Below(length));
  std::string re;
  for (int i = 0; i < length; ++i) {
    if (i != wide) {
      re += Letter(rng, kChurnLetters);
      continue;
    }
    const char first = Letter(rng, kChurnLetters);
    const char second = static_cast<char>(
        'a' + (first - 'a' + 1 + rng->Below(kChurnLetters - 1)) %
                  kChurnLetters);
    re += std::string("(") + first + "|" + second + ")";
  }
  return re;
}

// Languages of the warm pool: fixed words, every fourth with its middle
// letter optional. Starred letters are left out: on this graph every star
// percolates, and such a text costs 10-100x a fixed-length one warm, so a
// few of them would set the whole tail.
std::string WarmRegex(Rng* rng, int length, bool optional) {
  if (!optional || length < 3) return Word(rng, length);
  return Word(rng, 1) + Word(rng, 1) + "?" + Word(rng, length - 2);
}

// Boolean, unary (x) or binary (x, last) head.
std::string Head(int arity, const std::string& last) {
  if (arity == 0) return "q()";
  if (arity == 1) return "q(x)";
  return "q(x, " + last + ")";
}

// crpq_warm: 6 acyclic shapes x 3 head arities x 3 label draws = 54
// texts. Shapes and word lengths are fixed (words of 3 letters on one-atom
// shapes, 3 then 2 on two-atom ones, 2 on three-atom ones), so every
// seed's pool has the same mix of atom counts, path lengths and head
// arities; the seed only picks the letters.
std::vector<std::string> WarmPool(uint64_t seed) {
  Rng rng(SubSeed(seed, 1));
  std::vector<std::string> pool;
  int draw = 0;
  for (int variant = 0; variant < 3; ++variant) {
    for (int shape = 0; shape < 6; ++shape) {
      for (int arity = 0; arity < 3; ++arity) {
        int atom = 0;
        const int atoms = shape == 0 ? 1 : shape < 3 ? 2 : 3;
        auto lang = [&] {
          const int length = atoms == 1 ? 3 : atoms == 2 ? 3 - atom : 2;
          ++atom;
          return "/" + WarmRegex(&rng, length, ++draw % 4 == 0) + "/";
        };
        std::string body;
        std::string last;
        switch (shape) {
          case 0:
            body = "x -[" + lang() + "]-> y";
            last = "y";
            break;
          case 1:
            body = "x -[" + lang() + "]-> y, y -[" + lang() + "]-> z";
            last = "z";
            break;
          case 2:
            body = "x -[" + lang() + "]-> y, x -[" + lang() + "]-> z";
            last = "z";
            break;
          case 3:
            body = "x -[" + lang() + "]-> y, y -[" + lang() + "]-> z, z -[" +
                   lang() + "]-> w";
            last = "w";
            break;
          case 4:
            body = "x -[" + lang() + "]-> y, x -[" + lang() + "]-> z, x -[" +
                   lang() + "]-> w";
            last = "y";
            break;
          default:
            body = "x -[" + lang() + "]-> y, z -[" + lang() + "]-> y, y -[" +
                   lang() + "]-> w";
            last = "w";
            break;
        }
        pool.push_back(Head(arity, last) + " := " + body);
      }
    }
  }
  return pool;
}

// ecrpq_engines: ECRPQs over 2-3 path variables, 10 templates x 4 draws
// of their languages. (A 3-path chain under eqlen + eq cost 13-41 ms
// depending on the DAG and set the tail alone; it is left out.) Each
// template lands in one Theorem 3.2 regime, so the planner sends a fixed
// share of the pool to each of cq-reduction/treedec (6/10),
// cq-reduction/backtracking (2/10) and generic-product (2/10). Repeated
// texts stay in the pool as weight, which keeps those shares the same for
// every seed. On these DAGs every treedec text costs 8-13 ms and every
// other text 0.5-8 ms. With treedec at exactly half the requests, the
// median sat in the gap between the two groups and jumped across it from
// run to run; at 6/10 it falls inside the treedec group.
std::vector<std::string> EnginesPool(uint64_t seed) {
  Rng rng(SubSeed(seed, 1));
  auto lang = [&] { return "/" + Word(&rng, 1) + "(a|b)*/"; };
  std::vector<std::string> pool;
  for (int variant = 0; variant < 4; ++variant) {
    // Polynomial regime: one 2-variable block over a tree-shaped pattern.
    pool.push_back("q(x) := x -[p1]-> y, x -[p2]-> z, eqlen(p1, p2)");
    pool.push_back("q() := x -[p1]-> y, y -[p2]-> z, eq(p1, p2), "
                   "lang(" + lang() + ", p1)");
    pool.push_back("q(x, z) := x -[p1]-> y, x -[p2]-> z, prefix(p1, p2), "
                   "lang(" + lang() + ", p2)");
    pool.push_back("q(y) := x -[p1]-> y, z -[p2]-> y, hamming(1, p1, p2)");
    pool.push_back("q(z) := x -[p1]-> y, x -[p2]-> z, eq(p1, p2)");
    pool.push_back("q(x, y) := x -[p1]-> y, y -[p2]-> z, hamming(1, p1, p2)");
    // NP regime: bounded cc, but the node pattern is a K4 (treewidth 3).
    pool.push_back("q() := x -[p1]-> y, x -[/.+/]-> z, x -[/.+/]-> w, "
                   "y -[p2]-> z, y -[/.+/]-> w, z -[/.+/]-> w, eqlen(p1, p2)");
    pool.push_back("q(x) := x -[p1]-> y, x -[/.+/]-> z, x -[/.+/]-> w, "
                   "y -[/.+/]-> z, y -[/.+/]-> w, z -[p2]-> w, "
                   "hamming(1, p1, p2)");
    // PSPACE regime: a block of three path variables (cc_vertex 3).
    pool.push_back("q() := x -[p1]-> y, x -[p2]-> z, x -[p3]-> w, "
                   "eqlen(p1, p2, p3)");
    pool.push_back("q(x) := x -[p1]-> y, y -[p2]-> z, x -[p3]-> w, "
                   "eqlen(p1, p2), prefix(p1, p3), lang(" + lang() + ", p2)");
  }
  return pool;
}

// churn_rw: a random acyclic CRPQ with 2-12 node variables over a random
// out-tree, atoms listed parent before child. About a quarter carry one
// redundant atom: an exact duplicate, or an atom on the same endpoints
// whose language contains the original's. (Edges pointing at an unbound
// variable send the generic oracle through all 1024 sources per level,
// 10-100x slower, which the per-run oracle cannot afford.)
std::string ChurnQuery(Rng* rng) {
  const int nodes = static_cast<int>(rng->Range(2, 12));
  std::vector<std::string> atoms;
  struct Edge {
    int from, to;
    std::string re;
  };
  std::vector<Edge> edges;
  for (int child = 1; child < nodes; ++child) {
    const int parent = static_cast<int>(rng->Below(child));
    edges.push_back(Edge{parent, child, SelectiveRegex(rng)});
  }
  auto var = [](int v) { return "v" + std::to_string(v); };
  for (const Edge& e : edges) {
    atoms.push_back(var(e.from) + " -[/" + e.re + "/]-> " + var(e.to));
  }
  if (rng->Below(4) == 0) {
    // Placed right after the original, so a left-to-right evaluator meets
    // it with its source already bound.
    const size_t original = rng->Below(edges.size());
    const Edge& e = edges[original];
    const std::string re =
        rng->Below(2) == 0 ? e.re
                           : "(" + e.re + ")|" + Word(rng, 2, kChurnLetters);
    atoms.insert(atoms.begin() + static_cast<long>(original) + 1,
                 var(e.from) + " -[/" + re + "/]-> " + var(e.to));
  }
  std::string head;
  switch (rng->Below(3)) {
    case 0:
      head = "q()";
      break;
    case 1:
      head = "q(" + var(static_cast<int>(rng->Below(nodes))) + ")";
      break;
    default: {
      // Binary heads take the two ends of one atom, which keeps the
      // answer set near the size of one reach relation.
      const Edge& e = edges[rng->Below(edges.size())];
      head = "q(" + var(e.from) + ", " + var(e.to) + ")";
      break;
    }
  }
  std::string text = head + " :=";
  for (size_t i = 0; i < atoms.size(); ++i) {
    text += (i == 0 ? " " : ", ") + atoms[i];
  }
  return text;
}

// Writes that re-add each edge `db` already has, to the graph installed
// as `name`: the full write path runs (exclusive claim, AddEdge, epoch bump,
// CSR rebuild), but the edge set never changes, so no answer changes and a
// write costs the same late in a run as early.
std::vector<RequestSpec> ReAddWrites(const ecrpq::GraphDb& db,
                                     const std::string& name) {
  std::vector<RequestSpec> writes;
  const auto vertices = static_cast<ecrpq::VertexId>(db.NumVertices());
  for (ecrpq::VertexId v = 0; v < vertices; ++v) {
    for (const ecrpq::LabeledEdge& e : db.OutEdges(v)) {
      RequestSpec spec;
      spec.kind = RequestSpec::Kind::kAddEdge;
      spec.graph = name;
      spec.from = v;
      spec.to = e.to;
      spec.symbol = db.alphabet().Name(e.symbol)[0];
      writes.push_back(spec);
    }
  }
  return writes;
}

// A session's 256-vertex side graph, which no query reads, and its writes.
// Every write bumps the written graph's epoch, which empties the reach memo
// for it; on the query graph that would turn the warm workload cold.
void AddSideGraph(Workload* w, int session, uint64_t seed) {
  Rng rng(SubSeed(seed, 100 + static_cast<uint64_t>(session)));
  const ecrpq::GraphDb db = ecrpq::RandomGraph(&rng, 256, 3.0, 2);
  const std::string name = "side" + std::to_string(session);
  w->graphs.emplace_back(name, ecrpq::GraphDbToString(db));
  w->writes.push_back(ReAddWrites(db, name));
}

std::unique_ptr<Workload> CrpqWarm(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->clients = 4;
  w->workers = 1;
  Rng graph_rng(SubSeed(seed, 0));
  w->graphs.emplace_back(
      "g", ecrpq::GraphDbToString(ecrpq::RandomGraph(&graph_rng, 256, 3.0, 2)));
  w->pool_graphs = {"g"};
  for (int s = 0; s < w->clients; ++s) AddSideGraph(w.get(), s, seed);
  w->pool = WarmPool(seed);
  w->write_share = 0.05;
  return w;
}

std::unique_ptr<Workload> EcrpqEngines(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->clients = 1;
  w->workers = 4;
  // Four small DAGs, each query on a random one: an engine's cost on one
  // 20-vertex DAG swings with its handful of paths, and the mix over four
  // keeps that from setting a seed's tail.
  // Writes re-add the DAGs' own edges; no cache below the planner keys on
  // the graph here, so they leave query cost alone.
  w->writes.emplace_back();
  for (int g = 0; g < 4; ++g) {
    Rng graph_rng(SubSeed(seed, 10 + g));
    const ecrpq::GraphDb db = ecrpq::LayeredDag(&graph_rng, 5, 4, 2, 2);
    const std::string name = "g" + std::to_string(g);
    w->graphs.emplace_back(name, ecrpq::GraphDbToString(db));
    w->pool_graphs.push_back(name);
    const std::vector<RequestSpec> writes = ReAddWrites(db, name);
    w->writes[0].insert(w->writes[0].end(), writes.begin(), writes.end());
  }
  w->pool = EnginesPool(seed);
  w->write_share = 0.25;
  return w;
}

std::unique_ptr<Workload> ChurnRw(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->clients = 4;
  w->workers = 1;
  for (int s = 0; s < w->clients; ++s) {
    Rng graph_rng(SubSeed(seed, 100 + s));
    const std::string name = "g" + std::to_string(s);
    w->graphs.emplace_back(
        name, ecrpq::GraphDbToString(ecrpq::RandomGraph(
                  &graph_rng, kChurnVertices, 3.0, kChurnLetters)));
    // A fixed list of new edges: the graph grows by at most kChurnWrites
    // edges however many writes a run gets through, so a faster run does
    // not query a denser graph.
    Rng write_rng(SubSeed(seed, 300 + s));
    std::vector<RequestSpec> writes;
    for (int k = 0; k < kChurnWrites; ++k) {
      RequestSpec spec;
      spec.kind = RequestSpec::Kind::kAddEdge;
      spec.graph = name;
      spec.from = static_cast<uint32_t>(write_rng.Below(kChurnVertices));
      spec.to = static_cast<uint32_t>(write_rng.Below(kChurnVertices));
      spec.symbol = Letter(&write_rng, kChurnLetters);
      writes.push_back(spec);
    }
    w->writes.push_back(std::move(writes));
  }
  w->write_share = 0.2;
  return w;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  std::unique_ptr<Workload> w;
  if (name == "crpq_warm") w = CrpqWarm(seed);
  if (name == "ecrpq_engines") w = EcrpqEngines(seed);
  if (name == "churn_rw") w = ChurnRw(seed);
  if (w != nullptr) {
    w->name = name;
    w->seed = seed;
  }
  return w;
}

RequestStream::RequestStream(const Workload& workload, int session)
    : workload_(workload),
      session_(session),
      rng_(SubSeed(workload.seed, 200 + static_cast<uint64_t>(session))) {}

RequestSpec RequestStream::Next() {
  if (rng_.Chance(workload_.write_share)) {
    const std::vector<RequestSpec>& writes =
        workload_.writes[static_cast<size_t>(session_)];
    return writes[rng_.Below(writes.size())];
  }
  return NextQuery();
}

RequestSpec RequestStream::NextQuery() {
  RequestSpec spec;
  if (workload_.pool.empty()) {
    spec.graph = "g" + std::to_string(session_);
    spec.query = ChurnQuery(&rng_);
  } else {
    spec.graph =
        workload_.pool_graphs[rng_.Below(workload_.pool_graphs.size())];
    spec.query = workload_.pool[rng_.Below(workload_.pool.size())];
  }
  return spec;
}

std::vector<RequestSpec> PoolQueries(const Workload& workload) {
  std::vector<std::string> texts = workload.pool;
  std::sort(texts.begin(), texts.end());
  texts.erase(std::unique(texts.begin(), texts.end()), texts.end());
  std::vector<RequestSpec> queries;
  for (const std::string& graph : workload.pool_graphs) {
    for (const std::string& text : texts) {
      RequestSpec spec;
      spec.graph = graph;
      spec.query = text;
      queries.push_back(spec);
    }
  }
  return queries;
}

std::string RequestId(int session, uint64_t n) {
  return "s" + std::to_string(session) + "-" + std::to_string(n);
}

std::string RenderRequest(const RequestSpec& spec, const std::string& id,
                          const std::string& engine) {
  std::string line = "{\"id\":\"" + id + "\",\"graph\":\"" + spec.graph + "\"";
  if (spec.kind == RequestSpec::Kind::kAddEdge) {
    line += ",\"op\":\"add_edge\",\"from\":" + std::to_string(spec.from) +
            ",\"symbol\":\"" + std::string(1, spec.symbol) +
            "\",\"to\":" + std::to_string(spec.to) + "}";
    return line;
  }
  line += ",\"op\":\"query\",\"query\":\"" + spec.query + "\"";
  if (!engine.empty()) line += ",\"engine\":\"" + engine + "\"";
  return line + "}";
}

std::string CreateGraphLine(const std::string& id, const std::string& graph,
                            const std::string& text) {
  std::string escaped;
  for (char c : text) {
    if (c == '\n') {
      escaped += "\\n";
    } else if (c == '"' || c == '\\') {
      escaped += '\\';
      escaped += c;
    } else {
      escaped += c;
    }
  }
  return "{\"id\":\"" + id + "\",\"op\":\"create_graph\",\"graph\":\"" +
         graph + "\",\"text\":\"" + escaped + "\"}";
}

}  // namespace servebench
