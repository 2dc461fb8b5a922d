// ecrpq_cli — command-line front end for the library.
//
//   ecrpq_cli classify --alphabet=ab "q() := x -[p1]-> y, ..."
//   ecrpq_cli eval <graph-file> "q(x) := ..." [--engine=auto|generic|cq|crpq]
//   ecrpq_cli sat --alphabet=ab "q() := ..."
//   ecrpq_cli dot <graph-file>
//   ecrpq_cli parse --alphabet=ab "q() := ..."
//
// Graph files use the text format of graphdb/io.h:
//   alphabet a b
//   vertices 3
//   edge 0 a 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/obs.h"
#include "eval/adaptive.h"
#include "query/validate.h"
#include "eval/explain.h"
#include "eval/planner.h"
#include "eval/satisfiability.h"
#include "graphdb/dot.h"
#include "cq/count.h"
#include "query/abstraction.h"
#include "query/simplify.h"
#include "structure/dot.h"
#include "graphdb/io.h"
#include "synchro/io.h"
#include "query/parser.h"
#include "service/query_service.h"
#include "service/server.h"

namespace ecrpq {
namespace internal_cli {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  ecrpq_cli classify --alphabet=<chars> \"<query>\" [--dot]\n"
      "  ecrpq_cli check --alphabet=<chars> \"<query>\" [--strict] "
      "[--rel=name=relation-file]\n"
      "  ecrpq_cli simplify --alphabet=<chars> \"<query>\"\n"
      "  ecrpq_cli eval <graph-file> \"<query>\" [--engine=auto|generic|cq|"
      "crpq|adaptive] [--rel=name=relation-file]\n"
      "             [--stats] [--trace=<out.json>] [--budget-states=<n>]\n"
      "             [--budget-mem=<bytes>] [--budget-ms=<millis>] "
      "[--no-cache]\n"
      "  ecrpq_cli profile <graph-file> \"<query>\" "
      "[--engine=...] [--rel=name=relation-file]\n"
      "  ecrpq_cli trace-check <trace.json>\n"
      "  ecrpq_cli sat --alphabet=<chars> \"<query>\"\n"
      "  ecrpq_cli explain <graph-file> \"<query>\" <v1> <v2> ...\n"
      "  ecrpq_cli count <graph-file> \"<query>\"\n"
      "  ecrpq_cli dot <graph-file>\n"
      "  ecrpq_cli parse --alphabet=<chars> \"<query>\"\n"
      "  ecrpq_cli serve (--batch=<file>|- | --listen-unix=<path> | "
      "--listen-tcp=<port>)\n"
      "             [--graph=<graph-file>] [--pool=<n>] "
      "[--max-concurrent=<n>]\n"
      "             [--max-states=<n>] [--max-mem=<bytes>] "
      "[--admission=reject|queue]\n"
      "             [--queue-ms=<millis>] [--no-cache]\n"
      "             [--event-log=<path>] [--slow-ms=<millis>] "
      "[--postmortem-dir=<dir>]\n"
      "             [--no-telemetry]\n"
      "  ecrpq_cli top (--connect-unix=<path> | --connect-tcp=<port>)\n"
      "             [--interval-ms=<millis>] [--iterations=<n>] "
      "[--no-clear]\n");
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Parses --alphabet=abc into an Alphabet of single-char symbols.
struct Args {
  std::vector<std::string> positional;
  std::string alphabet = "ab";
  std::string engine = "auto";
  bool emit_dot = false;
  bool strict = false;
  // --rel name=path pairs, loaded into a RelationRegistry.
  std::vector<std::pair<std::string, std::string>> relations;
  // Observability (eval only): print the StatsReport, export a
  // chrome://tracing JSON file, and/or arm an evaluation budget. A tripped
  // budget exits with code 3 and prints the partial stats.
  bool stats = false;
  std::string trace_path;
  uint64_t budget_states = 0;
  uint64_t budget_mem = 0;
  int64_t budget_ms = 0;
  // Bypass the process-wide cross-query caches (plan cache, automaton
  // interner, reach memo). Answers are identical either way.
  bool no_cache = false;
  // serve only: transport selection plus service/admission configuration.
  std::string batch_path;    // "-" reads stdin.
  std::string listen_unix;
  int listen_tcp = -1;       // >= 0 once --listen-tcp is given (0 = ephemeral).
  std::string graph_path;    // Installed as the "default" graph.
  int pool = 0;
  uint64_t max_concurrent = 0;
  uint64_t max_states = 0;
  uint64_t max_mem = 0;
  std::string admission = "reject";
  int64_t queue_ms = 100;
  // serve telemetry (see ServiceConfig).
  std::string event_log_path;
  int64_t slow_ms = 0;
  std::string postmortem_dir;
  bool no_telemetry = false;
  // top only: where the server listens, how often to repaint.
  std::string connect_unix;
  int connect_tcp = -1;
  int64_t interval_ms = 1000;
  int iterations = 0;  // 0 = until the connection drops / interrupt.
  bool no_clear = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--alphabet=", 0) == 0) {
      args.alphabet = arg.substr(strlen("--alphabet="));
    } else if (arg.rfind("--engine=", 0) == 0) {
      args.engine = arg.substr(strlen("--engine="));
    } else if (arg == "--dot") {
      args.emit_dot = true;
    } else if (arg == "--strict") {
      args.strict = true;
    } else if (arg == "--stats") {
      args.stats = true;
    } else if (arg == "--no-cache") {
      args.no_cache = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      args.trace_path = arg.substr(strlen("--trace="));
    } else if (arg.rfind("--budget-states=", 0) == 0) {
      args.budget_states =
          std::strtoull(arg.c_str() + strlen("--budget-states="), nullptr, 10);
    } else if (arg.rfind("--budget-mem=", 0) == 0) {
      args.budget_mem =
          std::strtoull(arg.c_str() + strlen("--budget-mem="), nullptr, 10);
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      args.budget_ms =
          std::strtoll(arg.c_str() + strlen("--budget-ms="), nullptr, 10);
    } else if (arg.rfind("--batch=", 0) == 0) {
      args.batch_path = arg.substr(strlen("--batch="));
    } else if (arg.rfind("--listen-unix=", 0) == 0) {
      args.listen_unix = arg.substr(strlen("--listen-unix="));
    } else if (arg.rfind("--listen-tcp=", 0) == 0) {
      args.listen_tcp =
          static_cast<int>(std::strtol(arg.c_str() + strlen("--listen-tcp="),
                                       nullptr, 10));
    } else if (arg.rfind("--graph=", 0) == 0) {
      args.graph_path = arg.substr(strlen("--graph="));
    } else if (arg.rfind("--pool=", 0) == 0) {
      args.pool = static_cast<int>(
          std::strtol(arg.c_str() + strlen("--pool="), nullptr, 10));
    } else if (arg.rfind("--max-concurrent=", 0) == 0) {
      args.max_concurrent = std::strtoull(
          arg.c_str() + strlen("--max-concurrent="), nullptr, 10);
    } else if (arg.rfind("--max-states=", 0) == 0) {
      args.max_states =
          std::strtoull(arg.c_str() + strlen("--max-states="), nullptr, 10);
    } else if (arg.rfind("--max-mem=", 0) == 0) {
      args.max_mem =
          std::strtoull(arg.c_str() + strlen("--max-mem="), nullptr, 10);
    } else if (arg.rfind("--admission=", 0) == 0) {
      args.admission = arg.substr(strlen("--admission="));
    } else if (arg.rfind("--queue-ms=", 0) == 0) {
      args.queue_ms =
          std::strtoll(arg.c_str() + strlen("--queue-ms="), nullptr, 10);
    } else if (arg.rfind("--event-log=", 0) == 0) {
      args.event_log_path = arg.substr(strlen("--event-log="));
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      args.slow_ms =
          std::strtoll(arg.c_str() + strlen("--slow-ms="), nullptr, 10);
    } else if (arg.rfind("--postmortem-dir=", 0) == 0) {
      args.postmortem_dir = arg.substr(strlen("--postmortem-dir="));
    } else if (arg == "--no-telemetry") {
      args.no_telemetry = true;
    } else if (arg.rfind("--connect-unix=", 0) == 0) {
      args.connect_unix = arg.substr(strlen("--connect-unix="));
    } else if (arg.rfind("--connect-tcp=", 0) == 0) {
      args.connect_tcp = static_cast<int>(std::strtol(
          arg.c_str() + strlen("--connect-tcp="), nullptr, 10));
    } else if (arg.rfind("--interval-ms=", 0) == 0) {
      args.interval_ms =
          std::strtoll(arg.c_str() + strlen("--interval-ms="), nullptr, 10);
    } else if (arg.rfind("--iterations=", 0) == 0) {
      args.iterations = static_cast<int>(std::strtol(
          arg.c_str() + strlen("--iterations="), nullptr, 10));
    } else if (arg == "--no-clear") {
      args.no_clear = true;
    } else if (arg.rfind("--rel=", 0) == 0) {
      const std::string spec = arg.substr(strlen("--rel="));
      const size_t eq = spec.find('=');
      if (eq != std::string::npos) {
        args.relations.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int Classify(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const Alphabet alphabet = Alphabet::OfChars(args.alphabet);
  Result<EcrpqQuery> query = ParseEcrpq(args.positional[0], alphabet);
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", query->ToString().c_str());
  std::printf("%s\n", ClassifyQuery(*query).ToString().c_str());
  if (args.emit_dot) {
    std::printf("%s", TwoLevelGraphToDot(QueryAbstraction(*query)).c_str());
  }
  return 0;
}

Result<RelationRegistry> LoadRegistry(const Args& args);

// check: validate a query and report the 2L-abstraction measures that drive
// the planner (cc_vertex, cc_hedge, tw(G^node)) plus the predicted regime.
// With --strict, additionally run the structural invariant pass over the
// query's synchronous relations (aborts with a diagnostic on corruption) and
// fail on an unsatisfiable query.
int Check(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const Alphabet alphabet = Alphabet::OfChars(args.alphabet);
  Result<RelationRegistry> registry = LoadRegistry(args);
  if (!registry.ok()) {
    std::fprintf(stderr, "relation load error: %s\n",
                 registry.status().ToString().c_str());
    return 1;
  }
  Result<EcrpqQuery> query =
      ParseEcrpq(args.positional[0], alphabet, &*registry);
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("query:       %s\n", query->ToString().c_str());
  const Status valid = ValidateQuery(*query);
  if (!valid.ok()) {
    std::printf("validation:  FAILED: %s\n", valid.ToString().c_str());
    return 1;
  }
  std::printf("validation:  OK\n");
  std::printf("shape:       %d node var(s), %d path var(s), %zu reach "
              "atom(s), %zu rel atom(s)%s\n",
              query->NumNodeVars(), query->NumPathVars(),
              query->reach_atoms().size(), query->rel_atoms().size(),
              query->IsCrpq() ? " [CRPQ]" : "");
  const QueryClassification c = ClassifyQuery(*query);
  std::printf("cc_vertex:   %d\n", c.measures.cc_vertex);
  std::printf("cc_hedge:    %d\n", c.measures.cc_hedge);
  std::printf("tw(G^node):  %d (%s)\n", c.measures.treewidth,
              c.measures.treewidth_exact ? "exact" : "heuristic upper bound");
  std::printf("regime:      %s (combined), %s (parameterized)\n",
              EvalRegimeName(c.eval_regime), ParamRegimeName(c.param_regime));
  std::printf("engine:      %s\n", EngineChoiceName(c.engine));
  if (!args.strict) return 0;

  for (const auto& rel : query->relations()) rel->CheckInvariants();
  std::printf("invariants:  OK (%zu relation(s) checked)\n",
              query->relations().size());
  Result<SatisfiabilityResult> sat = CheckSatisfiable(*query);
  if (!sat.ok()) {
    std::fprintf(stderr, "satisfiability error: %s\n",
                 sat.status().ToString().c_str());
    return 1;
  }
  std::printf("satisfiable: %s\n", sat->satisfiable ? "yes" : "no");
  return sat->satisfiable ? 0 : 1;
}

int Simplify(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const Alphabet alphabet = Alphabet::OfChars(args.alphabet);
  Result<EcrpqQuery> query = ParseEcrpq(args.positional[0], alphabet);
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  SimplifyStats stats;
  Result<EcrpqQuery> simplified = SimplifyQuery(*query, {}, &stats);
  if (!simplified.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 simplified.status().ToString().c_str());
    return 1;
  }
  std::printf("before: %s\n%s\n\n", query->ToString().c_str(),
              ClassifyQuery(*query).ToString().c_str());
  std::printf("after:  %s\n%s\n", simplified->ToString().c_str(),
              ClassifyQuery(*simplified).ToString().c_str());
  std::printf(
      "\ndropped %d universal atom(s), merged %d unary atom(s), "
      "relation states %d -> %d\n",
      stats.dropped_universal_atoms, stats.merged_unary_atoms,
      stats.relation_states_before, stats.relation_states_after);
  return 0;
}

Result<RelationRegistry> LoadRegistry(const Args& args) {
  RelationRegistry registry;
  for (const auto& [name, path] : args.relations) {
    ECRPQ_ASSIGN_OR_RAISE(std::string text, ReadFile(path));
    ECRPQ_ASSIGN_OR_RAISE(SyncRelation rel, SyncRelationFromString(text));
    registry.emplace(name,
                     std::make_shared<const SyncRelation>(std::move(rel)));
  }
  return registry;
}

// Reads and parses the graph file positional[0]; prints the error and
// returns nullopt on failure.
std::optional<GraphDb> LoadGraph(const Args& args) {
  Result<std::string> text = ReadFile(args.positional[0]);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return std::nullopt;
  }
  Result<GraphDb> db = GraphDbFromString(*text);
  if (!db.ok()) {
    std::fprintf(stderr, "graph parse error: %s\n",
                 db.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(db).ValueOrDie();
}

struct GraphAndQuery {
  GraphDb db;
  EcrpqQuery query;
};

// LoadGraph, then parses the query positional[1], with the --rel
// relations, over the graph's alphabet (the query's must include it).
std::optional<GraphAndQuery> LoadGraphAndQuery(const Args& args) {
  std::optional<GraphDb> db = LoadGraph(args);
  if (!db.has_value()) return std::nullopt;
  Result<RelationRegistry> registry = LoadRegistry(args);
  if (!registry.ok()) {
    std::fprintf(stderr, "relation load error: %s\n",
                 registry.status().ToString().c_str());
    return std::nullopt;
  }
  Result<EcrpqQuery> query =
      ParseEcrpq(args.positional[1], db->alphabet(), &*registry);
  if (!query.ok()) {
    std::fprintf(stderr, "query parse error: %s\n",
                 query.status().ToString().c_str());
    return std::nullopt;
  }
  return GraphAndQuery{*std::move(db), std::move(query).ValueOrDie()};
}

// Maps an --engine value onto EvalOptions::engine ("auto" = unset, the
// planner routes); false for a name that is not an EngineChoice.
bool ParseEngine(const std::string& name, std::optional<EngineChoice>* engine) {
  if (name == "auto") {
    engine->reset();
  } else if (name == "generic") {
    *engine = EngineChoice::kGeneric;
  } else if (name == "crpq") {
    *engine = EngineChoice::kCrpqPipeline;
  } else if (name == "cq") {
    *engine = EngineChoice::kCqReduction;
  } else {
    return false;
  }
  return true;
}

int Eval(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  std::optional<GraphAndQuery> loaded = LoadGraphAndQuery(args);
  if (!loaded.has_value()) return 1;
  const auto& [db, query] = *loaded;

  // Observability session — attached only when asked for, so the default
  // path keeps the zero-overhead contract.
  obs::Session session;
  const bool want_budget = args.budget_states != 0 || args.budget_mem != 0 ||
                           args.budget_ms != 0;
  const bool want_obs =
      args.stats || !args.trace_path.empty() || want_budget;
  obs::Session* obs = want_obs ? &session : nullptr;
  if (!args.trace_path.empty()) session.EnableTrace();
  if (want_budget) {
    obs::EvalBudget budget;
    budget.max_product_states = args.budget_states;
    budget.max_memory_bytes = args.budget_mem;
    budget.timeout_millis = args.budget_ms;
    session.SetBudget(budget);
  }
  // Written on every exit path below once evaluation ran — a budget trip
  // still leaves a valid (partial) trace on disk.
  auto write_trace = [&]() -> bool {
    if (args.trace_path.empty()) return true;
    const Status st = session.trace()->WriteFile(args.trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write error: %s\n", st.ToString().c_str());
      return false;
    }
    return true;
  };

  EvalOptions options;
  options.obs = obs;
  options.disable_cache = args.no_cache;
  Result<EvalResult> result = Status::Invalid("unset");
  if (args.engine == "adaptive") {
    AdaptiveReport report;
    AdaptiveOptions adaptive_options;
    adaptive_options.eval = options;
    result = EvaluateAdaptive(db, query, adaptive_options, &report);
    if (result.ok()) {
      std::printf("adaptive: budget=%zu fell_back=%s\n", report.phase1_budget,
                  report.fell_back ? "yes" : "no");
    }
  } else {
    if (!ParseEngine(args.engine, &options.engine)) return Usage();
    QueryClassification c;
    result = EvaluatePlanned(db, query, options, {}, &c);
    if (result.ok() && !options.engine.has_value()) {
      std::printf("%s\n", c.ToString().c_str());
    }
  }
  if (!result.ok()) {
    write_trace();
    if (result.status().code() == StatusCode::kResourceExhausted) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      std::printf("partial stats:\n%s",
                  session.Report().ToString().c_str());
      return 3;
    }
    std::fprintf(stderr, "evaluation error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("satisfiable: %s\n", result->satisfiable ? "yes" : "no");
  if (!query.IsBoolean()) {
    std::printf("%zu answers:\n", result->answers.size());
    for (const auto& answer : result->answers) {
      std::printf(" ");
      for (VertexId v : answer) std::printf(" %u", v);
      std::printf("\n");
    }
  }
  if (args.stats) {
    std::printf("stats:\n%s", session.Report().ToString().c_str());
    if (session.trace() != nullptr) {
      std::printf("profile:\n%s", session.PhaseProfile().ToString().c_str());
    }
  }
  if (!write_trace()) return 1;
  return result->satisfiable ? 0 : 1;
}

// profile: evaluate with tracing on and print the per-phase time breakdown.
// The run is single-threaded (num_threads = 1): on one thread spans nest
// properly, so the phase self-times telescope to the root span and the
// closing coverage line is meaningful (~100% minus untraced work).
int Profile(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  std::optional<GraphAndQuery> loaded = LoadGraphAndQuery(args);
  if (!loaded.has_value()) return 1;
  const auto& [db, query] = *loaded;

  EvalOptions options;
  if (!ParseEngine(args.engine, &options.engine)) return Usage();
  obs::Session session;
  session.EnableTrace();
  options.obs = &session;
  options.num_threads = 1;
  options.disable_cache = args.no_cache;
  Result<EvalResult> result = EvaluatePlanned(db, query, options);
  if (!result.ok()) {
    std::fprintf(stderr, "evaluation error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("satisfiable: %s, %zu answer(s)\n",
              result->satisfiable ? "yes" : "no", result->answers.size());
  std::printf("%s", session.PhaseProfile().ToString().c_str());
  return 0;
}

// trace-check: schema-validate an exported trace file (tools/ci.sh gate).
// Fails on malformed JSON, a missing/ill-typed traceEvents array, or an
// empty trace.
int TraceCheck(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  Result<std::string> text = ReadFile(args.positional[0]);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  const Status st = obs::ValidateTraceJson(*text, /*min_events=*/1);
  if (!st.ok()) {
    std::fprintf(stderr, "trace check failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("trace OK\n");
  return 0;
}

int Explain(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  std::optional<GraphAndQuery> loaded = LoadGraphAndQuery(args);
  if (!loaded.has_value()) return 1;
  const auto& [db, query] = *loaded;
  std::vector<VertexId> answer;
  for (size_t i = 2; i < args.positional.size(); ++i) {
    answer.push_back(
        static_cast<VertexId>(std::stoul(args.positional[i])));
  }
  Result<std::optional<Explanation>> explanation =
      ExplainAnswer(db, query, answer);
  if (!explanation.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 explanation.status().ToString().c_str());
    return 1;
  }
  if (!explanation->has_value()) {
    std::printf("not an answer\n");
    return 1;
  }
  const Status valid = ValidateExplanation(db, query, **explanation);
  std::printf("certificate (%s):\n%s", valid.ok() ? "valid" : "INVALID",
              (**explanation).ToString(query, db).c_str());
  return 0;
}

int Sat(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const Alphabet alphabet = Alphabet::OfChars(args.alphabet);
  Result<EcrpqQuery> query = ParseEcrpq(args.positional[0], alphabet);
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  Result<SatisfiabilityResult> sat = CheckSatisfiable(*query);
  if (!sat.ok()) {
    std::fprintf(stderr, "error: %s\n", sat.status().ToString().c_str());
    return 1;
  }
  if (!sat->satisfiable) {
    std::printf("unsatisfiable\n");
    return 1;
  }
  std::printf("satisfiable; witness database:\n%s",
              GraphDbToString(*sat->witness).c_str());
  return 0;
}

int Count(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  std::optional<GraphAndQuery> loaded = LoadGraphAndQuery(args);
  if (!loaded.has_value()) return 1;
  const auto& [db, query] = *loaded;
  Result<uint64_t> count = CountEcrpqNodeAssignments(db, query);
  if (!count.ok()) {
    std::fprintf(stderr, "error: %s\n", count.status().ToString().c_str());
    return 1;
  }
  std::printf("%llu satisfying node assignments\n",
              static_cast<unsigned long long>(*count));
  return 0;
}

int Dot(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  std::optional<GraphDb> db = LoadGraph(args);
  if (!db.has_value()) return 1;
  std::printf("%s", GraphDbToDot(*db).c_str());
  return 0;
}

int Parse(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const Alphabet alphabet = Alphabet::OfChars(args.alphabet);
  Result<EcrpqQuery> query = ParseEcrpq(args.positional[0], alphabet);
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", query->ToString().c_str());
  return 0;
}

int Serve(const Args& args) {
  if (args.admission != "reject" && args.admission != "queue") {
    std::fprintf(stderr, "unknown --admission policy '%s'\n",
                 args.admission.c_str());
    return Usage();
  }
  const int transports = (args.batch_path.empty() ? 0 : 1) +
                         (args.listen_unix.empty() ? 0 : 1) +
                         (args.listen_tcp >= 0 ? 1 : 0);
  if (transports != 1) {
    std::fprintf(stderr,
                 "serve needs exactly one of --batch / --listen-unix / "
                 "--listen-tcp\n");
    return Usage();
  }

  ServiceConfig config;
  config.pool_threads = args.pool;
  config.admission.max_concurrent = args.max_concurrent;
  config.admission.max_total_product_states = args.max_states;
  config.admission.max_total_memory_bytes = args.max_mem;
  config.admission.policy = args.admission == "queue" ? OverflowPolicy::kQueue
                                                      : OverflowPolicy::kReject;
  config.admission.queue_deadline_millis = args.queue_ms;
  config.default_budget.max_product_states = args.budget_states;
  config.default_budget.max_memory_bytes = args.budget_mem;
  config.default_budget.timeout_millis = args.budget_ms;
  config.disable_cache = args.no_cache;
  config.telemetry = !args.no_telemetry;
  config.event_log_path = args.event_log_path;
  config.slow_ms = args.slow_ms;
  config.postmortem_dir = args.postmortem_dir;

  std::unique_ptr<QueryService> service;
  if (!args.graph_path.empty()) {
    Result<std::string> text = ReadFile(args.graph_path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    Result<GraphDb> db = GraphDbFromString(*text);
    if (!db.ok()) {
      std::fprintf(stderr, "graph parse error: %s\n",
                   db.status().ToString().c_str());
      return 1;
    }
    service = std::make_unique<QueryService>(config, *std::move(db));
  } else {
    service = std::make_unique<QueryService>(config);
  }

  // A misconfigured sink is a startup error, not a silently-dark log.
  if (service->event_log() != nullptr && !service->event_log()->ok()) {
    std::fprintf(stderr, "cannot open event log %s\n",
                 args.event_log_path.c_str());
    return 1;
  }
  if (!args.postmortem_dir.empty()) {
    obs::Trace::InstallFatalSignalDump(args.postmortem_dir +
                                       "/postmortem_fatal.json");
  }

  if (!args.batch_path.empty()) {
    if (args.batch_path == "-") {
      const Status s = RunBatch(*service, std::cin, std::cout);
      return s.ok() ? 0 : 1;
    }
    std::ifstream in(args.batch_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.batch_path.c_str());
      return 1;
    }
    const Status s = RunBatch(*service, in, std::cout);
    return s.ok() ? 0 : 1;
  }

  SocketServer server(service.get());
  if (!args.listen_unix.empty()) {
    const Status s = server.ListenUnix(args.listen_unix);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "listening on unix:%s\n", args.listen_unix.c_str());
  } else {
    int port = 0;
    const Status s = server.ListenTcp(args.listen_tcp, &port);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    // The scripted socket tests scrape this line for the ephemeral port.
    std::fprintf(stderr, "listening on tcp:127.0.0.1:%d\n", port);
  }
  std::fflush(stderr);
  server.Serve();
  return 0;
}

// top: live metrics view. Connects to a serving ecrpq_cli, polls the
// `stats` op with format=prometheus and repaints the exposition — a
// scrape-by-hand client for the same bytes a metrics collector would pull.
namespace {

int ConnectToServer(const Args& args) {
  if (!args.connect_unix.empty()) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (args.connect_unix.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      return -1;
    }
    std::memcpy(addr.sun_path, args.connect_unix.c_str(),
                args.connect_unix.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(args.connect_tcp));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads one '\n'-terminated line, buffering any over-read in `pending`.
bool ReadLine(int fd, std::string* pending, std::string* line) {
  while (true) {
    const size_t pos = pending->find('\n');
    if (pos != std::string::npos) {
      *line = pending->substr(0, pos);
      pending->erase(0, pos + 1);
      return true;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    pending->append(buf, static_cast<size_t>(n));
  }
}

}  // namespace

int Top(const Args& args) {
  if (args.connect_unix.empty() && args.connect_tcp < 0) {
    std::fprintf(
        stderr, "top needs --connect-unix=<path> or --connect-tcp=<port>\n");
    return Usage();
  }
  const int fd = ConnectToServer(args);
  if (fd < 0) {
    std::fprintf(stderr, "top: cannot connect to server\n");
    return 1;
  }
  std::string pending;
  int exit_code = 0;
  for (int i = 0; args.iterations == 0 || i < args.iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(args.interval_ms));
    }
    const std::string request = "{\"id\":\"top" + std::to_string(i + 1) +
                                "\",\"op\":\"stats\","
                                "\"format\":\"prometheus\"}\n";
    std::string line;
    if (!WriteAll(fd, request) || !ReadLine(fd, &pending, &line)) {
      std::fprintf(stderr, "top: connection lost\n");
      exit_code = 1;
      break;
    }
    Result<json::Value> doc = json::Parse(line);
    std::string exposition;
    if (!doc.ok() || !doc->is_object() ||
        !doc->GetString("exposition", &exposition)) {
      std::fprintf(stderr, "top: unexpected response: %s\n", line.c_str());
      exit_code = 1;
      break;
    }
    if (!args.no_clear) std::printf("\x1b[H\x1b[2J");
    std::printf("%s", exposition.c_str());
    std::fflush(stdout);
  }
  ::close(fd);
  return exit_code;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args = ParseArgs(argc, argv);
  if (command == "classify") return Classify(args);
  if (command == "check") return Check(args);
  if (command == "eval") return Eval(args);
  if (command == "profile") return Profile(args);
  if (command == "trace-check") return TraceCheck(args);
  if (command == "sat") return Sat(args);
  if (command == "explain") return Explain(args);
  if (command == "simplify") return Simplify(args);
  if (command == "count") return Count(args);
  if (command == "dot") return Dot(args);
  if (command == "parse") return Parse(args);
  if (command == "serve") return Serve(args);
  if (command == "top") return Top(args);
  return Usage();
}

}  // namespace internal_cli
}  // namespace ecrpq

int main(int argc, char** argv) {
  return ecrpq::internal_cli::Main(argc, argv);
}
