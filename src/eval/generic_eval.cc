#include "eval/generic_eval.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/annotations.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "common/worklist.h"
#include "eval/merge.h"
#include "query/validate.h"

namespace ecrpq {
namespace {

constexpr VertexId kUnset = ~VertexId{0};

// Backtracking nodes between full budget checks. Exhaustion is observed via
// a relaxed flag load on every Stopped() call; the (counter totals + clock)
// check only runs at this stride.
constexpr size_t kEngineBudgetStride = 4096;

obs::Trace* TraceOf(const EvalOptions& options) {
  return options.obs != nullptr ? options.obs->trace() : nullptr;
}

// One answer recorded by a branch engine, in branch-local emission order.
// The parallel driver partitions the sequential enumeration by the value of
// one branch variable, lets workers record what each branch *would* emit,
// and replays the branches in value order — so the user-visible stream
// (dedup, max_answers cutoff, on_answer calls) is exactly the sequential
// one.
struct RecordedAnswer {
  std::vector<VertexId> answer;
  // Full node assignment; captured only for the first event of a branch
  // when EvalOptions::capture_assignment is set (the replay's first
  // consumed event is always some branch's first event).
  std::vector<VertexId> assignment;
};

struct Engine {
  Engine(const GraphDb& db, const EcrpqQuery& query,
         const EvalOptions& options, const std::vector<ComponentPlan>& plans)
      : db(db),
        query(query),
        options(options),
        plans(plans),
        shard(options.obs != nullptr ? options.obs->metrics().AcquireShard()
                                     : nullptr) {}

  const GraphDb& db;
  const EcrpqQuery& query;
  const EvalOptions& options;
  const std::vector<ComponentPlan>& plans;

  std::vector<std::unique_ptr<JoinMachine>> machines;
  std::vector<std::unique_ptr<TupleSearcher>> searchers;

  std::vector<VertexId> assignment;
  // In record mode this set persists across a worker's branches while
  // their values ascend (ResetForBranch clears it when they do not), so an
  // answer suppressed here was recorded by a smaller branch of the same
  // worker, which the ordered replay always consumes first.
  std::unordered_set<std::vector<VertexId>, VectorHash<VertexId>> answers;
  VertexId last_branch = 0;
  EvalResult result;
  bool done = false;

  // Record mode (parallel branches): Emit() appends locally-new answers to
  // *record instead of running the sequential side effects; max_answers and
  // on_answer are applied by the ordered replay on the coordinator thread.
  std::vector<RecordedAnswer>* record = nullptr;
  // Cooperative cancellation, flipped by the coordinator once the replay
  // has everything it needs (or an abort stopped it).
  const CancelToken* cancel = nullptr;
  // Boolean queries: the least branch some worker found satisfied. The
  // ordered replay stops at or before it, so a branch above it is never
  // consumed and its search stops (Stopped()).
  const std::atomic<VertexId>* least_satisfied = nullptr;

  // Metrics shard of this engine (one engine == one worker thread); null
  // when no obs session is attached.
  obs::MetricsShard* shard;
  // Started at engine construction — the zero point for kAnswerLatencyNs.
  obs::AnswerLatency answer_latency{shard};
  // Stopped() is called on hot paths and must stay const; the budget tick
  // counter is bookkeeping, not engine state.
  mutable size_t budget_tick = 0;

  Status InitSearchers() {
    obs::Span span(TraceOf(options), "JoinMachine::Create");
    obs::ScopedTimer timer(shard, obs::HistogramId::kPhaseNfaBuildNs);
    for (const ComponentPlan& plan : plans) {
      ECRPQ_ASSIGN_OR_RAISE(
          JoinMachine machine,
          JoinMachine::Create(query.alphabet(), plan.machine_components,
                              static_cast<int>(plan.paths.size())));
      machines.push_back(std::make_unique<JoinMachine>(std::move(machine)));
      TupleSearchOptions search_options;
      search_options.disable_memo = options.disable_memo;
      search_options.obs = options.obs;
      ECRPQ_ASSIGN_OR_RAISE(
          TupleSearcher searcher,
          TupleSearcher::Create(&db, machines.back().get(), search_options));
      searchers.push_back(
          std::make_unique<TupleSearcher>(std::move(searcher)));
    }
    return Status();  // Default-constructed == OK.
  }

  void ResetForBranch(VertexId branch,
                      std::vector<RecordedAnswer>* branch_record) {
    // A worker runs its own chunks in ascending order, but a steal takes a
    // victim's largest chunk, so its branch values can drop.
    if (branch < last_branch) answers.clear();
    last_branch = branch;
    record = branch_record;
    done = false;
    result.satisfiable = false;
  }

  bool Stopped() const {
    if (done) return true;
    if (cancel != nullptr && cancel->IsCancelled()) return true;
    if (least_satisfied != nullptr &&
        last_branch > least_satisfied->load(std::memory_order_relaxed)) {
      return true;
    }
    if (options.obs != nullptr) {
      if (options.obs->Exhausted()) return true;
      if ((++budget_tick & (kEngineBudgetStride - 1)) == 0 &&
          options.obs->CheckBudget()) {
        return true;
      }
    }
    return false;
  }

  void Emit() {
    std::vector<VertexId> answer;
    answer.reserve(query.free_vars().size());
    for (NodeVarId v : query.free_vars()) answer.push_back(assignment[v]);
    if (record != nullptr) {
      const auto [it, inserted] = answers.insert(std::move(answer));
      if (inserted) {
        obs::Add(shard, obs::CounterId::kAnswersEmitted);
        answer_latency.Record();
        RecordedAnswer rec;
        rec.answer = *it;
        if (options.capture_assignment && record->empty()) {
          rec.assignment = assignment;
        }
        record->push_back(std::move(rec));
      }
      result.satisfiable = true;  // Branch-local; the replay recomputes it.
      if (query.IsBoolean()) done = true;
      return;
    }
    const auto [it, inserted] = answers.insert(std::move(answer));
    if (inserted) {
      obs::Add(shard, obs::CounterId::kAnswersEmitted);
      answer_latency.Record();
    }
    if (inserted && options.on_answer && !options.on_answer(*it)) {
      done = true;
    }
    if (options.capture_assignment && !result.satisfiable) {
      result.first_assignment = assignment;
    }
    result.satisfiable = true;
    if (query.IsBoolean() ||
        (options.max_answers != 0 && answers.size() >= options.max_answers)) {
      done = true;
    }
  }

  // Stage 3: free variables that occur in no reachability atom range over
  // the whole vertex set.
  void AssignIsolated(const std::vector<NodeVarId>& isolated_free,
                      size_t idx) {
    if (Stopped()) return;
    if (idx == isolated_free.size()) {
      Emit();
      return;
    }
    const NodeVarId v = isolated_free[idx];
    if (assignment[v] != kUnset) {  // Pinned.
      AssignIsolated(isolated_free, idx + 1);
      return;
    }
    for (VertexId value = 0;
         value < static_cast<VertexId>(db.NumVertices()) && !Stopped();
         ++value) {
      assignment[v] = value;
      AssignIsolated(isolated_free, idx + 1);
    }
    assignment[v] = kUnset;
  }

  // Stage 2 for one component: source variables are fully assigned; iterate
  // accepting target tuples and bind target variables.
  void SolveTargets(size_t comp, const std::vector<NodeVarId>& isolated_free) {
    const ComponentPlan& plan = plans[comp];
    std::vector<VertexId> sources(plan.paths.size());
    for (size_t i = 0; i < plan.paths.size(); ++i) {
      sources[i] = assignment[plan.sources[i]];
      ECRPQ_DCHECK(sources[i] != kUnset);
    }
    const ReachSet& reach = searchers[comp]->Reach(sources);
    if (reach.aborted) return;  // The budget tripped: Stopped() from here.
    // Target tuples in the searcher's sorted order, r ids each.
    const size_t r = plan.paths.size();
    for (size_t t = 0; t < reach.targets.size(); t += r) {
      obs::Add(shard, obs::CounterId::kAssignmentsTried);
      std::vector<NodeVarId> newly;
      bool consistent = true;
      for (size_t i = 0; i < r && consistent; ++i) {
        const NodeVarId tv = plan.targets[i];
        if (assignment[tv] == kUnset) {
          assignment[tv] = reach.targets[t + i];
          newly.push_back(tv);
        } else if (assignment[tv] != reach.targets[t + i]) {
          consistent = false;
        }
      }
      if (consistent) SolveComponent(comp + 1, isolated_free);
      for (NodeVarId v : newly) assignment[v] = kUnset;
      if (Stopped()) return;
    }
  }

  // Stage 1 for one component: enumerate values for unassigned source
  // variables, then hand over to SolveTargets.
  void SolveSources(size_t comp, const std::vector<NodeVarId>& unassigned,
                    size_t idx, const std::vector<NodeVarId>& isolated_free) {
    if (Stopped()) return;
    if (idx == unassigned.size()) {
      SolveTargets(comp, isolated_free);
      return;
    }
    const NodeVarId v = unassigned[idx];
    for (VertexId value = 0;
         value < static_cast<VertexId>(db.NumVertices()) && !Stopped();
         ++value) {
      obs::Add(shard, obs::CounterId::kAssignmentsTried);
      assignment[v] = value;
      SolveSources(comp, unassigned, idx + 1, isolated_free);
    }
    assignment[v] = kUnset;
  }

  void SolveComponent(size_t comp,
                      const std::vector<NodeVarId>& isolated_free) {
    if (Stopped()) return;
    if (comp == plans.size()) {
      AssignIsolated(isolated_free, 0);
      return;
    }
    SolveSources(comp, UnassignedSources(comp), 0, isolated_free);
  }

  std::vector<NodeVarId> UnassignedSources(size_t comp) const {
    std::vector<NodeVarId> unassigned;
    for (NodeVarId v : plans[comp].sources) {
      if (assignment[v] == kUnset &&
          std::find(unassigned.begin(), unassigned.end(), v) ==
              unassigned.end()) {
        unassigned.push_back(v);
      }
    }
    return unassigned;
  }
};

// Branch-parallel evaluation: partition the sequential enumeration by the
// value of the first unassigned source variable of the first component,
// search branches concurrently (each worker owns a full engine and reuses
// its searcher memo across the branches it claims), then replay recorded
// answers in branch order. See docs/ARCHITECTURE.md, "Threading model".
Result<EvalResult> EvaluateParallel(
    const GraphDb& db, const EcrpqQuery& query, const EvalOptions& options,
    const std::vector<ComponentPlan>& plans,
    const std::vector<VertexId>& base_assignment,
    const std::vector<NodeVarId>& isolated_free, NodeVarId branch_var,
    int threads) {
  db.Finalize();  // The lazy CSR build is not thread-safe; do it up front.
  const VertexId n = static_cast<VertexId>(db.NumVertices());
  const int num_workers = std::min<int>(threads, static_cast<int>(n));

  CancelToken cancel;
  // Boolean queries only: the replay of a satisfied branch ends the run,
  // so every branch above the least satisfied one can be skipped without
  // changing the outcome, the on_answer calls or a budget error.
  std::atomic<VertexId> least_satisfied{n};
  const bool skip_above_satisfied = query.IsBoolean();
  std::vector<std::unique_ptr<Engine>> engines;
  engines.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    engines.push_back(std::make_unique<Engine>(db, query, options, plans));
    ECRPQ_RETURN_NOT_OK(engines.back()->InitSearchers());
    engines.back()->cancel = &cancel;
    if (skip_above_satisfied) {
      engines.back()->least_satisfied = &least_satisfied;
    }
  }

  std::vector<std::vector<RecordedAnswer>> branches(n);
  // Coordinator handshake: workers mark a branch ready under the mutex and
  // the replay thread waits for branches in value order. branches[b] itself
  // is published by the ready flip (write before, read after).
  struct Coordinator {
    explicit Coordinator(size_t n) : ready(n, 0) {}
    Mutex mutex;
    CondVar cv;
    std::vector<char> ready ECRPQ_GUARDED_BY(mutex);
  };
  Coordinator coord(n);

  // Branch values are distributed through the work-stealing scheduler:
  // worker w exclusively drives engines[w] (searcher memos are single-owner
  // state), chunks of adjacent branch values keep memo locality, and idle
  // workers steal whole chunks from busy ones — a branch with a heavy
  // subtree no longer serializes the tail of the enumeration behind it.
  // Start() returns immediately, so the ordered replay below runs
  // concurrently with the search.
  obs::MetricsShard* sched_shard = options.obs != nullptr
                                       ? options.obs->metrics().AcquireShard()
                                       : nullptr;
  FrontierScheduler scheduler(ThreadPool::Shared(threads), sched_shard);
  scheduler.Start(n, [&](size_t b, int w) {
    ECRPQ_DCHECK(static_cast<size_t>(w) < engines.size());
    const VertexId branch = static_cast<VertexId>(b);
    if (!cancel.IsCancelled() &&
        branch <= least_satisfied.load(std::memory_order_relaxed)) {
      Engine& eng = *engines[w];
      obs::Span branch_span(TraceOf(options), "EvaluateGeneric.branch", b);
      obs::Add(eng.shard, obs::CounterId::kBranchesExplored);
      obs::ScopedTimer branch_timer(eng.shard,
                                    obs::HistogramId::kPhaseBranchNs);
      eng.ResetForBranch(branch, &branches[b]);
      eng.assignment = base_assignment;
      eng.assignment[branch_var] = branch;
      eng.SolveComponent(0, isolated_free);
      if (skip_above_satisfied && eng.result.satisfiable) {
        VertexId least = least_satisfied.load(std::memory_order_relaxed);
        while (branch < least &&
               !least_satisfied.compare_exchange_weak(
                   least, branch, std::memory_order_relaxed)) {
        }
      }
    }
    {
      MutexLock lock(coord.mutex);
      coord.ready[b] = 1;
    }
    coord.cv.NotifyAll();
  });

  // Ordered replay on this thread: consume branches in value order and
  // apply the sequential side effects (global dedup, callback, cutoffs).
  EvalResult result;
  std::unordered_set<std::vector<VertexId>, VectorHash<VertexId>> global;
  bool stopped = false;
  bool any_event = false;
  for (VertexId b = 0; b < n && !stopped; ++b) {
    {
      MutexLock lock(coord.mutex);
      while (coord.ready[b] == 0) coord.cv.Wait(coord.mutex);
    }
    // A branch the budget cut short holds a partial record, and the run
    // ends in ResourceExhausted below: stream nothing more.
    if (options.obs != nullptr && options.obs->Exhausted()) break;
    for (const RecordedAnswer& event : branches[b]) {
      if (!any_event && options.capture_assignment) {
        result.first_assignment = event.assignment;
      }
      any_event = true;
      result.satisfiable = true;
      const auto [it, inserted] = global.insert(event.answer);
      if (inserted && options.on_answer && !options.on_answer(*it)) {
        stopped = true;
        break;
      }
      if (query.IsBoolean() ||
          (options.max_answers != 0 &&
           global.size() >= options.max_answers)) {
        stopped = true;
        break;
      }
    }
  }
  cancel.Cancel();
  scheduler.Wait();

  // Final check (not just Exhausted()): a run whose totals crossed the
  // budget never returns OK, even when it finished between poll strides.
  if (options.obs != nullptr && options.obs->CheckBudget()) {
    return options.obs->ExhaustedStatus();
  }

  result.answers.assign(global.begin(), global.end());
  std::sort(result.answers.begin(), result.answers.end());
  return result;
}

}  // namespace

Result<EvalResult> EvaluateGeneric(const GraphDb& db, const EcrpqQuery& query,
                                   const EvalOptions& options) {
  if (options.engine.has_value() && *options.engine != EngineChoice::kGeneric) {
    return Status::Invalid(
        "EvaluateGeneric runs only the generic engine; route other engines "
        "through EvaluatePlanned");
  }
  obs::Span span(TraceOf(options), "EvaluateGeneric");
  ECRPQ_RETURN_NOT_OK(ValidateQueryForDb(query, db.alphabet()));

  EvalResult empty_result;
  if (db.NumVertices() == 0) {
    empty_result.satisfiable = (query.NumNodeVars() == 0);
    if (empty_result.satisfiable) empty_result.answers.push_back({});
    return empty_result;
  }

  std::vector<ComponentPlan> plans = PlanComponents(query);
  // Solve small components first: they bind variables cheaply and their
  // memoized reach sets are reused across backtracking branches.
  std::sort(plans.begin(), plans.end(),
            [](const ComponentPlan& a, const ComponentPlan& b) {
              return a.paths.size() < b.paths.size();
            });

  std::vector<VertexId> base_assignment(query.NumNodeVars(), kUnset);
  for (const auto& [var, value] : options.pin) {
    if (var >= static_cast<NodeVarId>(query.NumNodeVars())) {
      return Status::Invalid("pinned variable out of range");
    }
    if (value >= static_cast<VertexId>(db.NumVertices())) {
      return Status::Invalid("pinned value out of range");
    }
    base_assignment[var] = value;
  }

  // Free variables not touched by any reachability atom.
  std::vector<NodeVarId> isolated_free;
  {
    std::vector<bool> covered(query.NumNodeVars(), false);
    for (const ReachAtom& atom : query.reach_atoms()) {
      covered[atom.from] = true;
      covered[atom.to] = true;
    }
    for (NodeVarId v : query.free_vars()) {
      if (!covered[v]) isolated_free.push_back(v);
    }
  }

  const int threads = ThreadPool::ResolveNumThreads(options.num_threads);
  if (threads > 1 && db.NumVertices() > 1 && !plans.empty()) {
    // Branch on the first value the sequential engine would enumerate: the
    // first unassigned source variable of the first component.
    std::vector<NodeVarId> unassigned;
    for (NodeVarId v : plans[0].sources) {
      if (base_assignment[v] == kUnset &&
          std::find(unassigned.begin(), unassigned.end(), v) ==
              unassigned.end()) {
        unassigned.push_back(v);
      }
    }
    if (!unassigned.empty()) {
      return EvaluateParallel(db, query, options, plans, base_assignment,
                              isolated_free, unassigned[0], threads);
    }
  }

  Engine engine(db, query, options, plans);
  ECRPQ_RETURN_NOT_OK(engine.InitSearchers());
  engine.assignment = base_assignment;
  engine.SolveComponent(0, isolated_free);

  // Final check, as in EvaluateParallel: totals that crossed the budget
  // between poll strides still surface as ResourceExhausted.
  if (options.obs != nullptr && options.obs->CheckBudget()) {
    return options.obs->ExhaustedStatus();
  }

  engine.result.answers.assign(engine.answers.begin(), engine.answers.end());
  std::sort(engine.result.answers.begin(), engine.result.answers.end());
  return engine.result;
}

}  // namespace ecrpq
