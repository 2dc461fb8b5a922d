// ecrpq::obs — the observability & resource-governance session threaded
// through the engines.
//
// One obs::Session spans one evaluation (or a batch the caller wants
// observed together). It bundles:
//  - Metrics: lock-free per-worker counter shards, deterministically
//    aggregated into a StatsReport (common/metrics.h);
//  - Trace: RAII spans recorded into a bounded buffer and rendered as
//    chrome://tracing JSON on demand, opt-in via EnableTrace()
//    (common/trace.h);
//  - EvalBudget: cooperative resource limits (product states, visited-set
//    memory, wall-clock deadline), the only work limits an evaluation
//    obeys. Workers poll CheckBudget() at a coarse stride; when a limit is
//    crossed the session trips an atomic flag and its CancelToken,
//    in-flight work unwinds, and the evaluation entry point returns
//    Status::ResourceExhausted. The partial StatsReport stays readable on
//    the session (Report()) — the "what had it done so far" channel for
//    budget post-mortems. A nested evaluation with limits of its own (the
//    adaptive engine's phase 1) runs under a session of its own and folds
//    its counters into the enclosing one (MetricsShard::Absorb).
//
// Determinism contract: attaching a session with metrics/tracing (no
// budget) never changes answers, cutoff behavior, or callback sequences —
// observation only reads. A budget can of course cut an evaluation short;
// the outcome is then either the exact un-budgeted result or a clean
// ResourceExhausted, never a third behavior.
//
// Sessions are not reusable across evaluations that need separate reports:
// counters accumulate monotonically.
#ifndef ECRPQ_COMMON_OBS_H_
#define ECRPQ_COMMON_OBS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/annotations.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace ecrpq {
namespace obs {

// Cooperative resource limits. 0 always means "no limit on this axis";
// arming a budget requires at least one axis to be limited (CheckInvariants
// fires otherwise — arming an all-unlimited budget is a programmer error).
struct EvalBudget {
  // Evaluation-wide cap on product states interned across every search
  // (kProductStatesExpanded). It also bounds the relations the Lemma 4.3
  // pipeline materializes: each row is an accepting state some search
  // interned.
  uint64_t max_product_states = 0;
  // Cap on bytes allocated for visited-set tracking (kVisitedBytes).
  uint64_t max_memory_bytes = 0;
  // Wall-clock limit, applied from the moment the budget is armed
  // (Session::SetBudget). Must be non-negative.
  int64_t timeout_millis = 0;

  bool Unlimited() const {
    return max_product_states == 0 && max_memory_bytes == 0 &&
           timeout_millis == 0;
  }

  // This budget with the product-state cap lowered to `cap` (non-zero)
  // unless it is already at most that.
  EvalBudget WithProductStateCap(uint64_t cap) const {
    EvalBudget capped = *this;
    if (max_product_states == 0 || max_product_states > cap) {
      capped.max_product_states = cap;
    }
    return capped;
  }

  // Always-on invariant checks (PR 1 dcheck.h pattern: the method uses
  // ECRPQ_CHECK so tests can demonstrate the failure in every build mode;
  // Session::SetBudget invokes it on the arming path).
  void CheckInvariants() const;
};

class Session {
 public:
  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  // Tracing is off (trace() == nullptr, spans are no-ops) until enabled.
  // EnableTrace() gives the session a buffer of its own. EnableTrace(buffer)
  // records into a caller's buffer instead (the query service's
  // per-session one); PhaseProfile() then folds only the events recorded
  // after the call.
  void EnableTrace();
  void EnableTrace(Trace* buffer);
  Trace* trace() { return trace_; }

  // Request-scoped trace id (wire-propagated by the query service, empty
  // outside a service context). Set once before evaluation starts; spans
  // recorded under this session belong to this id, which is what makes
  // concurrent sessions' traces linkable after export
  // (Trace::ToJson(trace_id, ...)).
  void SetTraceId(std::string trace_id) { trace_id_ = std::move(trace_id); }
  const std::string& trace_id() const { return trace_id_; }

  // Arms (or re-arms) the budget. Invariants, enforced in every build mode:
  //  - at least one limit is non-zero and timeout_millis >= 0
  //    (EvalBudget::CheckInvariants);
  //  - deadline monotonicity: re-arming may only keep or tighten an
  //    already-armed deadline, never push it later.
  // Arming state lives under arm_mutex_ so a re-arm can race a worker's
  // CheckBudget() poll without tearing.
  void SetBudget(const EvalBudget& budget) ECRPQ_EXCLUDES(arm_mutex_);
  bool armed() const ECRPQ_EXCLUDES(arm_mutex_) {
    MutexLock lock(arm_mutex_);
    return armed_;
  }
  // By value: a reference could dangle across a concurrent re-arm.
  EvalBudget budget() const ECRPQ_EXCLUDES(arm_mutex_) {
    MutexLock lock(arm_mutex_);
    return budget_;
  }

  // Fast path for hot loops: has some limit already tripped?
  bool Exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

  // Re-evaluates the armed limits against the current counters and clock;
  // trips Exhausted() and the cancel token when one is crossed. Returns
  // Exhausted(). Cheap enough for a ~1k-iteration stride, not for every
  // iteration. No-op (false) when no budget is armed.
  bool CheckBudget() ECRPQ_EXCLUDES(arm_mutex_);

  // Fired when the budget trips; engines already polling a CancelToken can
  // share this one.
  CancelToken* cancel_token() { return &cancel_; }

  // "max_product_states", "max_memory_bytes" or "deadline"; nullptr while
  // not exhausted.
  const char* exhausted_reason() const {
    return reason_.load(std::memory_order_relaxed);
  }

  // ResourceExhausted carrying the reason, or OK when not exhausted.
  Status ExhaustedStatus() const;

  // Deterministic aggregate of everything counted so far — complete after
  // a successful run, partial after a budget trip.
  StatsReport Report() const { return metrics_.Aggregate(); }

  // Top-down time breakdown (self vs. cumulative per phase, per-thread and
  // folded) derived from the spans recorded so far. Meaningful only after
  // EnableTrace(); with tracing off the profile is empty. Qualified return
  // type: the method name shadows obs::PhaseProfile inside the class.
  obs::PhaseProfile PhaseProfile() const {
    if (trace_ == nullptr) return {};
    return BuildPhaseProfile(*trace_, trace_begin_);
  }

 private:
  void Trip(const char* reason);

  Metrics metrics_;
  std::unique_ptr<Trace> owned_trace_;
  Trace* trace_ = nullptr;
  uint64_t trace_begin_ = 0;  // First claim index of this session's events.
  std::string trace_id_;

  // Arming state: written by SetBudget, read by every CheckBudget poll.
  // The tripped flag itself stays lock-free (exhausted_ below) so the
  // Exhausted() fast path costs one relaxed load.
  mutable Mutex arm_mutex_;
  EvalBudget budget_ ECRPQ_GUARDED_BY(arm_mutex_);
  bool armed_ ECRPQ_GUARDED_BY(arm_mutex_) = false;
  bool has_deadline_ ECRPQ_GUARDED_BY(arm_mutex_) = false;
  std::chrono::steady_clock::time_point deadline_
      ECRPQ_GUARDED_BY(arm_mutex_){};

  std::atomic<bool> exhausted_{false};
  std::atomic<const char*> reason_{nullptr};
  CancelToken cancel_;
};

}  // namespace obs
}  // namespace ecrpq

#endif  // ECRPQ_COMMON_OBS_H_
