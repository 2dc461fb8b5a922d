#include "common/obs.h"

#include <string>

#include "common/check.h"

namespace ecrpq {
namespace obs {

void EvalBudget::CheckInvariants() const {
  ECRPQ_CHECK(!Unlimited())
      << "arming an EvalBudget with every limit unset (0 = unlimited on "
         "all axes) is a programmer error";
  ECRPQ_CHECK_GE(timeout_millis, 0);
}

void Session::EnableTrace() {
  if (owned_trace_ != nullptr) return;
  owned_trace_ = std::make_unique<Trace>();
  EnableTrace(owned_trace_.get());
}

void Session::EnableTrace(Trace* buffer) {
  trace_ = buffer;
  trace_begin_ = buffer->NumRecorded();
}

void Session::SetBudget(const EvalBudget& budget) {
  budget.CheckInvariants();
  MutexLock lock(arm_mutex_);
  budget_ = budget;
  if (budget.timeout_millis > 0) {
    const auto new_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(budget.timeout_millis);
    if (has_deadline_) {
      // Deadline monotonicity: a budget may be tightened mid-flight (e.g.
      // an outer layer clamping an inner one) but never loosened — workers
      // cache no deadline state, so a later deadline would retroactively
      // un-trip decisions already taken.
      ECRPQ_CHECK(new_deadline <= deadline_)
          << "re-arming an EvalBudget may only keep or tighten the "
             "deadline";
    }
    deadline_ = new_deadline;
    has_deadline_ = true;
  }
  armed_ = true;
}

bool Session::CheckBudget() {
  MutexLock lock(arm_mutex_);
  if (!armed_) return false;
  if (Exhausted()) return true;
  if (budget_.max_product_states != 0 &&
      metrics_.Total(CounterId::kProductStatesExpanded) >=
          budget_.max_product_states) {
    Trip("max_product_states");
  } else if (budget_.max_memory_bytes != 0 &&
             metrics_.Total(CounterId::kVisitedBytes) >=
                 budget_.max_memory_bytes) {
    Trip("max_memory_bytes");
  } else if (has_deadline_ &&
             std::chrono::steady_clock::now() >= deadline_) {
    Trip("deadline");
  }
  return Exhausted();
}

void Session::Trip(const char* reason) {
  reason_.store(reason, std::memory_order_relaxed);
  exhausted_.store(true, std::memory_order_relaxed);
  cancel_.Cancel();
}

Status Session::ExhaustedStatus() const {
  if (!Exhausted()) return Status::OK();
  const char* reason = exhausted_reason();
  return Status::ResourceExhausted(
      std::string("evaluation budget exhausted: ") +
      (reason != nullptr ? reason : "unknown limit"));
}

}  // namespace obs
}  // namespace ecrpq
