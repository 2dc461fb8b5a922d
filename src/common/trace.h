// Tracing: RAII spans recorded into a fixed-capacity ring of completed
// events, rendered on read as chrome://tracing JSON (the "Trace Event
// Format", complete events, ph:"X").
//
// A Span measures one region on one thread; on destruction it records a
// completed event into its Trace. Span construction against a null Trace*
// is a no-op (two stores), which is how observability-disabled runs pay
// nothing: the engine holds a null trace pointer and every span collapses.
//
// One buffer type serves every reader: obs::Session phase profiles, the
// query service's `trace` op and postmortem dumps, and the fatal-signal
// dump of the process-wide buffer (Process()). Nothing is rendered at
// record time; ToJson/WriteFile render on demand.
//
// Write path: Record claims the next index with one fetch_add, takes slot
// (claim % kCapacity) by swinging its stamp to "writing", stores the
// payload as relaxed atomic words and publishes stamp = claim + 1 with
// release order. Wait-free, no lock, no allocation. A writer whose slot is
// held by a writer a full lap away, or already holds a newer event, drops
// its own event instead of waiting — that takes kCapacity records landing
// inside one Record call.
//
// Read path: a reader copies a slot only when its stamp reads claim + 1
// both before and after the payload (a seqlock); every field is an atomic,
// so no read races a write, and a dump taken mid-write is always valid.
//
// Claim indices: NumRecorded() is the index the next event gets, so a
// caller that notes it before and after some work owns the claim range
// [begin, end) of that work's events. Events, ToJson and BuildPhaseProfile
// take such a range. Events older than NumRecorded() - kCapacity have been
// overwritten; a range renders whatever of it is left.
//
// Timestamps come from one process-wide origin (NowNs), so events from any
// buffer line up. Span names must be string literals (or otherwise outlive
// every buffer): events store the pointer. The optional `arg` renders as
// {"args":{"v":N}} — branch indices, component ids, request sequence
// numbers.
//
// Load a written file in chrome://tracing or https://ui.perfetto.dev.
#ifndef ECRPQ_COMMON_TRACE_H_
#define ECRPQ_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ecrpq {
namespace obs {

// Small dense id for the calling thread, stable for the thread's lifetime
// (process-wide numbering; the main thread is usually 0).
int CurrentTraceThreadId();

class Trace {
 public:
  // Events retained by every buffer: 16 served requests of ~10-30 spans
  // each, with room to spare.
  static constexpr size_t kCapacity = 1024;
  // Open end of a claim range.
  static constexpr uint64_t kEnd = ~uint64_t{0};

  struct Event {
    const char* name;
    int tid;
    uint64_t start_ns;  // NowNs() time base.
    uint64_t dur_ns;
    uint64_t arg;
    bool has_arg;
  };

  Trace();
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  // The process-wide buffer: the query service mirrors its request-level
  // events here, and the fatal-signal dump drains it.
  static Trace& Process();

  // Records a completed event. Thread-safe and wait-free.
  void Record(const char* name, int tid, uint64_t start_ns, uint64_t dur_ns);
  void Record(const char* name, int tid, uint64_t start_ns, uint64_t dur_ns,
              uint64_t arg);

  // Nanoseconds since the process-wide trace origin.
  static uint64_t NowNs();

  // Lifetime number of Record calls: the claim index of the next event.
  uint64_t NumRecorded() const {
    return next_.load(std::memory_order_acquire);
  }

  // Retained events, all of them or those with claim index in
  // [begin, end), sorted by (start, tid, name); NumEvents() counts all.
  size_t NumEvents() const;
  std::vector<Event> Events(uint64_t begin = 0, uint64_t end = kEnd) const;

  // Renders Events(begin, end) on a single line:
  //   {"traceEvents":[...],"displayTimeUnit":"ms"}
  // A non-empty `trace_id` adds a leading "traceId" key, which is how the
  // query service links an exported trace back to the wire trace_id it
  // was submitted under (chrome://tracing and ValidateTraceJson both
  // accept extra top-level keys).
  std::string ToJson(std::string_view trace_id = {}, uint64_t begin = 0,
                     uint64_t end = kEnd) const;
  // ToJson() plus a newline, to a file.
  Status WriteFile(const std::string& path,
                   std::string_view trace_id = {}) const;

  // Installs a handler for SIGSEGV/SIGABRT/SIGBUS/SIGFPE that writes
  // Process() to `path` with trace id "fatal-signal", then re-raises with
  // the default disposition so the exit status still reports the signal.
  // The handler allocates nothing and takes no lock: it walks the buffer
  // with atomic loads, formats into a fixed buffer and writes with
  // open(2)/write(2)/close(2). Last installation wins.
  static void InstallFatalSignalDump(const std::string& path);

 private:
  // Stamp of a slot whose payload a writer is storing.
  static constexpr uint64_t kWriting = ~uint64_t{0};

  struct Slot {
    // 0 = never written, claim + 1 = holds that claim's event, kWriting.
    std::atomic<uint64_t> stamp{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<int> tid{0};
    std::atomic<bool> has_arg{false};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> arg{0};
  };

  void Publish(const char* name, int tid, uint64_t start_ns, uint64_t dur_ns,
               uint64_t arg, bool has_arg);
  // Copies the published events with claim index in [begin, end) that are
  // still retained into `out` (room for kCapacity), oldest claim first;
  // returns how many. Allocates nothing, so the signal handler can use it.
  size_t Snapshot(uint64_t begin, uint64_t end, Event* out) const;
  static void FatalSignalHandler(int signo);

  std::atomic<uint64_t> next_{0};
  std::unique_ptr<Slot[]> slots_;
};

// RAII span. Usage:
//   obs::Span span(trace, "ReduceToCq");          // trace may be null
//   obs::Span span(trace, "branch", branch_index);
class Span {
 public:
  Span(Trace* trace, const char* name)
      : trace_(trace), name_(name), has_arg_(false), arg_(0) {
    if (trace_ != nullptr) start_ns_ = Trace::NowNs();
  }
  Span(Trace* trace, const char* name, uint64_t arg)
      : trace_(trace), name_(name), has_arg_(true), arg_(arg) {
    if (trace_ != nullptr) start_ns_ = Trace::NowNs();
  }
  ~Span() {
    if (trace_ == nullptr) return;
    const uint64_t end_ns = Trace::NowNs();
    if (has_arg_) {
      trace_->Record(name_, CurrentTraceThreadId(), start_ns_,
                     end_ns - start_ns_, arg_);
    } else {
      trace_->Record(name_, CurrentTraceThreadId(), start_ns_,
                     end_ns - start_ns_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_;
  const char* name_;
  bool has_arg_;
  uint64_t arg_;
  uint64_t start_ns_ = 0;
};

// Aggregated per-phase timing derived from a Trace's spans.
//
// "Cumulative" (total_ns) is the summed duration of every span with that
// name; "self" (self_ns) subtracts the time spent in spans nested inside it
// on the same thread, so for a properly nested single-thread trace the
// self times of all phases telescope to exactly the duration of the
// top-level span(s) — the invariant behind `ecrpq_cli profile`'s coverage
// line. Spans on different threads never nest into each other, so on a
// multi-thread trace the per-thread sections are exact while the folded
// self-time sum can exceed wall time (concurrent phases both count).
struct PhaseStats {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;  // Cumulative: sum of span durations.
  uint64_t self_ns = 0;   // Cumulative minus nested same-thread spans.
};

struct PhaseProfile {
  // Per-phase stats folded across threads, sorted by self_ns descending
  // (ties by name, so output is stable).
  std::vector<PhaseStats> folded;
  // The same breakdown per trace thread id, phases in the same order
  // discipline.
  std::vector<std::pair<int, std::vector<PhaseStats>>> per_thread;
  // First span start to last span end across the whole trace.
  uint64_t span_ns = 0;

  uint64_t TotalSelfNs() const;
  // Aligned table: phase, count, cumulative ms, self ms, self%; followed by
  // per-thread sections when more than one thread recorded spans, and a
  // closing "self-time coverage" line (TotalSelfNs / span_ns).
  std::string ToString() const;
};

// Builds the profile from the trace's retained events, all of them or
// those with claim index in [begin, end). Deterministic for a fixed set of
// events.
PhaseProfile BuildPhaseProfile(const Trace& trace, uint64_t begin = 0,
                               uint64_t end = Trace::kEnd);

// Schema check for an exported trace: the text must parse as JSON, carry a
// top-level "traceEvents" array, and every event must be an object with
// string "name"/"ph" and numeric "ts"/"dur"/"pid"/"tid" fields. With
// `min_events` > 0, additionally fails when the trace holds fewer events —
// the "non-empty trace" gate used by tools/ci.sh.
Status ValidateTraceJson(const std::string& text, size_t min_events = 0);

}  // namespace obs
}  // namespace ecrpq

#endif  // ECRPQ_COMMON_TRACE_H_
