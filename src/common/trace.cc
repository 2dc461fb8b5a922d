#include "common/trace.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/json.h"

namespace ecrpq {
namespace obs {

int CurrentTraceThreadId() {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Trace::Trace() : slots_(new Slot[kCapacity]) {}

Trace& Trace::Process() {
  static Trace* process = new Trace();  // Leaked: signal handlers read it.
  return *process;
}

uint64_t Trace::NowNs() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

void Trace::Record(const char* name, int tid, uint64_t start_ns,
                   uint64_t dur_ns) {
  Publish(name, tid, start_ns, dur_ns, 0, false);
}

void Trace::Record(const char* name, int tid, uint64_t start_ns,
                   uint64_t dur_ns, uint64_t arg) {
  Publish(name, tid, start_ns, dur_ns, arg, true);
}

void Trace::Publish(const char* name, int tid, uint64_t start_ns,
                    uint64_t dur_ns, uint64_t arg, bool has_arg) {
  const uint64_t claim = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[claim % kCapacity];
  // Take the slot. A stamp above `claim` is kWriting or a newer event:
  // drop this one rather than wait or overwrite.
  uint64_t stamp = slot.stamp.load(std::memory_order_relaxed);
  if (stamp > claim ||
      !slot.stamp.compare_exchange_strong(stamp, kWriting,
                                          std::memory_order_relaxed)) {
    return;
  }
  // Orders the kWriting stamp before the payload for a reader that sees
  // any of the new payload (it re-checks the stamp after an acquire fence).
  std::atomic_thread_fence(std::memory_order_release);
  slot.name.store(name, std::memory_order_relaxed);
  slot.tid.store(tid, std::memory_order_relaxed);
  slot.has_arg.store(has_arg, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  slot.stamp.store(claim + 1, std::memory_order_release);
}

size_t Trace::Snapshot(uint64_t begin, uint64_t end, Event* out) const {
  const uint64_t next = NumRecorded();
  const uint64_t lo =
      std::max(begin, next > kCapacity ? next - kCapacity : uint64_t{0});
  const uint64_t hi = std::min(end, next);
  size_t n = 0;
  for (uint64_t i = lo; i < hi; ++i) {
    const Slot& slot = slots_[i % kCapacity];
    // Unpublished, mid-write, dropped or already overwritten: skip.
    if (slot.stamp.load(std::memory_order_acquire) != i + 1) continue;
    const Event e{slot.name.load(std::memory_order_relaxed),
                  slot.tid.load(std::memory_order_relaxed),
                  slot.start_ns.load(std::memory_order_relaxed),
                  slot.dur_ns.load(std::memory_order_relaxed),
                  slot.arg.load(std::memory_order_relaxed),
                  slot.has_arg.load(std::memory_order_relaxed)};
    std::atomic_thread_fence(std::memory_order_acquire);
    // A writer that took the slot meanwhile may have torn the copy.
    if (slot.stamp.load(std::memory_order_relaxed) != i + 1) continue;
    out[n++] = e;
  }
  return n;
}

size_t Trace::NumEvents() const { return Events().size(); }

std::vector<Trace::Event> Trace::Events(uint64_t begin, uint64_t end) const {
  const uint64_t next = NumRecorded();
  const uint64_t lo =
      std::max(begin, next > kCapacity ? next - kCapacity : uint64_t{0});
  const uint64_t hi = std::min(end, next);
  // Snapshot re-reads NumRecorded(), which only grows, so its window is a
  // subset of [lo, hi).
  std::vector<Event> events(hi > lo ? hi - lo : 0);
  events.resize(Snapshot(lo, hi, events.data()));
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return std::strcmp(a.name, b.name) < 0;
  });
  return events;
}

// ---------------------------------------------------------------------------
// Rendering.

namespace {

// Formats into a fixed buffer and hands each full buffer to `flush`: a
// string append for ToJson, write(2) for the fatal-signal dump. Nothing
// here allocates.
class TraceWriter {
 public:
  using Flush = void (*)(void* sink, const char* data, size_t size);

  TraceWriter(Flush flush, void* sink) : flush_(flush), sink_(sink) {}
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;
  ~TraceWriter() { Drain(); }

  void Put(std::string_view s) {
    while (!s.empty()) {
      if (size_ == sizeof(buf_)) Drain();
      const size_t n = std::min(s.size(), sizeof(buf_) - size_);
      std::memcpy(buf_ + size_, s.data(), n);
      size_ += n;
      s.remove_prefix(n);
    }
  }

  void PutUint(uint64_t v) {
    char digits[20];
    size_t n = sizeof(digits);
    do {
      digits[--n] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    Put(std::string_view(digits + n, sizeof(digits) - n));
  }

  // Trace Event Format timestamps are microseconds; keep ns precision as a
  // three-digit fraction.
  void PutMicros(uint64_t ns) {
    PutUint(ns / 1000);
    const uint64_t frac = ns % 1000;
    const char digits[4] = {'.', static_cast<char>('0' + frac / 100),
                            static_cast<char>('0' + frac / 10 % 10),
                            static_cast<char>('0' + frac % 10)};
    Put(std::string_view(digits, sizeof(digits)));
  }

  void PutEscaped(std::string_view s) {
    JsonEscapeTo(s, [this](std::string_view piece) { Put(piece); });
  }

  void Drain() {
    if (size_ > 0) flush_(sink_, buf_, size_);
    size_ = 0;
  }

 private:
  Flush flush_;
  void* sink_;
  char buf_[512];
  size_t size_ = 0;
};

// The one Trace Event Format renderer, on a single line.
void RenderTraceJson(std::string_view trace_id, const Trace::Event* events,
                     size_t num_events, TraceWriter* out) {
  out->Put("{");
  if (!trace_id.empty()) {
    out->Put("\"traceId\":\"");
    out->PutEscaped(trace_id);
    out->Put("\",");
  }
  out->Put("\"traceEvents\":[");
  for (size_t i = 0; i < num_events; ++i) {
    const Trace::Event& e = events[i];
    out->Put(i == 0 ? "{\"name\":\"" : ",{\"name\":\"");
    out->PutEscaped(e.name);
    out->Put("\",\"cat\":\"ecrpq\",\"ph\":\"X\",\"pid\":0,\"tid\":");
    out->PutUint(static_cast<uint64_t>(e.tid));
    out->Put(",\"ts\":");
    out->PutMicros(e.start_ns);
    out->Put(",\"dur\":");
    out->PutMicros(e.dur_ns);
    if (e.has_arg) {
      out->Put(",\"args\":{\"v\":");
      out->PutUint(e.arg);
      out->Put("}");
    }
    out->Put("}");
  }
  out->Put("],\"displayTimeUnit\":\"ms\"}");
}

void AppendToString(void* sink, const char* data, size_t size) {
  static_cast<std::string*>(sink)->append(data, size);
}

void WriteToFd(void* sink, const char* data, size_t size) {
  const int fd = *static_cast<const int*>(sink);
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    data += n;
    size -= static_cast<size_t>(n);
  }
}

}  // namespace

std::string Trace::ToJson(std::string_view trace_id, uint64_t begin,
                          uint64_t end) const {
  const std::vector<Event> events = Events(begin, end);
  std::string out;
  out.reserve(64 + events.size() * 120);
  {
    TraceWriter writer(AppendToString, &out);
    RenderTraceJson(trace_id, events.data(), events.size(), &writer);
  }
  return out;
}

Status Trace::WriteFile(const std::string& path,
                        std::string_view trace_id) const {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  out << ToJson(trace_id) << "\n";
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Fatal-signal dump.

namespace {

// Published once by InstallFatalSignalDump; the handler only reads it.
std::atomic<const char*> g_fatal_dump_path{nullptr};
// The handler's snapshot of Process(), preallocated so it never allocates.
Trace::Event g_fatal_events[Trace::kCapacity];
// Set by the first handler to run: one dump, even if threads die together.
std::atomic<bool> g_fatal_dumping{false};

}  // namespace

void Trace::FatalSignalHandler(int signo) {
  const char* path = g_fatal_dump_path.load(std::memory_order_acquire);
  if (path != nullptr && !g_fatal_dumping.exchange(true)) {
    int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd >= 0) {
      const size_t n = Process().Snapshot(0, kEnd, g_fatal_events);
      {
        TraceWriter writer(WriteToFd, &fd);
        RenderTraceJson("fatal-signal", g_fatal_events, n, &writer);
        writer.Put("\n");
      }
      ::close(fd);
    }
  }
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

void Trace::InstallFatalSignalDump(const std::string& path) {
  Process();  // Construct the buffer before any handler can need it.
  // Leaked on purpose: the handler may outlive every caller scope.
  char* copy = new char[path.size() + 1];
  std::memcpy(copy, path.c_str(), path.size() + 1);
  g_fatal_dump_path.store(copy, std::memory_order_release);
  std::signal(SIGSEGV, FatalSignalHandler);
  std::signal(SIGABRT, FatalSignalHandler);
  std::signal(SIGBUS, FatalSignalHandler);
  std::signal(SIGFPE, FatalSignalHandler);
}

// ---------------------------------------------------------------------------
// Phase profiles.

namespace {

// Accumulates one thread's events (already sorted by start) into per-name
// stats using an interval-nesting stack: a span's self time is its duration
// minus the durations of its direct children on the same thread.
void AccumulateThread(const std::vector<Trace::Event>& events,
                      std::map<std::string, PhaseStats>* stats) {
  struct Open {
    const char* name;
    uint64_t end_ns;
    uint64_t child_ns = 0;
    uint64_t dur_ns;
  };
  std::vector<Open> stack;
  auto close_top = [&]() {
    const Open top = stack.back();
    stack.pop_back();
    PhaseStats& s = (*stats)[top.name];
    if (s.name.empty()) s.name = top.name;
    const uint64_t child = std::min(top.child_ns, top.dur_ns);
    s.self_ns += top.dur_ns - child;
    if (!stack.empty()) stack.back().child_ns += top.dur_ns;
  };
  for (const Trace::Event& e : events) {
    while (!stack.empty() && stack.back().end_ns <= e.start_ns) close_top();
    PhaseStats& s = (*stats)[e.name];
    if (s.name.empty()) s.name = e.name;
    ++s.count;
    s.total_ns += e.dur_ns;
    stack.push_back(Open{e.name, e.start_ns + e.dur_ns, 0, e.dur_ns});
  }
  while (!stack.empty()) close_top();
}

std::vector<PhaseStats> SortedStats(
    const std::map<std::string, PhaseStats>& stats) {
  std::vector<PhaseStats> out;
  out.reserve(stats.size());
  for (const auto& [name, s] : stats) out.push_back(s);
  std::sort(out.begin(), out.end(),
            [](const PhaseStats& a, const PhaseStats& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });
  return out;
}

std::string Millis(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

void AppendPhaseTable(const std::vector<PhaseStats>& phases,
                      uint64_t denom_ns, std::ostringstream* out) {
  size_t width = std::strlen("phase");
  for (const PhaseStats& p : phases) {
    width = std::max(width, p.name.size());
  }
  char line[160];
  std::snprintf(line, sizeof(line), "%-*s  %8s  %12s  %12s  %7s\n",
                static_cast<int>(width), "phase", "count", "total_ms",
                "self_ms", "self%");
  *out << line;
  for (const PhaseStats& p : phases) {
    const double pct =
        denom_ns == 0
            ? 0.0
            : 100.0 * static_cast<double>(p.self_ns) /
                  static_cast<double>(denom_ns);
    std::snprintf(line, sizeof(line), "%-*s  %8llu  %12s  %12s  %6.1f%%\n",
                  static_cast<int>(width), p.name.c_str(),
                  static_cast<unsigned long long>(p.count),
                  Millis(p.total_ns).c_str(), Millis(p.self_ns).c_str(), pct);
    *out << line;
  }
}

}  // namespace

uint64_t PhaseProfile::TotalSelfNs() const {
  uint64_t total = 0;
  for (const PhaseStats& p : folded) total += p.self_ns;
  return total;
}

std::string PhaseProfile::ToString() const {
  std::ostringstream out;
  AppendPhaseTable(folded, span_ns, &out);
  if (per_thread.size() > 1) {
    for (const auto& [tid, phases] : per_thread) {
      out << "\nthread " << tid << ":\n";
      AppendPhaseTable(phases, span_ns, &out);
    }
  }
  const uint64_t self = TotalSelfNs();
  const double coverage =
      span_ns == 0 ? 0.0
                   : 100.0 * static_cast<double>(self) /
                         static_cast<double>(span_ns);
  char line[96];
  std::snprintf(line, sizeof(line),
                "self-time coverage: %.1f%% of %s ms wall\n", coverage,
                Millis(span_ns).c_str());
  out << line;
  return out.str();
}

PhaseProfile BuildPhaseProfile(const Trace& trace, uint64_t begin,
                               uint64_t end) {
  PhaseProfile profile;
  const std::vector<Trace::Event> events = trace.Events(begin, end);
  if (events.empty()) return profile;
  uint64_t first_start = ~uint64_t{0};
  uint64_t last_end = 0;
  std::map<int, std::vector<Trace::Event>> by_tid;
  for (const Trace::Event& e : events) {
    first_start = std::min(first_start, e.start_ns);
    last_end = std::max(last_end, e.start_ns + e.dur_ns);
    by_tid[e.tid].push_back(e);
  }
  profile.span_ns = last_end - first_start;
  std::map<std::string, PhaseStats> folded;
  for (auto& [tid, tid_events] : by_tid) {
    // The nesting stack needs parents before children: start ascending,
    // and at equal start the longer (enclosing) span first.
    std::stable_sort(tid_events.begin(), tid_events.end(),
                     [](const Trace::Event& a, const Trace::Event& b) {
                       if (a.start_ns != b.start_ns) {
                         return a.start_ns < b.start_ns;
                       }
                       return a.dur_ns > b.dur_ns;
                     });
    std::map<std::string, PhaseStats> per;
    AccumulateThread(tid_events, &per);
    for (const auto& [name, s] : per) {
      PhaseStats& f = folded[name];
      if (f.name.empty()) f.name = name;
      f.count += s.count;
      f.total_ns += s.total_ns;
      f.self_ns += s.self_ns;
    }
    profile.per_thread.emplace_back(tid, SortedStats(per));
  }
  profile.folded = SortedStats(folded);
  return profile;
}

// ---------------------------------------------------------------------------
// Schema check.

Status ValidateTraceJson(const std::string& text, size_t min_events) {
  Result<json::Value> doc = json::Parse(text);
  if (!doc.ok()) {
    return Status::ParseError("trace is not well-formed JSON: " +
                              std::string(doc.status().message()));
  }
  if (!doc->is_object()) {
    return Status::ParseError("trace top level is not a JSON object");
  }
  const json::Value* events = doc->Find("traceEvents");
  if (events == nullptr) {
    return Status::ParseError("trace has no \"traceEvents\" key");
  }
  if (!events->is_array()) {
    return Status::ParseError("\"traceEvents\" is not an array");
  }
  for (const json::Value& event : events->AsArray()) {
    if (!event.is_object()) {
      return Status::ParseError("trace event is not an object");
    }
    for (const char* key : {"name", "ph", "ts", "dur", "pid", "tid"}) {
      if (event.Find(key) == nullptr) {
        return Status::ParseError(
            "event object missing a required field "
            "(name/ph/ts/dur/pid/tid)");
      }
    }
    for (const char* key : {"name", "ph", "cat"}) {
      const json::Value* v = event.Find(key);
      if (v != nullptr && !v->is_string()) {
        return Status::ParseError(std::string("event field \"") + key +
                                  "\" is not a string");
      }
    }
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      if (!event.Find(key)->is_number()) {
        return Status::ParseError(std::string("event field \"") + key +
                                  "\" is not a number");
      }
    }
  }
  const size_t num_events = events->AsArray().size();
  if (num_events < min_events) {
    return Status::Invalid("trace holds " + std::to_string(num_events) +
                           " event(s), expected at least " +
                           std::to_string(min_events));
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace ecrpq
