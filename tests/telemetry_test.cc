// Unit coverage for the request-telemetry sinks: the TelemetryRegistry
// exposition (format, determinism, gauge-group atomicity), the EventLog
// JSON-lines appender, and the obs::Trace span buffer (wraparound, claim
// ranges, trace validity under concurrent writers, file and fatal-signal
// dumps).
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/event_log.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace ecrpq {
namespace {

using obs::CounterId;
using obs::EventLog;
using obs::HistogramId;
using obs::TelemetryRegistry;
using obs::Trace;
using obs::ValidateTraceJson;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "ecrpq_telemetry_test_" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TelemetryRegistryTest, RendersCountersHistogramsAndGauges) {
  obs::Metrics metrics;
  obs::MetricsShard* shard = metrics.AcquireShard();
  shard->Add(CounterId::kProductStatesExpanded, 41);
  for (int i = 1; i <= 100; ++i) {
    shard->Record(HistogramId::kServiceRequestNs, static_cast<uint64_t>(i));
  }

  TelemetryRegistry registry;
  registry.RegisterGroup("admission_", [] {
    return TelemetryRegistry::GaugeGroup{{"submitted", 7}, {"admitted", 7}};
  });

  const std::string text = registry.Render(metrics.Aggregate());
  EXPECT_NE(text.find("# TYPE ecrpq_product_states_expanded counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ecrpq_product_states_expanded 41"), std::string::npos);
  // Histogram family (a Prometheus summary): count, sum, quantiles.
  EXPECT_NE(text.find("# TYPE ecrpq_service_request_ns summary"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_service_request_ns_count 100"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_service_request_ns_sum 5050"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_service_request_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_service_request_ns{quantile=\"0.9\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_service_request_ns{quantile=\"0.99\"}"),
            std::string::npos);
  // Gauge group, "ecrpq_" + prefix + suffix.
  EXPECT_NE(text.find("# TYPE ecrpq_admission_submitted gauge"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_admission_submitted 7"), std::string::npos);

  // Identical state renders byte-identically (deterministic ordering).
  EXPECT_EQ(text, registry.Render(metrics.Aggregate()));
}

TEST(TelemetryRegistryTest, GroupSnapshotIsOneCallbackInvocation) {
  // The registry must take each group from exactly ONE callback invocation
  // per Render — that is what lets a provider that reads all its values
  // under one lock promise cross-value identities in every snapshot.
  TelemetryRegistry registry;
  int calls = 0;
  registry.RegisterGroup("pair_", [&calls] {
    ++calls;
    const uint64_t a = static_cast<uint64_t>(calls) * 10;
    return TelemetryRegistry::GaugeGroup{{"left", a}, {"right", a}};
  });
  obs::Metrics metrics;
  const std::string text = registry.Render(metrics.Aggregate());
  EXPECT_EQ(calls, 1);
  // Both values came from the same invocation.
  EXPECT_NE(text.find("ecrpq_pair_left 10"), std::string::npos) << text;
  EXPECT_NE(text.find("ecrpq_pair_right 10"), std::string::npos) << text;
}

TEST(TelemetryRegistryTest, StatsOnlyExpositionSkipsEmptyHistograms) {
  obs::Metrics metrics;
  obs::MetricsShard* shard = metrics.AcquireShard();
  shard->Add(CounterId::kCacheHits, 3);
  const std::string text = obs::RenderStatsExposition(metrics.Aggregate());
  EXPECT_NE(text.find("ecrpq_cache_hits 3"), std::string::npos) << text;
  // No histogram was recorded: no empty histogram families in the output.
  EXPECT_EQ(text.find("ecrpq_service_request_ns"), std::string::npos) << text;
}

TEST(EventLogTest, AppendsOneFlushedLinePerEvent) {
  const std::string path = TempPath("event_log.jsonl");
  std::remove(path.c_str());
  EventLog log(path);
  ASSERT_TRUE(log.ok());
  log.Append("{\"event\":\"query\",\"n\":1}");
  log.Append("{\"event\":\"query\",\"n\":2}");
  EXPECT_EQ(log.lines_written(), 2u);

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    Result<json::Value> doc = json::Parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    std::string event;
    ASSERT_TRUE(doc->GetString("event", &event));
    EXPECT_EQ(event, "query");
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(EventLogTest, UnwritablePathIsNotOkAndAppendIsANoOp) {
  EventLog log("/nonexistent-dir-zz/event.jsonl");
  EXPECT_FALSE(log.ok());
  log.Append("{\"event\":\"query\"}");  // Must not crash.
  EXPECT_EQ(log.lines_written(), 0u);
}

TEST(EventLogTest, ConcurrentAppendsNeverInterleaveWithinALine) {
  const std::string path = TempPath("event_log_mt.jsonl");
  std::remove(path.c_str());
  EventLog log(path);
  ASSERT_TRUE(log.ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Append("{\"event\":\"query\",\"writer\":" + std::to_string(t) +
                   ",\"n\":" + std::to_string(i) + "}");
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(log.lines_written(), uint64_t{kThreads} * kPerThread);

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_TRUE(json::Parse(line).ok()) << "torn line: " << line;
  }
  EXPECT_EQ(lines, kThreads * kPerThread);
  std::remove(path.c_str());
}

TEST(TraceTest, RetainedWindowValidatesAsTraceJson) {
  Trace trace;
  trace.Record("parse", 0, 100, 50);
  trace.Record("evaluate", 0, 200, 300, /*arg=*/7);
  EXPECT_EQ(trace.NumRecorded(), 2u);
  const std::string json = trace.ToJson("t-42");
  EXPECT_TRUE(ValidateTraceJson(json, /*min_events=*/2).ok()) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << "one line: " << json;
  Result<json::Value> doc = json::Parse(json);
  ASSERT_TRUE(doc.ok());
  std::string trace_id;
  ASSERT_TRUE(doc->GetString("traceId", &trace_id)) << json;
  EXPECT_EQ(trace_id, "t-42");
}

TEST(TraceTest, WraparoundKeepsOnlyTheNewestEvents) {
  constexpr uint64_t kExtra = 6;
  Trace trace;
  for (uint64_t i = 0; i < Trace::kCapacity + kExtra; ++i) {
    trace.Record("event", 0, i * 100, 10, i);
  }
  EXPECT_EQ(trace.NumRecorded(), Trace::kCapacity + kExtra);
  const std::string json = trace.ToJson();
  ASSERT_TRUE(ValidateTraceJson(json, /*min_events=*/Trace::kCapacity).ok());
  Result<json::Value> doc = json::Parse(json);
  ASSERT_TRUE(doc.ok());
  const json::Value* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Exactly the last kCapacity records survive, oldest first.
  ASSERT_EQ(events->AsArray().size(), Trace::kCapacity);
  double prev_ts = -1;
  for (const json::Value& event : events->AsArray()) {
    double ts = 0;
    ASSERT_TRUE(event.GetNumber("ts", &ts));
    EXPECT_GT(ts, prev_ts) << "events must be oldest-first";
    prev_ts = ts;
  }
  uint64_t oldest = 0;
  ASSERT_TRUE(events->AsArray()[0].Find("args")->GetUint64("v", &oldest));
  EXPECT_EQ(oldest, kExtra);
  // Claim ranges: an overwritten range is empty, a straddling one keeps
  // its surviving part.
  EXPECT_TRUE(trace.Events(0, kExtra).empty());
  const std::vector<Trace::Event> straddling = trace.Events(kExtra - 2,
                                                            kExtra + 3);
  ASSERT_EQ(straddling.size(), 3u);
  EXPECT_EQ(straddling[0].arg, kExtra);
}

TEST(TraceTest, WriteFileWritesAValidPostmortem) {
  const std::string path = TempPath("postmortem.json");
  std::remove(path.c_str());
  Trace trace;
  trace.Record("service_request", 1, 10, 20);
  ASSERT_TRUE(trace.WriteFile(path, "boom-1").ok());
  const std::string dumped = Slurp(path);
  EXPECT_TRUE(ValidateTraceJson(dumped, /*min_events=*/1).ok()) << dumped;
  Result<json::Value> doc = json::Parse(dumped);
  ASSERT_TRUE(doc.ok());
  std::string trace_id;
  ASSERT_TRUE(doc->GetString("traceId", &trace_id)) << dumped;
  EXPECT_EQ(trace_id, "boom-1");
  std::remove(path.c_str());

  EXPECT_FALSE(trace.WriteFile("/nonexistent-dir-zz/postmortem.json").ok());
}

TEST(TraceTest, ConcurrentWritersNeverBreakTheDump) {
  Trace trace;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  std::atomic<bool> stop{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, &stop, t] {
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        trace.Record("spin", t, i, 1, i);
        if (i > 20000) break;
      }
    });
  }
  // A second reader folds profiles while the main thread renders.
  threads.emplace_back([&trace, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const obs::PhaseStats& p : obs::BuildPhaseProfile(trace).folded) {
        EXPECT_EQ(p.name, "spin");
      }
    }
  });
  // Dump repeatedly mid-write: a slot is copied only when its stamp is
  // unchanged around the copy, so a torn event is never emitted.
  for (int i = 0; i < 50; ++i) {
    const std::string json = trace.ToJson();
    EXPECT_TRUE(ValidateTraceJson(json).ok()) << json;
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ValidateTraceJson(trace.ToJson()).ok());
  // One fresh single-writer lap is fully readable again.
  for (uint64_t i = 0; i < Trace::kCapacity; ++i) {
    trace.Record("fresh", 0, i * 10, 1);
  }
  EXPECT_TRUE(
      ValidateTraceJson(trace.ToJson(), /*min_events=*/Trace::kCapacity).ok());
}

// The fatal-signal dump writes Process() from inside the handler, without
// allocating, and the process still dies of the signal.
TEST(TraceDeathTest, FatalSignalDumpWritesAValidTrace) {
  constexpr uint64_t kEvents = 5;
  const std::string path = TempPath("fatal.json");
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        for (uint64_t i = 0; i < kEvents; ++i) {
          Trace::Process().Record("doomed", 0, i * 100, 10, i);
        }
        Trace::InstallFatalSignalDump(path);
        std::raise(SIGABRT);
      },
      ::testing::KilledBySignal(SIGABRT), "");
  const std::string dumped = Slurp(path);
  EXPECT_TRUE(ValidateTraceJson(dumped, kEvents).ok()) << dumped;
  Result<json::Value> doc = json::Parse(dumped);
  ASSERT_TRUE(doc.ok()) << dumped;
  std::string trace_id;
  ASSERT_TRUE(doc->GetString("traceId", &trace_id)) << dumped;
  EXPECT_EQ(trace_id, "fatal-signal");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ecrpq
