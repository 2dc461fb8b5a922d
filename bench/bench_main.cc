#include "bench_main.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/thread_pool.h"

namespace ecrpq {
namespace bench {
namespace {

// Counters consulted (in order) to fill the JSON "n" field.
constexpr const char* kSizeCounters[] = {"n",      "vertices", "chain_length",
                                         "d",      "arity",    "reps",
                                         "length", "width"};

struct Record {
  std::string name;
  double n = 0;
  std::vector<double> sample_ns;  // One entry per (non-aggregate) run.
  // All user counters of the run (last run wins; counters are per-iteration
  // rates or totals as the benchmark declared them).
  std::map<std::string, double> counters;
};

// Compile-time build mode for the JSON metadata.
const char* BuildMode() {
#if defined(ECRPQ_SANITIZE_BUILD)
  return "sanitized";
#elif defined(NDEBUG)
  return "optimized";
#else
  return "debug";
#endif
}

// Trailing /N range argument of a benchmark name, or 0.
double RangeArgOf(const std::string& name) {
  const size_t slash = name.rfind('/');
  if (slash == std::string::npos) return 0;
  const std::string tail = name.substr(slash + 1);
  if (tail.empty() ||
      !std::all_of(tail.begin(), tail.end(),
                   [](unsigned char c) { return std::isdigit(c); })) {
    return 0;
  }
  return std::strtod(tail.c_str(), nullptr);
}

class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string name = run.run_name.str();
      auto [it, inserted] = index_.try_emplace(name, records_.size());
      if (inserted) {
        Record rec;
        rec.name = name;
        for (const char* key : kSizeCounters) {
          auto counter = run.counters.find(key);
          if (counter != run.counters.end()) {
            rec.n = counter->second.value;
            break;
          }
        }
        if (rec.n == 0) rec.n = RangeArgOf(name);
        records_.push_back(std::move(rec));
      }
      for (const auto& [key, counter] : run.counters) {
        records_[it->second].counters[key] = counter.value;
      }
      if (run.iterations > 0) {
        records_[it->second].sample_ns.push_back(
            run.real_accumulated_time / static_cast<double>(run.iterations) *
            1e9);
      }
    }
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
  std::map<std::string, size_t> index_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

uint64_t g_base_seed = 0;

std::string JsonNumber(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

bool WriteJson(const std::string& path, const std::vector<Record>& records) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_main: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  const int threads = ThreadPool::DefaultNumThreads();
  out << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& rec = records[i];
    out << "  {\"name\": \"" << JsonEscape(rec.name) << "\", \"n\": "
        << JsonNumber(rec.n) << ", \"median_ns\": "
        << JsonNumber(Median(rec.sample_ns)) << ", \"min_ns\": "
        << JsonNumber(Min(rec.sample_ns)) << ", \"repeats\": "
        << rec.sample_ns.size() << ", \"seed\": " << g_base_seed
        << ", \"threads\": " << threads
        << ", \"build\": \"" << BuildMode() << "\", \"counters\": {";
    bool first = true;
    for (const auto& [key, value] : rec.counters) {
      if (!first) out << ", ";
      first = false;
      out << "\"" << JsonEscape(key) << "\": " << JsonNumber(value);
    }
    out << "}}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace

uint64_t BaseSeed() { return g_base_seed; }

int BenchMain(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  constexpr std::string_view kJsonFlag = "--json=";
  constexpr std::string_view kSeedFlag = "--seed=";
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kJsonFlag.size()) == kJsonFlag) {
      json_path = arg.substr(kJsonFlag.size());
      continue;
    }
    if (arg.substr(0, kSeedFlag.size()) == kSeedFlag) {
      g_base_seed = std::strtoull(arg.data() + kSeedFlag.size(), nullptr, 10);
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !WriteJson(json_path, reporter.records())) {
    return 1;
  }
  return 0;
}

}  // namespace bench
}  // namespace ecrpq

int main(int argc, char** argv) { return ecrpq::bench::BenchMain(argc, argv); }
