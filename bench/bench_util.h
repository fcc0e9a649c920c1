// Shared benchmark harness: every bench_* binary includes this header once.
//
// It supplies the binary's main(), which runs Google Benchmark as usual and
// additionally appends one JSON line per benchmark run to BENCH_results.json
// (override the path with AVM_BENCH_RESULTS, disable with
// AVM_BENCH_RESULTS=off). Each line carries the fields downstream tooling
// tracks across PRs:
//
//   {"bench": <binary>, "name": <benchmark/args>, "strategy": <label>,
//    "tuples_per_sec": <double|null>, "ns_per_tuple": <double|null>,
//    "ms_per_iter": <double>}
//
// Benchmarks report throughput via ReportTuples(state, tuples, strategy):
// it sets the "tuples/s" rate counter (shown on the console) and the
// strategy label the JSON line is tagged with.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace avm::benchutil {

/// Attach the standard throughput counter and strategy label to a run.
inline void ReportTuples(benchmark::State& state, uint64_t tuples_per_iter,
                         const std::string& strategy = "") {
  state.counters["tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples_per_iter) * state.iterations(),
      benchmark::Counter::kIsRate);
  if (!strategy.empty()) state.SetLabel(strategy);
}

/// Attach the JIT's disk-cache block of an ExecReport/VmReport-shaped
/// struct to a run. Counters prefixed "disk_" are serialized into the
/// run's BENCH_results.json row, so cached-vs-compiled runs are
/// distinguishable in the tracked results. Templated to keep this header
/// engine-agnostic.
template <typename Report>
inline void ReportJit(benchmark::State& state, const Report& r) {
  state.counters["disk_hits"] =
      benchmark::Counter(static_cast<double>(r.disk_cache_hits));
  state.counters["disk_misses"] =
      benchmark::Counter(static_cast<double>(r.disk_cache_misses));
  state.counters["disk_corrupt"] =
      benchmark::Counter(static_cast<double>(r.disk_cache_corrupt));
}

/// Attach the out-of-core block of an ExecReport-shaped struct to a run.
/// Counters prefixed "spill_" or "mem_" are serialized into the run's
/// BENCH_results.json row (bytes spilled to disk, sorted-run count, tracked
/// high-water mark), so budgeted-vs-resident runs are distinguishable in
/// the tracked results. Templated to keep this header engine-agnostic.
template <typename Report>
inline void ReportSpill(benchmark::State& state, const Report& r) {
  state.counters["spill_bytes"] =
      benchmark::Counter(static_cast<double>(r.bytes_spilled));
  state.counters["spill_runs"] =
      benchmark::Counter(static_cast<double>(r.spill_runs));
  state.counters["spill_chunks_streamed"] =
      benchmark::Counter(static_cast<double>(r.chunks_streamed));
  state.counters["mem_peak_tracked_bytes"] =
      benchmark::Counter(static_cast<double>(r.peak_tracked_bytes));
}

namespace internal {

struct RunRecord {
  std::string name;
  std::string strategy;
  double tuples_per_sec = -1;  // <0 = absent
  double ms_per_iter = 0;
  // JIT/disk-cache/spill counters attached via ReportJit / ReportSpill,
  // serialized verbatim.
  std::vector<std::pair<std::string, double>> extras;
};

/// Console reporter that also collects per-run records for the JSON sink.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      RunRecord rec;
      rec.name = run.benchmark_name();
      rec.strategy = run.report_label;
      rec.ms_per_iter =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations) * 1e3
              : 0;
      auto it = run.counters.find("tuples/s");
      if (it == run.counters.end()) it = run.counters.find("rows/s");
      if (it != run.counters.end()) rec.tuples_per_sec = it->second.value;
      for (const auto& [cname, counter] : run.counters) {
        if (cname.rfind("disk_", 0) == 0 ||
            cname.rfind("spill_", 0) == 0 || cname.rfind("mem_", 0) == 0) {
          rec.extras.emplace_back(cname, counter.value);
        }
      }
      std::sort(rec.extras.begin(), rec.extras.end());
      records.push_back(std::move(rec));
    }
  }

  std::vector<RunRecord> records;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Identifying prefix of a result line: everything up to the measurements.
/// Two lines with the same key are the same logical benchmark row.
inline std::string RecordKey(const std::string& bench, const std::string& name,
                             const std::string& strategy) {
  return "{\"bench\":\"" + JsonEscape(bench) + "\",\"name\":\"" +
         JsonEscape(name) + "\",\"strategy\":\"" + JsonEscape(strategy) +
         "\",";
}

inline void WriteRecords(const char* binary_name,
                         const std::vector<RunRecord>& records) {
  const char* path = std::getenv("AVM_BENCH_RESULTS");
  if (path != nullptr && std::strcmp(path, "off") == 0) return;
  if (path == nullptr || *path == '\0') path = "BENCH_results.json";

  // Reruns REPLACE rows with the same (bench, name, strategy) instead of
  // appending duplicates, so the tracked results file stays curated: keep
  // every existing line whose key this run does not produce. (Concurrent
  // bench binaries writing the same file still race last-writer-wins —
  // run them sequentially or point AVM_BENCH_RESULTS at distinct files.)
  std::vector<std::string> run_keys;
  run_keys.reserve(records.size());
  for (const RunRecord& r : records) {
    run_keys.push_back(RecordKey(binary_name, r.name, r.strategy));
  }
  auto replaced_by_this_run = [&](const std::string& line) {
    for (const std::string& key : run_keys) {
      if (line.rfind(key, 0) == 0) return true;
    }
    return false;
  };
  std::vector<std::string> retained;
  if (std::FILE* in = std::fopen(path, "r")) {
    std::string line;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), in) != nullptr) {
      line += buf;
      if (line.empty() || line.back() != '\n') continue;  // long line: keep reading
      if (!replaced_by_this_run(line)) retained.push_back(line);
      line.clear();
    }
    // Unterminated trailing line: same key treatment, plus the newline.
    if (!line.empty() && !replaced_by_this_run(line)) {
      retained.push_back(line + "\n");
    }
    std::fclose(in);
  }

  // Rewrite via a temp file + rename so a crash mid-write cannot truncate
  // the curated results file (the rename replaces it atomically).
  const std::string tmp_path = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_util: cannot open %s for writing\n",
                 tmp_path.c_str());
    return;
  }
  for (const std::string& line : retained) {
    std::fputs(line.c_str(), f);
  }
  for (const RunRecord& r : records) {
    std::fputs(RecordKey(binary_name, r.name, r.strategy).c_str(), f);
    if (r.tuples_per_sec >= 0) {
      std::fprintf(f, "\"tuples_per_sec\":%.1f,\"ns_per_tuple\":%.3f,",
                   r.tuples_per_sec,
                   r.tuples_per_sec > 0 ? 1e9 / r.tuples_per_sec : 0.0);
    } else {
      std::fprintf(f, "\"tuples_per_sec\":null,\"ns_per_tuple\":null,");
    }
    for (const auto& [cname, value] : r.extras) {
      std::fprintf(f, "\"%s\":%.3f,", JsonEscape(cname).c_str(), value);
    }
    std::fprintf(f, "\"ms_per_iter\":%.4f}\n", r.ms_per_iter);
  }
  std::fclose(f);
  if (std::rename(tmp_path.c_str(), path) != 0) {
    std::fprintf(stderr, "bench_util: cannot rename %s to %s\n",
                 tmp_path.c_str(), path);
  }
}

inline const char* Basename(const char* argv0) {
  const char* slash = std::strrchr(argv0, '/');
  return slash != nullptr ? slash + 1 : argv0;
}

}  // namespace internal
}  // namespace avm::benchutil

/// Optional subprocess hook: a bench binary that defines this strong symbol
/// can re-execute itself (via /proc/self/exe) with AVM_BENCH_CHILD set; the
/// child then runs this function with the variable's value instead of the
/// benchmark harness. bench_warm_restart uses it to measure true
/// cold-process vs warm-process first-query latency.
extern "C" int avm_bench_child_main(const char* task) __attribute__((weak));

int main(int argc, char** argv) {
  if (const char* task = std::getenv("AVM_BENCH_CHILD");
      task != nullptr && avm_bench_child_main != nullptr) {
    return avm_bench_child_main(task);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  avm::benchutil::internal::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  avm::benchutil::internal::WriteRecords(
      avm::benchutil::internal::Basename(argv[0]), reporter.records);
  benchmark::Shutdown();
  return 0;
}
