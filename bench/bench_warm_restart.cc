// First-query latency of a COLD process (empty trace-cache dir: every hot
// trace pays a real compile) vs a WARM process (dir populated by a previous
// process: machine code loads from disk, zero compiles) — the payoff the
// persistent DiskTraceCache exists for.
//
// Each measured iteration re-executes this binary via /proc/self/exe with
// AVM_BENCH_CHILD set (the bench_util.h hook): the child builds its data,
// runs ONE adaptive-JIT query against AVM_TRACE_CACHE_DIR, and exits. A
// subprocess is the honest way to measure this — in-process "restarts"
// would hit the process-wide code cache (jit::CodeCache), making cold runs
// free after the first. Queries: the TPC-H Q1 analogue and a join +
// ORDER BY.
//
// The in-process row (warm-inproc) additionally attaches the ReportJit
// disk-cache counters to its BENCH_results.json row.
#include <benchmark/benchmark.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "engine/query_builder.h"
#include "engine/session.h"
#include "jit/disk_cache.h"
#include "jit/jit_backend.h"
#include "relational/q1.h"
#include "storage/datagen.h"
#include "util/rng.h"

namespace {

using namespace avm;
using benchutil::ReportJit;
using benchutil::ReportTuples;

constexpr uint64_t kQ1Rows = 240'000;
constexpr uint64_t kProbeRows = 200'000;
constexpr int64_t kBuildKeys = 1'024;

engine::QueryOptions JitOptions() {
  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kAdaptiveJit;
  opts.vm.optimize_after_iterations = 2;
  return opts;
}

Status RunQ1Once() {
  LineitemSpec spec;
  spec.num_rows = kQ1Rows;
  std::unique_ptr<Table> table = MakeLineitem(spec);
  AVM_ASSIGN_OR_RETURN(engine::Query q, relational::MakeQ1Query(*table));
  return engine::Session({.num_workers = 1})
      .Run(q.context(), JitOptions())
      .status();
}

/// filter -> hash join -> aggregate+ORDER BY row query, the PR 3 shape.
Status RunJoinOrderByOnce() {
  Schema probe_schema({{"f_key", TypeId::kI64}, {"f_val", TypeId::kI64}});
  Table probe(probe_schema);
  Schema build_schema({{"d_key", TypeId::kI64}, {"d_val", TypeId::kI64}});
  Table build(build_schema);
  {
    Rng rng(71);
    std::vector<int64_t> key(kProbeRows), val(kProbeRows);
    for (uint64_t i = 0; i < kProbeRows; ++i) {
      key[i] = rng.NextInRange(0, 2 * kBuildKeys - 1);  // ~50% hit rate
      val[i] = rng.NextInRange(-1000, 1000);
    }
    AVM_RETURN_NOT_OK(probe.column(0).AppendValues(
        key.data(), static_cast<uint32_t>(kProbeRows)));
    AVM_RETURN_NOT_OK(probe.column(1).AppendValues(
        val.data(), static_cast<uint32_t>(kProbeRows)));
    std::vector<int64_t> dkey(kBuildKeys), dval(kBuildKeys);
    for (int64_t i = 0; i < kBuildKeys; ++i) {
      dkey[i] = i;
      dval[i] = i * 3 + 1;
    }
    AVM_RETURN_NOT_OK(build.column(0).AppendValues(
        dkey.data(), static_cast<uint32_t>(kBuildKeys)));
    AVM_RETURN_NOT_OK(build.column(1).AppendValues(
        dval.data(), static_cast<uint32_t>(kBuildKeys)));
  }
  engine::QueryBuilder qb(probe);
  qb.Filter(dsl::Var("f_val") > dsl::ConstI(-500))
      .Join(build, "f_key", "d_key", {"d_val"})
      .Output("d_val")
      .OrderBy("f_key");
  AVM_ASSIGN_OR_RETURN(engine::Query q, qb.Build());
  return engine::Session({.num_workers = 1})
      .Run(q.context(), JitOptions())
      .status();
}

std::string SelfPath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

std::string MakeCacheDir() {
  char tmpl[] = "/tmp/avm_bench_warm_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  return dir != nullptr ? dir : "";
}

void WipeCacheDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    std::remove((dir + "/" + name).c_str());
  }
  ::closedir(d);
}

/// Spawn one child process running `task` against `dir`. Returns the
/// child's exit status (0 = query succeeded).
int RunChild(const std::string& dir, const char* task) {
  const std::string cmd = "AVM_TRACE_CACHE_DIR='" + dir +
                          "' AVM_BENCH_CHILD=" + task + " '" + SelfPath() +
                          "' > /dev/null 2>&1";
  return std::system(cmd.c_str());
}

/// Core loop shared by every cold/warm row: `warm` decides whether the
/// cache dir is wiped before each iteration or pre-populated once.
void RunProcessBench(benchmark::State& state, const char* task,
                     uint64_t tuples, bool warm, const char* label) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  const std::string dir = MakeCacheDir();
  if (dir.empty()) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  if (warm && RunChild(dir, task) != 0) {
    state.SkipWithError("priming child run failed");
    return;
  }
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      WipeCacheDir(dir);
      state.ResumeTiming();
    }
    if (RunChild(dir, task) != 0) {
      state.SkipWithError("child run failed");
      return;
    }
  }
  WipeCacheDir(dir);
  ::rmdir(dir.c_str());
  ReportTuples(state, tuples, label);
}

void BM_FirstQuery_Q1(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  RunProcessBench(state, "q1", kQ1Rows, warm,
                  warm ? "warm-process" : "cold-process");
}
BENCHMARK(BM_FirstQuery_Q1)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_FirstQuery_JoinOrderBy(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  RunProcessBench(state, "join", kProbeRows, warm,
                  warm ? "warm-process" : "cold-process");
}
BENCHMARK(BM_FirstQuery_JoinOrderBy)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_FirstQuery_Q1_InProcess(benchmark::State& state) {
  // In-process companion row: a fresh session per iteration over one shared
  // populated dir, with the ReportJit counters attached. Every timed run
  // takes its machine code from the process's code cache, not from disk
  // (its disk_hits read 0): only a new process reads the directory. (For
  // the same reason repeated in-process "cold" runs are free, hence cold
  // has no in-process row.)
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  const std::string dir = MakeCacheDir();
  LineitemSpec spec;
  spec.num_rows = kQ1Rows;
  std::unique_ptr<Table> table = MakeLineitem(spec);
  engine::QueryOptions opts = JitOptions();
  opts.vm.disk_cache = std::make_shared<jit::DiskTraceCache>(dir, 64 << 20);
  auto run_once = [&]() -> Result<engine::ExecReport> {
    AVM_ASSIGN_OR_RETURN(engine::Query q, relational::MakeQ1Query(*table));
    return engine::Session({.num_workers = 1}).Run(q.context(), opts);
  };
  {
    auto prime = run_once();
    if (!prime.ok()) {
      state.SkipWithError(prime.status().ToString().c_str());
      return;
    }
  }
  engine::ExecReport last;
  for (auto _ : state) {
    auto r = run_once();
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    last = r.value();
  }
  WipeCacheDir(dir);
  ::rmdir(dir.c_str());
  ReportTuples(state, kQ1Rows, "warm-inproc");
  ReportJit(state, last);
}
BENCHMARK(BM_FirstQuery_Q1_InProcess)->Unit(benchmark::kMillisecond);

}  // namespace

extern "C" int avm_bench_child_main(const char* task) {
  const std::string t = task;
  Status st = t == "join" ? RunJoinOrderByOnce()
                          : RunQ1Once();
  if (!st.ok()) {
    std::fprintf(stderr, "bench child %s: %s\n", task, st.ToString().c_str());
    return 1;
  }
  return 0;
}
