// E1 — TPC-H Q1 analogue across execution strategies (ARCHITECTURE.md
// §Benchmarks).
//
// Paper claims (§I, citing [12] vs [17]): tuple-at-a-time compiled code is
// CPU-efficient, but vectorized execution *with adaptive optimizations*
// (compact data types, pre-aggregation) can beat it; plain DSL
// interpretation sits in between after the adaptive VM JITs its hot traces.
//
// All DSL strategies run through engine::Session, one fresh session per
// query (each row models a fresh process); the *Parallel4 variants add
// morsel-driven parallelism (4 workers, shared trace cache, merged
// aggregates) on top of the same entry point.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "engine/session.h"
#include "jit/jit_backend.h"
#include "relational/q1.h"

namespace {

using namespace avm;
using namespace avm::relational;
using benchutil::ReportTuples;

const Table& SharedLineitem() {
  static std::unique_ptr<Table> table = [] {
    LineitemSpec spec;
    spec.num_rows = 600'000;  // ~SF 0.1
    return MakeLineitem(spec);
  }();
  return *table;
}

void BM_Q1_Scalar(benchmark::State& state) {
  const Table& t = SharedLineitem();
  for (auto _ : state) {
    auto r = RunQ1Scalar(t);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value());
  }
  ReportTuples(state, t.num_rows(), "scalar");
}
BENCHMARK(BM_Q1_Scalar)->Unit(benchmark::kMillisecond);

void BM_Q1_Vectorized(benchmark::State& state) {
  const Table& t = SharedLineitem();
  for (auto _ : state) {
    auto r = RunQ1Vectorized(t, static_cast<uint32_t>(state.range(0)));
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value());
  }
  ReportTuples(state, t.num_rows(), "vectorized");
}
BENCHMARK(BM_Q1_Vectorized)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_Q1_VectorizedCompact(benchmark::State& state) {
  const Table& t = SharedLineitem();
  for (auto _ : state) {
    auto r = RunQ1VectorizedCompact(t, static_cast<uint32_t>(state.range(0)));
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value());
  }
  ReportTuples(state, t.num_rows(), "vectorized-compact");
}
BENCHMARK(BM_Q1_VectorizedCompact)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_Q1_CompiledWholeQuery(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  const Table& t = SharedLineitem();
  // Warm the JIT cache so steady-state per-query time is measured (the
  // compile-cost story is E6).
  RunQ1CompiledWholeQuery(t).ValueOrDie();
  for (auto _ : state) {
    auto r = RunQ1CompiledWholeQuery(t);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value());
  }
  ReportTuples(state, t.num_rows(), "compiled-whole-query");
}
BENCHMARK(BM_Q1_CompiledWholeQuery)->Unit(benchmark::kMillisecond);

// --- DSL strategies through a fresh engine::Session per query -------------

void RunEngineBench(benchmark::State& state, engine::QueryOptions opts,
                    size_t workers, const char* strategy_label) {
  const Table& t = SharedLineitem();
  uint64_t traces = 0, injections = 0;
  size_t morsels = 0;
  // Warm the process-wide source-JIT cache outside the timing loop so the
  // adaptive-jit rows measure steady-state compiled execution instead of
  // one-off host-compiler invocations.
  {
    engine::Query q = MakeQ1Query(t).ValueOrDie();
    auto r = engine::Session({.num_workers = workers}).Run(q.context(), opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    engine::Query q = MakeQ1Query(t).ValueOrDie();
    auto r = engine::Session({.num_workers = workers}).Run(q.context(), opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    traces = r.value().traces_compiled;
    injections = r.value().injection_runs;
    morsels = r.value().morsels;
    benchmark::DoNotOptimize(Q1ResultFromQuery(q));
  }
  state.counters["traces"] = static_cast<double>(traces);
  state.counters["injection_runs"] = static_cast<double>(injections);
  if (morsels > 1) {
    state.counters["morsels"] = static_cast<double>(morsels);
  }
  ReportTuples(state, t.num_rows(), strategy_label);
}

void BM_Q1_EngineInterpreted(benchmark::State& state) {
  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kInterpret;
  RunEngineBench(state, opts, 1, "engine-interpret");
}
BENCHMARK(BM_Q1_EngineInterpreted)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Q1_EngineInterpretedScalarKernels(benchmark::State& state) {
  // Same interpreted engine path with the kernel registry pinned to the
  // scalar tier — the delta against engine-interpret is the SIMD lift.
  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kInterpret;
  opts.vm.interp.kernel_tier = interp::KernelTier::kScalar;
  RunEngineBench(state, opts, 1, "engine-interpret-scalar-kernels");
}
BENCHMARK(BM_Q1_EngineInterpretedScalarKernels)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Q1_EngineInterpretedParallel4(benchmark::State& state) {
  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kInterpret;
  RunEngineBench(state, opts, 4, "engine-interpret-par4");
}
BENCHMARK(BM_Q1_EngineInterpretedParallel4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Q1_EngineAdaptiveJit(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kAdaptiveJit;
  opts.vm.optimize_after_iterations = 8;
  RunEngineBench(state, opts, 1, "engine-adaptive-jit");
}
BENCHMARK(BM_Q1_EngineAdaptiveJit)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Q1_EngineAdaptiveJitParallel4(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kAdaptiveJit;
  opts.vm.optimize_after_iterations = 8;
  RunEngineBench(state, opts, 4, "engine-adaptive-jit-par4");
}
BENCHMARK(BM_Q1_EngineAdaptiveJitParallel4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- multi-query concurrency: N Q1 clients on one Session ----------------
//
// Each iteration submits `clients` independent Q1 queries to a single
// 4-worker Session; the fair morsel scheduler interleaves them and they
// share machine code through the process's jit::CodeCache. Throughput
// counts every client's rows.

void RunSessionClientsBench(benchmark::State& state, engine::QueryOptions qo,
                            const char* strategy_label) {
  const Table& t = SharedLineitem();
  const size_t clients = static_cast<size_t>(state.range(0));
  engine::SessionOptions so;
  so.num_workers = 4;
  engine::Session session(so);
  // Build each client's query once; iterations measure execution only
  // (accumulators reset between submissions).
  std::vector<engine::Query> queries;
  queries.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    auto q = MakeQ1Query(t);
    if (!q.ok()) {
      state.SkipWithError(q.status().ToString().c_str());
      return;
    }
    queries.push_back(std::move(q).value());
  }
  for (auto _ : state) {
    for (engine::Query& q : queries) q.ResetAggregates();
    std::vector<engine::QueryHandle> handles;
    handles.reserve(clients);
    for (engine::Query& q : queries) {
      handles.push_back(session.Submit(q.context(), qo));
    }
    for (engine::QueryHandle& h : handles) {
      auto r = h.Wait();
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
  }
  ReportTuples(state, t.num_rows() * clients, strategy_label);
}

void BM_Q1_SessionConcurrentClients(benchmark::State& state) {
  engine::QueryOptions qo;
  qo.strategy = engine::ExecutionStrategy::kInterpret;
  RunSessionClientsBench(state, qo, "engine-session-interp-4clients");
}
BENCHMARK(BM_Q1_SessionConcurrentClients)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Q1_SessionConcurrentClientsJit(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  engine::QueryOptions qo;
  qo.strategy = engine::ExecutionStrategy::kAdaptiveJit;
  qo.vm.optimize_after_iterations = 8;
  RunSessionClientsBench(state, qo, "engine-session-jit-4clients");
}
BENCHMARK(BM_Q1_SessionConcurrentClientsJit)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
