// E6 — interpret cold / short programs, compile hot ones (§III).
//
// The same pipeline at growing input sizes: always-compile pays the fixed
// source-JIT latency, interpretation pays per-tuple overhead; the adaptive
// policy (compile after a warmup of interpreted chunks) tracks the better
// of the two on both ends and wins overall past the crossover.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "engine/session.h"
#include "jit/jit_backend.h"
#include "storage/datagen.h"

namespace {

using namespace avm;
using interp::DataBinding;

struct Pipeline {
  dsl::Program program;
  std::vector<int64_t> data;
  std::vector<int64_t> out;
};

std::unique_ptr<Pipeline> MakePipeline(int64_t rows, uint64_t salt) {
  auto p = std::make_unique<Pipeline>();
  // The salt lands in the program text so each benchmark size compiles its
  // own trace (no cross-size JIT cache pollution).
  p->program = dsl::MakeMapPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(3) +
                             dsl::ConstI(static_cast<int64_t>(salt))));
  dsl::TypeCheck(&p->program).Abort();
  DataGen gen(17);
  p->data = gen.UniformI64(static_cast<size_t>(rows), -1000, 1000);
  p->out.assign(static_cast<size_t>(rows), 0);
  return p;
}

void RunOnce(Pipeline& p, const engine::QueryOptions& opts,
             engine::ExecReport* report) {
  const uint64_t n = p.data.size();
  engine::ExecContext ctx(p.program);
  ctx.BindInput("src", DataBinding::Raw(TypeId::kI64, p.data.data(), n));
  ctx.BindOutput("out", DataBinding::Raw(TypeId::kI64, p.out.data(), n, true));
  *report =
      engine::Session({.num_workers = 1}).Run(ctx, opts).ValueOrDie();
}

void BM_Amortize_InterpretOnly(benchmark::State& state) {
  auto p = MakePipeline(state.range(0), 0);
  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kInterpret;
  engine::ExecReport rep;
  for (auto _ : state) RunOnce(*p, opts, &rep);
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(state.range(0)) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Amortize_InterpretOnly)
    ->Arg(8 << 10)->Arg(64 << 10)->Arg(512 << 10)->Arg(4 << 20)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Amortize_CompileImmediately(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kAdaptiveJit;
  opts.vm.optimize_after_iterations = 1;  // compile on the first heartbeat
  engine::ExecReport rep;
  uint64_t salt = 1000;
  double compile_s = 0;
  for (auto _ : state) {
    // Fresh program text per iteration => genuine compile each time (this
    // is what "always compile" costs for short queries).
    state.PauseTiming();
    auto p = MakePipeline(state.range(0), salt++);
    state.ResumeTiming();
    RunOnce(*p, opts, &rep);
    compile_s = rep.compile_seconds;
  }
  state.counters["compile_ms"] = compile_s * 1e3;
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(state.range(0)) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Amortize_CompileImmediately)
    ->Arg(8 << 10)->Arg(64 << 10)->Arg(512 << 10)->Arg(4 << 20)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Amortize_Adaptive(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kAdaptiveJit;
  opts.vm.optimize_after_iterations = 16;  // interpret short runs entirely
  engine::ExecReport rep;
  uint64_t salt = 2'000'000;
  for (auto _ : state) {
    state.PauseTiming();
    auto p = MakePipeline(state.range(0), salt++);
    state.ResumeTiming();
    RunOnce(*p, opts, &rep);
  }
  state.counters["traces"] = static_cast<double>(rep.traces_compiled);
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(state.range(0)) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Amortize_Adaptive)
    ->Arg(8 << 10)->Arg(64 << 10)->Arg(512 << 10)->Arg(4 << 20)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
