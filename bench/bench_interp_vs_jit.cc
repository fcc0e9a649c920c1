// E10 — vectorized interpretation vs compiled execution across chunk sizes
// (§III-A): interpretation approaches compiled speed for cache-resident
// chunks of simple work (per-op dispatch amortized over the vector), but
// pays materialization per primitive; tiny chunks re-expose interpretation
// overhead, huge chunks spill intermediates out of cache.
//
// Both variants run through a one-worker engine::Session; only the
// strategy differs.
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

constexpr int64_t kRows = 1 << 21;

void RunPipeline(benchmark::State& state, bool jit, uint32_t chunk) {
  DataGen gen(41);
  auto data = gen.UniformI64(kRows, -100, 100);
  std::vector<int64_t> out(kRows);
  engine::QueryOptions opts;
  opts.strategy = jit ? engine::ExecutionStrategy::kAdaptiveJit
                      : engine::ExecutionStrategy::kInterpret;
  opts.vm.interp.chunk_size = chunk;
  opts.vm.optimize_after_iterations = 2;
  dsl::Program program = dsl::MakeMapPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, (dsl::Var("x") * dsl::ConstI(3) + dsl::ConstI(7)) *
                             dsl::Var("x")));
  dsl::TypeCheck(&program).Abort();
  for (auto _ : state) {
    engine::ExecContext ctx(program);
    ctx.BindInput("src", DataBinding::Raw(TypeId::kI64, data.data(), kRows));
    ctx.BindOutput("out",
                   DataBinding::Raw(TypeId::kI64, out.data(), kRows, true));
    auto r = engine::Session({.num_workers = 1}).Run(ctx, opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  benchutil::ReportTuples(state, kRows,
                          jit ? "engine-adaptive-jit" : "engine-interpret");
}

void BM_ChunkSweep_Interpreted(benchmark::State& state) {
  RunPipeline(state, false, static_cast<uint32_t>(state.range(0)));
}
BENCHMARK(BM_ChunkSweep_Interpreted)
    ->Arg(128)->Arg(512)->Arg(1024)->Arg(4096)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ChunkSweep_Jit(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  RunPipeline(state, true, static_cast<uint32_t>(state.range(0)));
}
BENCHMARK(BM_ChunkSweep_Jit)
    ->Arg(128)->Arg(512)->Arg(1024)->Arg(4096)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
