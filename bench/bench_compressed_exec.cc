// E3 — compressed execution and scheme-change fallback (§I, §III-C).
//
// Expected shape: (a) FOR-specialized execution (operate on narrow deltas +
// reference) beats decode-to-64-bit-then-execute; (b) as the fraction of
// blocks whose scheme differs from the specialized one grows, the adaptive
// VM falls back more often and its advantage shrinks — but correctness and
// graceful degradation hold (the trace cache stops recompilation).
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

constexpr uint32_t kRows = 1 << 20;
constexpr uint32_t kBlock = 16 * 1024;

// Column where `plain_per_8` of every 8 blocks are Plain (scheme changes),
// the rest FOR.
std::unique_ptr<Column> MakeMixedColumn(int plain_per_8) {
  auto col = std::make_unique<Column>(TypeId::kI64, kBlock);
  DataGen gen(11);
  int block = 0;
  for (uint32_t off = 0; off < kRows; off += kBlock, ++block) {
    auto narrow = gen.UniformI64(kBlock, 100000, 100000 + 4096);
    if (block % 8 < plain_per_8) {
      col->AppendBlockWithScheme(Scheme::kPlain, narrow.data(), kBlock)
          .Abort();
    } else {
      col->AppendBlockWithScheme(Scheme::kFor, narrow.data(), kBlock).Abort();
    }
  }
  return col;
}

void RunVm(benchmark::State& state, const Column& col, bool jit,
           bool specialize) {
  std::vector<int64_t> out(kRows);
  engine::QueryOptions opts;
  opts.strategy = jit ? engine::ExecutionStrategy::kAdaptiveJit
                      : engine::ExecutionStrategy::kInterpret;
  opts.vm.specialize_compression = specialize;
  opts.vm.optimize_after_iterations = 4;
  opts.vm.recheck_interval = 16;
  uint64_t fallbacks = 0, runs = 0, compiled = 0;
  dsl::Program program = dsl::MakeMapPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(3) + dsl::ConstI(1)));
  dsl::TypeCheck(&program).Abort();
  for (auto _ : state) {
    engine::ExecContext ctx(program);
    ctx.BindInputColumn("src", &col);
    ctx.BindOutput("out",
                   DataBinding::Raw(TypeId::kI64, out.data(), kRows, true));
    auto r = engine::Session({.num_workers = 1}).Run(ctx, opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    fallbacks = r.value().injection_fallbacks;
    runs = r.value().injection_runs;
    compiled = r.value().traces_compiled;
  }
  state.counters["fallbacks"] = static_cast<double>(fallbacks);
  state.counters["inj_runs"] = static_cast<double>(runs);
  state.counters["traces"] = static_cast<double>(compiled);
  benchutil::ReportTuples(
      state, kRows,
      !jit ? "engine-interpret"
           : (specialize ? "engine-jit-for-specialized"
                         : "engine-jit-plain-decode"));
}

// Sweep: number of Plain blocks per 8 (0 = pure FOR ... 8 = pure Plain).
void BM_CompressedExec_Interpreted(benchmark::State& state) {
  auto col = MakeMixedColumn(static_cast<int>(state.range(0)));
  RunVm(state, *col, /*jit=*/false, /*specialize=*/false);
}
BENCHMARK(BM_CompressedExec_Interpreted)
    ->Arg(0)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CompressedExec_JitPlainDecode(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  auto col = MakeMixedColumn(static_cast<int>(state.range(0)));
  RunVm(state, *col, /*jit=*/true, /*specialize=*/false);
}
BENCHMARK(BM_CompressedExec_JitPlainDecode)
    ->Arg(0)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CompressedExec_JitForSpecialized(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  auto col = MakeMixedColumn(static_cast<int>(state.range(0)));
  RunVm(state, *col, /*jit=*/true, /*specialize=*/true);
}
BENCHMARK(BM_CompressedExec_JitForSpecialized)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
