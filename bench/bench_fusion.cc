// E9 — deforestation / loop fusion (§II).
//
// A chain of d element-wise maps: the vectorized interpreter materializes
// d-1 intermediate chunk vectors; the compiled trace fuses the chain into
// one loop with register-resident temporaries. Expected shape: interpreted
// cost grows ~linearly with depth; fused cost grows much slower (the loads/
// stores dominate a simple arithmetic chain).
//
// Both variants run through a one-worker engine::Session; only the
// strategy differs.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "dsl/ast.h"
#include "engine/session.h"
#include "jit/jit_backend.h"
#include "storage/datagen.h"

namespace {

using namespace avm;
using namespace avm::dsl;
using interp::DataBinding;

constexpr int64_t kRows = 1 << 20;

// depth separate `let mK = map (\x -> x*3+1) m{K-1}` statements.
Program MakeChain(int depth, int64_t rows) {
  Program p;
  p.data = {{"src", TypeId::kI64, false}, {"out", TypeId::kI64, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("m0", Skeleton(SkeletonKind::kRead,
                                    {Var("i"), Var("src")})));
  for (int d = 1; d <= depth; ++d) {
    body.push_back(Let(
        "m" + std::to_string(d),
        Skeleton(SkeletonKind::kMap,
                 {Lambda({"x"}, Var("x") * ConstI(3) + ConstI(1)),
                  Var("m" + std::to_string(d - 1))})));
  }
  body.push_back(ExprStmt(Skeleton(
      SkeletonKind::kWrite,
      {Var("out"), Var("i"), Var("m" + std::to_string(depth))})));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("m0")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(rows)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  return p;
}

void RunChain(benchmark::State& state, bool jit) {
  const int depth = static_cast<int>(state.range(0));
  DataGen gen(37);
  auto data = gen.UniformI64(kRows, -50, 50);
  std::vector<int64_t> out(kRows);
  engine::QueryOptions opts;
  opts.strategy = jit ? engine::ExecutionStrategy::kAdaptiveJit
                      : engine::ExecutionStrategy::kInterpret;
  opts.vm.optimize_after_iterations = 2;
  opts.vm.constraints.max_streams = 16;
  for (auto _ : state) {
    engine::ExecContext ctx(
        [depth](int64_t rows) -> Result<Program> {
          return MakeChain(depth, rows);
        },
        kRows);
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

void BM_MapChain_Interpreted(benchmark::State& state) {
  RunChain(state, false);
}
BENCHMARK(BM_MapChain_Interpreted)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_MapChain_FusedJit(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  RunChain(state, true);
}
BENCHMARK(BM_MapChain_FusedJit)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
