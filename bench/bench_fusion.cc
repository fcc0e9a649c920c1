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
//
// BM_FilterFusion_* compares a filter fused into the aggregation trace
// (the fused loop guards each row with a branch) against the split that
// keeps the filter interpreted (selection vector from the micro-adaptive
// filter kernel) and compiles the map+fold after it, across selectivities:
// at ~50% the fused branch is least predictable.
#include <benchmark/benchmark.h>

#include "analysis/verify_trace.h"
#include "bench/bench_util.h"
#include "dsl/ast.h"
#include "dsl/typecheck.h"
#include "engine/session.h"
#include "jit/jit_backend.h"
#include "jit/trace_compiler.h"
#include "storage/datagen.h"

namespace {

using namespace avm;
using namespace avm::dsl;
using interp::DataBinding;

constexpr int64_t kRows = 1 << 20;

// depth separate `let mK = map (\x -> x*3+1) m{K-1}` statements.
Program MakeChain(int depth) {
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
  body.push_back(
      If(Var("i") >= Skeleton(SkeletonKind::kLen, {Var("src")}), {Break()}));
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
  Program program = MakeChain(depth);
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

// total += fold(+, map(x*3+1, filter(x < limit, read(src)))): a filter
// feeding an aggregation, the Q1 shape.
Program MakeFilteredSum(int64_t limit, int64_t rows) {
  Program p;
  p.data = {{"src", TypeId::kI64, false}};
  std::vector<StmtPtr> body;
  body.push_back(Let("a", Skeleton(SkeletonKind::kRead,
                                   {Var("i"), Var("src")})));
  body.push_back(Let(
      "f", Skeleton(SkeletonKind::kFilter,
                    {Lambda({"x"}, Call(ScalarOp::kLt,
                                        {Var("x"), ConstI(limit)})),
                     Var("a")})));
  body.push_back(Let("m", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(3) +
                                                      ConstI(1)),
                                    Var("f")})));
  body.push_back(Let(
      "s", Skeleton(SkeletonKind::kFold,
                    {Lambda({"acc", "x"}, Var("acc") + Var("x")), ConstI(0),
                     Var("m")})));
  body.push_back(Assign("total", Var("total") + Var("s")));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("a")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(rows)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), MutDef("total"),
             Assign("total", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  return p;
}

// range(0) = selectivity in permille of uniform [0, 1000) values. Traces
// are compiled once, outside the timed loop, and injected from the first
// chunk on; the timed loop is interpretation plus injected traces.
void RunFilteredSum(benchmark::State& state, bool fuse) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  const int64_t permille = state.range(0);
  DataGen gen(41);
  auto data = gen.UniformI64(kRows, 0, 999);
  Program p = MakeFilteredSum(permille, kRows);
  dsl::TypeCheck(&p).Abort();
  auto graph = ir::DepGraph::Build(p).ValueOrDie();
  ir::TraceAcceptor accept;
  if (!fuse) accept = [](const ir::Trace&) { return false; };
  std::vector<std::shared_ptr<const jit::CompiledTrace>> entries;
  for (const ir::Trace& t : ir::GreedyPartition(graph, {}, accept)) {
    analysis::TraceContext ctx;
    for (const std::string& in : t.ChunkVarInputs(p)) {
      if (in == "f") ctx.sel_inputs.insert(in);  // the filter's selection
    }
    const analysis::TraceVerification verified =
        analysis::VerifyTrace(p, graph, t, ctx);
    if (!verified.clean()) continue;
    auto compiled = jit::CompileTrace(p, graph, t, verified, {},
                                      /*disk=*/nullptr);
    if (!compiled.ok()) {
      state.SkipWithError(compiled.status().ToString().c_str());
      return;
    }
    entries.push_back(std::make_shared<const jit::CompiledTrace>(
        std::move(compiled).ValueOrDie().trace));
  }
  int64_t expect = 0;
  for (int64_t x : data) expect += x < permille ? x * 3 + 1 : 0;
  uint64_t runs = 0;
  for (auto _ : state) {
    interp::Interpreter in(&p);
    in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(), kRows))
        .Abort();
    for (const auto& e : entries) {
      in.AddInjection(jit::MakeInjection(e, in.chunk_size()));
    }
    in.Run().Abort();
    if (in.GetScalar("total").ValueOrDie().AsI64() != expect) {
      state.SkipWithError("wrong total");
      return;
    }
    runs = 0;
    for (const auto& tr : in.injections()) runs += tr.invocations;
  }
  state.counters["traces"] = static_cast<double>(entries.size());
  state.counters["injection_runs"] = static_cast<double>(runs);
  benchutil::ReportTuples(state, kRows, fuse ? "fused-filter" : "split-filter");
}

void BM_FilterFusion_Fused(benchmark::State& state) {
  RunFilteredSum(state, true);
}
BENCHMARK(BM_FilterFusion_Fused)
    ->Arg(20)->Arg(100)->Arg(200)->Arg(300)->Arg(500)->Arg(700)->Arg(800)
    ->Arg(900)->Arg(980)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FilterFusion_Split(benchmark::State& state) {
  RunFilteredSum(state, false);
}
BENCHMARK(BM_FilterFusion_Split)
    ->Arg(20)->Arg(100)->Arg(200)->Arg(300)->Arg(500)->Arg(700)->Arg(800)
    ->Arg(900)->Arg(980)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
