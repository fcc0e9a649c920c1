// E7 — ablation of the greedy-partitioning heuristics (§III-B): the TLB
// stream cap and the filter-exclusion rule.
//
// A wide pipeline (many independent read→map→write lanes) is partitioned
// under different max_streams budgets; each run reports how many traces
// cover the graph and the end-to-end adaptive-VM time. Expected shape:
// tiny budgets fragment the graph into many small functions (more boundary
// materialization, slower); generous budgets approach one fused function.
//
// NOTE: this microbench deliberately constructs AdaptiveVm below
// engine::Session — it measures VM internals (state machine, partitioner)
// the session intentionally hides. Application-level code goes through
// engine::Session.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"

#include "analysis/verify_program.h"
#include "dsl/ast.h"
#include "dsl/typecheck.h"
#include "ir/depgraph.h"
#include "jit/jit_backend.h"
#include "storage/datagen.h"
#include "vm/adaptive_vm.h"

namespace {

using namespace avm;
using namespace avm::dsl;
using interp::DataBinding;

constexpr int kLanes = 6;
constexpr int64_t kRows = 1 << 19;

// One shared read fans out to `kLanes` map->write lanes: merging lanes into
// one fused function adds one output stream per lane, so the stream budget
// directly controls how much of the graph one trace may cover.
Program MakeWideProgram() {
  Program p;
  p.data.push_back({"in0", TypeId::kI64, false});
  for (int lane = 0; lane < kLanes; ++lane) {
    p.data.push_back({"out" + std::to_string(lane), TypeId::kI64, true});
  }
  std::vector<StmtPtr> body;
  body.push_back(Let("v0", Skeleton(SkeletonKind::kRead,
                                    {Var("i"), Var("in0")})));
  for (int lane = 0; lane < kLanes; ++lane) {
    std::string mi = "m" + std::to_string(lane);
    body.push_back(Let(
        mi, Skeleton(SkeletonKind::kMap,
                     {Lambda({"x"}, Var("x") * ConstI(lane + 2) + ConstI(1)),
                      Var("v0")})));
    body.push_back(ExprStmt(Skeleton(
        SkeletonKind::kWrite,
        {Var("out" + std::to_string(lane)), Var("i"), Var(mi)})));
  }
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("v0")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(kRows)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  TypeCheck(&p).Abort();
  // Below-Session construction: give it the same gate QueryBuilder-built
  // programs get (docs/VERIFIER.md).
  const analysis::VerifyResult vr = analysis::VerifyProgram(p);
  if (!vr.clean()) {
    std::fprintf(stderr, "verifier: %s\n", vr.ToString().c_str());
    std::abort();
  }
  return p;
}

void BM_Partition_StreamBudget(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  Program p = MakeWideProgram();
  DataGen gen(23);
  std::vector<int64_t> input = gen.UniformI64(kRows, -100, 100);
  std::vector<std::vector<int64_t>> outs(kLanes);
  for (int lane = 0; lane < kLanes; ++lane) outs[lane].assign(kRows, 0);
  uint64_t traces = 0;
  for (auto _ : state) {
    vm::VmOptions opts;
    opts.optimize_after_iterations = 2;
    opts.constraints.max_streams = static_cast<size_t>(state.range(0));
    opts.max_traces_per_pass = 16;
    opts.min_cost_share = 0.0;
    vm::AdaptiveVm vmach(&p, opts);
    vmach.interpreter()
        .BindData("in0", DataBinding::Raw(TypeId::kI64, input.data(), kRows))
        .Abort();
    for (int lane = 0; lane < kLanes; ++lane) {
      vmach.interpreter()
          .BindData("out" + std::to_string(lane),
                    DataBinding::Raw(TypeId::kI64, outs[lane].data(), kRows,
                                     true))
          .Abort();
    }
    vmach.Run().Abort();
    traces = vmach.Report().traces_compiled;
  }
  state.counters["traces"] = static_cast<double>(traces);
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(kRows) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Partition_StreamBudget)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(12)->Arg(24)
    ->Unit(benchmark::kMillisecond);

// Static partitioning statistics (no execution): trace count and mean trace
// size under each budget — the graph-shape half of the ablation.
void BM_Partition_GraphShape(benchmark::State& state) {
  Program p = MakeWideProgram();
  auto graph = ir::DepGraph::Build(p).ValueOrDie();
  size_t num_traces = 0;
  double mean_nodes = 0;
  for (auto _ : state) {
    ir::PartitionConstraints c;
    c.max_streams = static_cast<size_t>(state.range(0));
    auto traces = ir::GreedyPartition(graph, c);
    num_traces = traces.size();
    size_t nodes = 0;
    for (const auto& t : traces) nodes += t.node_ids.size();
    mean_nodes = traces.empty() ? 0
                                : static_cast<double>(nodes) / traces.size();
    benchmark::DoNotOptimize(traces);
  }
  state.counters["traces"] = static_cast<double>(num_traces);
  state.counters["nodes_per_trace"] = mean_nodes;
}
BENCHMARK(BM_Partition_GraphShape)->Arg(2)->Arg(4)->Arg(8)->Arg(12)->Arg(24);

}  // namespace
