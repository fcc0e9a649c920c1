#include "vm/adaptive_vm.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "jit/jit_backend.h"
#include "storage/datagen.h"
#include "tests/temp_dir.h"

namespace avm::vm {
namespace {

using interp::DataBinding;

struct Fig2Data {
  std::vector<int64_t> data, v, w;
};

Fig2Data MakeData(int64_t n) {
  Fig2Data d;
  d.data.resize(n);
  d.v.assign(n, -1);
  d.w.assign(n, -1);
  Rng rng(7);
  for (auto& x : d.data) x = rng.NextInRange(-50, 50);
  return d;
}

Status BindFig2(interp::Interpreter& in, Fig2Data* d) {
  const uint64_t n = d->data.size();
  AVM_RETURN_NOT_OK(in.BindData(
      "some_data", DataBinding::Raw(TypeId::kI64, d->data.data(), n)));
  AVM_RETURN_NOT_OK(
      in.BindData("v", DataBinding::Raw(TypeId::kI64, d->v.data(), n, true)));
  AVM_RETURN_NOT_OK(
      in.BindData("w", DataBinding::Raw(TypeId::kI64, d->w.data(), n, true)));
  return Status::OK();
}

/// iv = read(idx); x = gather(base, iv); y = map(x + 1); write(d2, y);
/// f = filter(y > 5); write(d1, onum, condense(f)) over `n` rows. With
/// gathers kept out of traces, x is a chunk input of the fused region
/// {y, write d2, f, condense, write d1}, which the gate accepts while x is
/// positional and rejects while x carries a selection [condense-bypass].
dsl::Program GatherFilterProgram(int64_t n) {
  using namespace dsl;
  Program p;
  p.data = {{"idx", TypeId::kI64, false},
            {"base", TypeId::kI64, false},
            {"d1", TypeId::kI64, true},
            {"d2", TypeId::kI64, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("iv", Skeleton(SkeletonKind::kRead,
                                    {Var("i"), Var("idx")})));
  body.push_back(Let("x", Skeleton(SkeletonKind::kGather,
                                   {Var("base"), Var("iv")})));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"v"}, Var("v") + ConstI(1)),
                                    Var("x")})));
  body.push_back(ExprStmt(Skeleton(SkeletonKind::kWrite,
                                   {Var("d2"), Var("i"), Var("y")})));
  body.push_back(Let(
      "f", Skeleton(SkeletonKind::kFilter,
                    {Lambda({"v"}, Call(ScalarOp::kGt, {Var("v"), ConstI(5)})),
                     Var("y")})));
  body.push_back(Let("c", Skeleton(SkeletonKind::kCondense, {Var("f")})));
  body.push_back(Let("w", Skeleton(SkeletonKind::kWrite,
                                   {Var("d1"), Var("onum"), Var("c")})));
  body.push_back(Assign("onum", Var("onum") + Var("w")));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("iv")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(n)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), MutDef("onum"),
             Assign("onum", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  return p;
}

/// Output of one GatherFilterProgram run.
struct GatherFilterRun {
  std::vector<int64_t> d1, d2;
  VmReport report;
};

/// Runs `p` = GatherFilterProgram(n) over fixed data (~95% of y passes the
/// filter), with gathers kept out of traces and the VM sharing `plan` when
/// it is non-null. After iteration `select_at` (0 = never) x's chunk gets
/// an identity selection before the VM's hook runs: the next iteration
/// computes x afresh, so only an optimize pass at `select_at` observes it.
GatherFilterRun RunGatherFilter(const dsl::Program& p, int64_t n,
                                VmOptions opts, uint64_t select_at,
                                TracePlan* plan = nullptr) {
  std::vector<int64_t> idx(n), base(n);
  Rng rng(11);
  for (int64_t i = 0; i < n; ++i) {
    idx[i] = (i * 7) % n;
    base[i] = rng.NextInRange(0, 100);
  }
  GatherFilterRun out{std::vector<int64_t>(n, -1),
                      std::vector<int64_t>(n, -1), {}};
  opts.constraints.allow_scatter_gather = false;
  AdaptiveVm vm(&p, opts, plan);
  interp::Interpreter& in = vm.interpreter();
  EXPECT_TRUE(
      in.BindData("idx", DataBinding::Raw(TypeId::kI64, idx.data(), n)).ok());
  EXPECT_TRUE(
      in.BindData("base", DataBinding::Raw(TypeId::kI64, base.data(), n))
          .ok());
  EXPECT_TRUE(
      in.BindData("d1", DataBinding::Raw(TypeId::kI64, out.d1.data(), n, true))
          .ok());
  EXPECT_TRUE(
      in.BindData("d2", DataBinding::Raw(TypeId::kI64, out.d2.data(), n, true))
          .ok());
  auto vm_hook = in.iteration_hook;
  in.iteration_hook = [select_at, vm_hook](interp::Interpreter& it,
                                           uint64_t iteration) -> Status {
    if (iteration == select_at) {
      Result<interp::Value> x = it.GetVar("x");
      if (!x.ok() || !x.value().is_array()) {
        return Status::Internal("x not bound");
      }
      interp::ArrayValue& a = *x.value().array;
      a.sel.MakeIdentity(a.len);
    }
    return vm_hook(it, iteration);
  };
  EXPECT_TRUE(vm.Run().ok());
  out.report = vm.Report();
  return out;
}

TEST(AdaptiveVmTest, JitDisabledStillCorrect) {
  const int64_t kN = 32 * 1024;
  dsl::Program p = dsl::MakeFigure2Program();
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.enable_jit = false;
  AdaptiveVm vm(&p, opts);
  Fig2Data d = MakeData(kN);
  ASSERT_TRUE(BindFig2(vm.interpreter(), &d).ok());
  ASSERT_TRUE(vm.Run().ok());
  for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(d.v[i], 2 * d.data[i]);
  EXPECT_EQ(vm.Report().traces_compiled, 0u);
  EXPECT_TRUE(vm.state_machine().transitions().empty());
}

TEST(AdaptiveVmTest, CompilesAndInjectsMidRun) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 64 * 1024;  // 64 chunks: warmup + compiled phase
  dsl::Program p = dsl::MakeFigure2Program();
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.optimize_after_iterations = 4;
  AdaptiveVm vm(&p, opts);
  Fig2Data d = MakeData(kN);
  ASSERT_TRUE(BindFig2(vm.interpreter(), &d).ok());
  ASSERT_TRUE(vm.Run().ok());

  // Correctness is preserved through the mid-run strategy switch.
  size_t expect_w = 0;
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(d.v[i], 2 * d.data[i]);
    if (2 * d.data[i] > 0) {
      ASSERT_EQ(d.w[expect_w], 2 * d.data[i]);
      ++expect_w;
    }
  }
  VmReport report = vm.Report();
  EXPECT_GT(report.traces_compiled + report.disk_cache_hits, 0u);
  EXPECT_GT(report.injection_runs, 0u);
  // A warm persistent cache loads machine code without invoking a backend,
  // in which case zero compile wall time is the expected reading.
  if (report.disk_cache_hits == 0) {
    EXPECT_GT(report.compile_seconds, 0.0);
  }

  // The Fig. 1 cycle appears in the timeline.
  const std::string timeline = vm.state_machine().Timeline();
  EXPECT_NE(timeline.find("Interpret -> Optimize"), std::string::npos);
  EXPECT_NE(timeline.find("GenerateCode -> InjectFunctions"),
            std::string::npos);
}

TEST(AdaptiveVmTest, SchemeChangeTriggersFallbackAndRespecialization) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  // Column whose scheme flips from FOR to PLAIN mid-column: the FOR-
  // specialized trace must stop applying (fallback), and the recheck pass
  // must install a plain variant.
  const uint32_t kHalf = 64 * 1024;
  Column col(TypeId::kI64, 4096);
  DataGen gen(3);
  auto narrow = gen.UniformI64(kHalf, 1000, 1500);  // FOR blocks
  std::vector<int64_t> wide(kHalf);
  Rng rng(4);
  for (auto& x : wide) x = static_cast<int64_t>(rng.Next() >> 1);  // Plain
  for (uint32_t off = 0; off < kHalf; off += 4096) {
    ASSERT_TRUE(col.AppendBlockWithScheme(Scheme::kFor,
                                          narrow.data() + off, 4096)
                    .ok());
  }
  for (uint32_t off = 0; off < kHalf; off += 4096) {
    ASSERT_TRUE(col.AppendBlockWithScheme(Scheme::kPlain,
                                          wide.data() + off, 4096)
                    .ok());
  }
  const uint64_t kN = col.num_rows();

  dsl::Program p = dsl::MakeMapPipeline(
      TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(2)));
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.optimize_after_iterations = 4;
  opts.recheck_interval = 8;
  opts.specialize_compression = true;
  AdaptiveVm vm(&p, opts);
  std::vector<int64_t> out(kN, 0);
  ASSERT_TRUE(
      vm.interpreter().BindData("src", DataBinding::FromColumn(&col)).ok());
  ASSERT_TRUE(vm.interpreter()
                  .BindData("out", DataBinding::Raw(TypeId::kI64, out.data(),
                                                    kN, true))
                  .ok());
  ASSERT_TRUE(vm.Run().ok());
  for (uint32_t i = 0; i < kHalf; ++i) ASSERT_EQ(out[i], narrow[i] * 2);
  // The wide values run up to 2^63 - 1, so doubling them overflows: the
  // engine wraps, and the expectation wraps the same way in unsigned math.
  for (uint32_t i = 0; i < kHalf; ++i) {
    ASSERT_EQ(out[kHalf + i],
              static_cast<int64_t>(static_cast<uint64_t>(wide[i]) * 2u));
  }
  VmReport report = vm.Report();
  // Two situations compiled: FOR-specialized and plain.
  EXPECT_GE(report.traces_compiled + report.disk_cache_hits, 2u);
  EXPECT_GT(report.injection_runs, 0u);
  // Every anchor visit after the first install runs a trace or counts one
  // fallback. Only the 8 plain chunks between the scheme switch (chunk 64)
  // and the recheck that installs the plain variant (iteration 72) are
  // interpreted; after it, the FOR variant declining a chunk that the
  // plain variant runs is no fallback.
  EXPECT_EQ(report.iterations, kN / 1024);
  EXPECT_EQ(report.injection_runs + report.injection_fallbacks,
            report.iterations - opts.optimize_after_iterations);
  EXPECT_EQ(report.injection_fallbacks, 8u);
}

TEST(AdaptiveVmTest, PlanReusedAcrossSituationRecurrence) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 96 * 1024;
  dsl::Program p = dsl::MakeFigure2Program();
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.optimize_after_iterations = 2;
  opts.recheck_interval = 16;  // several optimize passes over the run
  AdaptiveVm vm(&p, opts);
  Fig2Data d = MakeData(kN);
  ASSERT_TRUE(BindFig2(vm.interpreter(), &d).ok());
  ASSERT_TRUE(vm.Run().ok());
  // Recurrent passes must not recompile identical situations.
  EXPECT_LE(vm.Report().traces_compiled, 4u);
  EXPECT_GT(vm.Report().injection_runs, 0u);
}

TEST(AdaptiveVmTest, ShortRunStaysInterpreted) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  // Fewer iterations than the optimize threshold: never compiles — the
  // paper's "interpret cold code and short-running programs".
  const int64_t kN = 2048;  // 2 iterations
  dsl::Program p = dsl::MakeFigure2Program();
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.optimize_after_iterations = 100;
  AdaptiveVm vm(&p, opts);
  Fig2Data d = MakeData(kN);
  ASSERT_TRUE(BindFig2(vm.interpreter(), &d).ok());
  ASSERT_TRUE(vm.Run().ok());
  EXPECT_EQ(vm.Report().traces_compiled, 0u);
}

TEST(AdaptiveVmTest, FilterFusesOnlyAtPredictableSelectivity) {
  // A fused filter is a branch per row: at ~98% selectivity it joins the
  // trace of its read, condense and write; at ~50% it stays interpreted
  // and the regions around it compile without it.
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 32 * 1024;
  std::vector<int64_t> data(kN);
  Rng rng(5);
  for (auto& x : data) x = rng.NextInRange(0, 99);
  for (int64_t keep_above : {int64_t{1}, int64_t{49}}) {
    dsl::Program p = dsl::MakeFilterPipeline(
        TypeId::kI64,
        dsl::Lambda({"x"},
                    dsl::Call(dsl::ScalarOp::kGt,
                              {dsl::Var("x"), dsl::ConstI(keep_above)})));
    ASSERT_TRUE(dsl::TypeCheck(&p).ok());
    AdaptiveVm vm(&p, {});
    std::vector<int64_t> out(kN, -1);
    interp::Interpreter& in = vm.interpreter();
    ASSERT_TRUE(
        in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(), kN))
            .ok());
    ASSERT_TRUE(
        in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(), kN, true))
            .ok());
    ASSERT_TRUE(vm.Run().ok());
    std::vector<int64_t> want;
    for (int64_t x : data) {
      if (x > keep_above) want.push_back(x);
    }
    out.resize(want.size());
    EXPECT_EQ(out, want) << "keep_above " << keep_above;
    EXPECT_GT(vm.Report().injection_runs, 0u) << "keep_above " << keep_above;
    bool filter_fused = false;
    for (const auto& tr : in.injections()) {
      filter_fused |= tr.name.find("filter") != std::string::npos;
    }
    EXPECT_EQ(filter_fused, keep_above == 1) << "keep_above " << keep_above;
  }
}

TEST(AdaptiveVmTest, SelectionChangeBetweenPassesPartitionsAgain) {
  // x = gather(base, read(idx)) stays interpreted (gathers are kept out of
  // traces here), so the fused region {y = map(x), write(d2, y),
  // filter(y), condense, write(d1)} takes x as a chunk input; the filter
  // keeps ~95% of the rows, so its branch may fuse. The gate
  // accepts it while x is positional and rejects it while x carries a
  // selection: y would carry it too, and its write would bypass the
  // in-trace filter [condense-bypass]. The first pass sees x positional
  // and installs the fused trace; before the recheck one iteration later
  // (same bucketed costs) x is given a selection. The pass must partition
  // again, through the acceptor, instead of reusing the fused region and
  // declining it.
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 16 * 1024;
  dsl::Program p = GatherFilterProgram(kN);
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());

  VmOptions opts;
  opts.optimize_after_iterations = 8;
  opts.recheck_interval = 9;
  opts.enable_jit = false;
  const GatherFilterRun want = RunGatherFilter(p, kN, opts, 9);
  opts.enable_jit = true;
  const GatherFilterRun got = RunGatherFilter(p, kN, opts, 9);
  EXPECT_EQ(got.d1, want.d1);
  EXPECT_EQ(got.d2, want.d2);
  const VmReport& report = got.report;
  EXPECT_GT(report.injection_runs, 0u);
  EXPECT_EQ(report.jit_declined, "");
  EXPECT_EQ(report.partitions, 2u);
  // The fused region, then the filter-free regions the recheck grew.
  EXPECT_GT(report.traces_compiled + report.disk_cache_hits, 2u);
}

/// Names of the traces installed in `vm`'s interpreter.
std::set<std::string> InstalledTraces(AdaptiveVm& vm) {
  std::set<std::string> names;
  for (const auto& tr : vm.interpreter().injections()) names.insert(tr.name);
  return names;
}

TEST(AdaptiveVmTest, VmSharingATracePlanReusesItsDecisions) {
  // A second VM of the same program over the same data observes the same
  // inputs at its optimize pass: it takes the first VM's partition and
  // trace decisions from the shared plan instead of partitioning,
  // verifying and compiling, and installs the same traces.
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 32 * 1024;
  dsl::Program p = dsl::MakeFigure2Program();
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.optimize_after_iterations = 4;
  TracePlan plan;
  std::vector<VmReport> reports;
  std::vector<std::set<std::string>> installed;
  for (int run = 0; run < 2; ++run) {
    AdaptiveVm vm(&p, opts, &plan);
    Fig2Data d = MakeData(kN);
    ASSERT_TRUE(BindFig2(vm.interpreter(), &d).ok());
    ASSERT_TRUE(vm.Run().ok());
    for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(d.v[i], 2 * d.data[i]);
    reports.push_back(vm.Report());
    installed.push_back(InstalledTraces(vm));
  }
  EXPECT_EQ(reports[0].partitions, 1u);
  EXPECT_EQ(reports[1].partitions, 0u);
  EXPECT_GT(reports[0].verifier_checked, 0u);
  EXPECT_EQ(reports[1].verifier_checked, 0u);
  EXPECT_EQ(reports[1].traces_compiled + reports[1].disk_cache_hits, 0u);
  EXPECT_GE(reports[1].traces_reused, installed[0].size());
  EXPECT_FALSE(installed[0].empty());
  EXPECT_EQ(installed[1], installed[0]);
  // Without a shared plan each VM partitions for itself.
  AdaptiveVm alone(&p, opts);
  Fig2Data d = MakeData(kN);
  ASSERT_TRUE(BindFig2(alone.interpreter(), &d).ok());
  ASSERT_TRUE(alone.Run().ok());
  EXPECT_EQ(alone.Report().partitions, 1u);
  EXPECT_EQ(InstalledTraces(alone), installed[0]);
}

TEST(AdaptiveVmTest, SharedPlanPartitionsAgainForANewSelection) {
  // The first VM judges the fused filter region with x positional. A
  // second VM whose x carries a selection at its optimize pass sees the
  // same costs and unfused filters, but not the judged region's
  // selections: it partitions for itself (the gate rejects the fused
  // region there) and still matches interpretation. A third VM like the
  // first reuses the first one's partition.
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 16 * 1024;
  dsl::Program p = GatherFilterProgram(kN);
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.optimize_after_iterations = 8;
  opts.enable_jit = false;
  const GatherFilterRun want = RunGatherFilter(p, kN, opts, 8);
  opts.enable_jit = true;
  TracePlan plan;
  const GatherFilterRun first = RunGatherFilter(p, kN, opts, 0, &plan);
  const GatherFilterRun selected = RunGatherFilter(p, kN, opts, 8, &plan);
  const GatherFilterRun again = RunGatherFilter(p, kN, opts, 0, &plan);
  EXPECT_EQ(first.report.partitions, 1u);
  EXPECT_EQ(selected.report.partitions, 1u);
  EXPECT_EQ(again.report.partitions, 0u);
  EXPECT_EQ(selected.d1, want.d1);
  EXPECT_EQ(selected.d2, want.d2);
  EXPECT_EQ(selected.report.jit_declined, "");
  EXPECT_GT(selected.report.injection_runs, 0u);
  EXPECT_EQ(again.d1, want.d1);
  EXPECT_EQ(again.d2, want.d2);
}

TEST(AdaptiveVmTest, SharedPlanPartitionsAgainForAnUnpredictableFilter) {
  // Same program, two inputs: on the first the filter keeps ~90% of the
  // rows and fuses; on the second it keeps ~83%, inside the unfused band,
  // with the same bucketed costs. The second VM must not take the fused
  // partition from the plan.
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 32 * 1024;
  dsl::Program p = dsl::MakeFilterPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Call(dsl::ScalarOp::kGt,
                                   {dsl::Var("x"), dsl::ConstI(1)})));
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  TracePlan plan;
  for (int64_t hi : {int64_t{19}, int64_t{11}}) {
    std::vector<int64_t> data(kN);
    Rng rng(5);
    for (auto& x : data) x = rng.NextInRange(0, hi);
    AdaptiveVm vm(&p, {}, &plan);
    std::vector<int64_t> out(kN, -1);
    interp::Interpreter& in = vm.interpreter();
    ASSERT_TRUE(
        in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(), kN))
            .ok());
    ASSERT_TRUE(
        in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(), kN, true))
            .ok());
    ASSERT_TRUE(vm.Run().ok());
    std::vector<int64_t> want;
    for (int64_t x : data) {
      if (x > 1) want.push_back(x);
    }
    out.resize(want.size());
    EXPECT_EQ(out, want) << "values up to " << hi;
    EXPECT_EQ(vm.Report().partitions, 1u) << "values up to " << hi;
    bool filter_fused = false;
    for (const auto& tr : in.injections()) {
      filter_fused |= tr.name.find("filter") != std::string::npos;
    }
    EXPECT_EQ(filter_fused, hi == 19) << "values up to " << hi;
  }
}

TEST(AdaptiveVmTest, PendingTraceInstallsAtTheChunkItsCodeLands) {
  // With a compiler thread, the plan queues the compile and the VM keeps
  // interpreting in GenerateCode, running no recheck; the test holds the
  // VM at chunk 6 until the compile finished, so the trace lands there:
  // Fig. 1's "code ready" edge at chunk 6, and chunks 7-16 compiled. A
  // VM of the plan that starts after the landing installs the trace at
  // its first optimize pass.
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 16 * 1024;
  // A map no other test in this binary compiles, and a private disk cache
  // that holds nothing yet.
  dsl::Program p = dsl::MakeMapPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(7) + dsl::ConstI(3)));
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  TempDir disk_dir("adaptive_vm_test");
  VmOptions opts;
  opts.optimize_after_iterations = 2;
  opts.recheck_interval = 4;
  opts.disk_cache =
      std::make_shared<jit::DiskTraceCache>(disk_dir.path(), 64 << 20);
  jit::CompilerThread compiler;
  TracePlan plan;
  std::vector<int64_t> src = DataGen(43).UniformI64(kN, -1000, 1000);

  auto run = [&](AdaptiveVm& vm) {
    std::vector<int64_t> out(kN, 0);
    EXPECT_TRUE(vm.interpreter()
                    .BindData("src", DataBinding::Raw(TypeId::kI64,
                                                      src.data(), kN))
                    .ok());
    EXPECT_TRUE(vm.interpreter()
                    .BindData("out", DataBinding::Raw(TypeId::kI64,
                                                      out.data(), kN, true))
                    .ok());
    EXPECT_TRUE(vm.Run().ok());
    for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], src[i] * 7 + 3) << i;
  };
  using T = StateMachine::Transition;
  auto same = [](const T& a, const T& b) {
    return a.from == b.from && a.to == b.to && a.iteration == b.iteration;
  };

  AdaptiveVm first(&p, opts, &plan, &compiler);
  auto step = first.interpreter().iteration_hook;
  first.interpreter().iteration_hook = [&](interp::Interpreter& in,
                                           uint64_t iteration) {
    if (iteration == 6) {
      EXPECT_EQ(first.state_machine().state(), VmState::kGenerateCode);
      while (compiler.stats().pending > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return step(in, iteration);
  };
  run(first);
  const VmReport r1 = first.Report();
  EXPECT_EQ(r1.traces_compiled, 1u);
  EXPECT_EQ(r1.disk_cache_misses, 1u);
  EXPECT_GT(r1.compile_seconds, 0.0);
  EXPECT_EQ(r1.iterations, 16u);
  EXPECT_EQ(r1.injection_runs + r1.injection_fallbacks, 10u);
  const std::vector<T>& t1 = first.state_machine().transitions();
  ASSERT_GE(t1.size(), 4u);
  EXPECT_TRUE(same(t1[0], {VmState::kInterpret, VmState::kOptimize, 2}));
  EXPECT_TRUE(same(t1[1], {VmState::kOptimize, VmState::kGenerateCode, 2}));
  EXPECT_TRUE(
      same(t1[2], {VmState::kGenerateCode, VmState::kInjectFunctions, 6}));
  EXPECT_TRUE(same(t1[3], {VmState::kInjectFunctions, VmState::kInterpret, 6}))
      << first.state_machine().Timeline();

  AdaptiveVm second(&p, opts, &plan, &compiler);
  run(second);
  const VmReport r2 = second.Report();
  EXPECT_EQ(r2.traces_compiled, 0u);
  EXPECT_EQ(r2.traces_reused, 1u);
  // The compile counted once, in the VM that saw it land.
  EXPECT_EQ(r2.compile_seconds, 0.0);
  EXPECT_EQ(r2.injection_runs + r2.injection_fallbacks, 14u);
  const std::vector<T>& t2 = second.state_machine().transitions();
  ASSERT_GE(t2.size(), 4u);
  EXPECT_TRUE(
      same(t2[2], {VmState::kGenerateCode, VmState::kInjectFunctions, 2}))
      << second.state_machine().Timeline();
}

}  // namespace
}  // namespace avm::vm
