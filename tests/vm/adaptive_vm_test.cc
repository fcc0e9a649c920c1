#include "vm/adaptive_vm.h"

#include <gtest/gtest.h>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "jit/jit_backend.h"
#include "storage/datagen.h"

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

TEST(AdaptiveVmTest, JitDisabledStillCorrect) {
  const int64_t kN = 32 * 1024;
  dsl::Program p = dsl::MakeFigure2Program(kN);
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
  dsl::Program p = dsl::MakeFigure2Program(kN);
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
  EXPECT_NE(report.state_timeline.find("Interpret -> Optimize"),
            std::string::npos);
  EXPECT_NE(report.state_timeline.find("GenerateCode -> InjectFunctions"),
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
      TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(2)),
      static_cast<int64_t>(kN));
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
  EXPECT_GT(report.injection_fallbacks, 0u);
  EXPECT_GT(report.injection_runs, 0u);
}

TEST(AdaptiveVmTest, TraceCacheReusedAcrossSituationRecurrence) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 96 * 1024;
  dsl::Program p = dsl::MakeFigure2Program(kN);
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
  EXPECT_GE(vm.trace_cache().size(), 1u);
}

TEST(AdaptiveVmTest, ShortRunStaysInterpreted) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  // Fewer iterations than the optimize threshold: never compiles — the
  // paper's "interpret cold code and short-running programs".
  const int64_t kN = 2048;  // 2 iterations
  dsl::Program p = dsl::MakeFigure2Program(kN);
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
        dsl::Lambda({"x"}, dsl::Call(dsl::ScalarOp::kGt,
                                     {dsl::Var("x"), dsl::ConstI(keep_above)})),
        kN);
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
  using namespace dsl;
  const int64_t kN = 16 * 1024;
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
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(kN)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), MutDef("onum"),
             Assign("onum", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  ASSERT_TRUE(TypeCheck(&p).ok());

  std::vector<int64_t> idx(kN), base(kN);
  Rng rng(11);
  for (int64_t i = 0; i < kN; ++i) {
    idx[i] = (i * 7) % kN;
    base[i] = rng.NextInRange(0, 100);
  }
  auto run = [&](bool jit, std::vector<int64_t>* d1, std::vector<int64_t>* d2,
                 VmReport* report) {
    VmOptions opts;
    opts.enable_jit = jit;
    opts.optimize_after_iterations = 8;
    opts.recheck_interval = 9;
    opts.constraints.allow_scatter_gather = false;
    AdaptiveVm vm(&p, opts);
    interp::Interpreter& in = vm.interpreter();
    ASSERT_TRUE(
        in.BindData("idx", DataBinding::Raw(TypeId::kI64, idx.data(), kN))
            .ok());
    ASSERT_TRUE(
        in.BindData("base", DataBinding::Raw(TypeId::kI64, base.data(), kN))
            .ok());
    ASSERT_TRUE(
        in.BindData("d1", DataBinding::Raw(TypeId::kI64, d1->data(), kN, true))
            .ok());
    ASSERT_TRUE(
        in.BindData("d2", DataBinding::Raw(TypeId::kI64, d2->data(), kN, true))
            .ok());
    auto vm_hook = in.iteration_hook;
    in.iteration_hook = [&, vm_hook](interp::Interpreter& it,
                                     uint64_t iteration) -> Status {
      if (iteration == 9) {
        // Select every row of this chunk's x: the next iteration computes
        // x afresh, so only the recheck pass observes the selection.
        Result<interp::Value> x = it.GetVar("x");
        if (!x.ok() || !x.value().is_array()) {
          return Status::Internal("x not bound");
        }
        interp::ArrayValue& a = *x.value().array;
        a.sel.MakeIdentity(a.len);
      }
      return vm_hook(it, iteration);
    };
    ASSERT_TRUE(vm.Run().ok());
    *report = vm.Report();
  };
  std::vector<int64_t> want1(kN, -1), want2(kN, -1), got1(kN, -1),
      got2(kN, -1);
  VmReport interpreted, report;
  run(false, &want1, &want2, &interpreted);
  run(true, &got1, &got2, &report);
  EXPECT_EQ(got1, want1);
  EXPECT_EQ(got2, want2);
  EXPECT_GT(report.injection_runs, 0u);
  EXPECT_EQ(report.jit_declined, "");
  // The fused region, then the filter-free regions the recheck grew.
  EXPECT_GT(report.traces_compiled + report.disk_cache_hits, 2u);
}

}  // namespace
}  // namespace avm::vm
