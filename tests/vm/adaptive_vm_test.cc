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

}  // namespace
}  // namespace avm::vm
