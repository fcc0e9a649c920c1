// Full-stack integration: text program -> parse -> type check -> adaptive
// VM (interpret, profile, JIT, inject) -> results, including compressed
// storage and scheme-change fallback.
#include <gtest/gtest.h>

#include "dsl/parser.h"
#include "dsl/printer.h"
#include "dsl/typecheck.h"
#include "jit/jit_backend.h"
#include "storage/datagen.h"
#include "vm/adaptive_vm.h"

namespace avm {
namespace {

using interp::DataBinding;

constexpr const char* kPipelineSrc = R"(
data prices : i64
data taxed : i64 writable
data expensive : i64 writable
mut i
mut k
i := 0
k := 0
loop
  let p = read i prices in
  let t = map (\x -> x + x / 10) p in
  let f = filter (\x -> x > 5000) t in
  let e = condense f
  write taxed i t
  write expensive k e
  i := i + len(p)
  k := k + len(e)
  if i >= 131072 then
    break
)";

struct PipelineResult {
  std::vector<int64_t> taxed;
  std::vector<int64_t> expensive;
  int64_t expensive_count = 0;
  vm::VmReport report;
  std::string profile;  ///< the interpreter's operator profile
};

Result<PipelineResult> RunPipeline(const Column& prices, vm::VmOptions opts) {
  AVM_ASSIGN_OR_RETURN(dsl::Program p, dsl::ParseProgram(kPipelineSrc));
  AVM_RETURN_NOT_OK(dsl::TypeCheck(&p));
  const uint64_t n = prices.num_rows();
  PipelineResult out;
  out.taxed.assign(n, 0);
  out.expensive.assign(n, 0);
  vm::AdaptiveVm vmach(&p, opts);
  auto& in = vmach.interpreter();
  AVM_RETURN_NOT_OK(in.BindData("prices", DataBinding::FromColumn(&prices)));
  AVM_RETURN_NOT_OK(in.BindData(
      "taxed", DataBinding::Raw(TypeId::kI64, out.taxed.data(), n, true)));
  AVM_RETURN_NOT_OK(in.BindData(
      "expensive",
      DataBinding::Raw(TypeId::kI64, out.expensive.data(), n, true)));
  AVM_RETURN_NOT_OK(vmach.Run());
  AVM_ASSIGN_OR_RETURN(interp::ScalarValue k, in.GetScalar("k"));
  out.expensive_count = k.AsI64();
  out.report = vmach.Report();
  out.profile = in.profiler().ToString();
  return out;
}

Column MakePriceColumn(uint64_t n, bool mixed_schemes) {
  Column col(TypeId::kI64, 8192);
  DataGen gen(42);
  if (!mixed_schemes) {
    auto v = gen.UniformI64(n, 1000, 9000);  // FOR-friendly
    col.AppendValues(v.data(), static_cast<uint32_t>(n)).Abort();
    return col;
  }
  // Alternate FOR-friendly and plain-wide blocks, forcing mid-run
  // situation changes.
  uint64_t produced = 0;
  int block = 0;
  while (produced < n) {
    uint32_t take = static_cast<uint32_t>(std::min<uint64_t>(8192,
                                                             n - produced));
    if (block % 2 == 0) {
      auto v = gen.UniformI64(take, 1000, 9000);
      col.AppendBlockWithScheme(Scheme::kFor, v.data(), take).Abort();
    } else {
      auto v = gen.UniformI64(take, 0, int64_t{1} << 45);
      col.AppendBlockWithScheme(Scheme::kPlain, v.data(), take).Abort();
    }
    produced += take;
    ++block;
  }
  return col;
}

void ExpectSameResults(const PipelineResult& a, const PipelineResult& b) {
  ASSERT_EQ(a.taxed.size(), b.taxed.size());
  EXPECT_EQ(a.taxed, b.taxed);
  ASSERT_EQ(a.expensive_count, b.expensive_count);
  for (int64_t i = 0; i < a.expensive_count; ++i) {
    ASSERT_EQ(a.expensive[i], b.expensive[i]) << i;
  }
}

TEST(EndToEndTest, InterpretedOnly) {
  Column prices = MakePriceColumn(131072, false);
  vm::VmOptions opts;
  opts.enable_jit = false;
  auto r = RunPipeline(prices, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Spot-check semantics: taxed = x + x/10 (integer division).
  std::vector<int64_t> raw(100);
  ASSERT_TRUE(prices.Read(0, 100, raw.data()).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(r.value().taxed[i], raw[i] + raw[i] / 10);
  }
}

TEST(EndToEndTest, AdaptiveJitMatchesInterpreter) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  Column prices = MakePriceColumn(131072, false);
  vm::VmOptions interp_only;
  interp_only.enable_jit = false;
  auto a = RunPipeline(prices, interp_only);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  vm::VmOptions adaptive;
  adaptive.optimize_after_iterations = 4;
  auto b = RunPipeline(prices, adaptive);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GT(b.value().report.traces_compiled +
                b.value().report.disk_cache_hits,
            0u);
  EXPECT_GT(b.value().report.injection_runs, 0u);
  ExpectSameResults(a.value(), b.value());
}

TEST(EndToEndTest, MixedSchemesForceFallbackAndStayCorrect) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  Column prices = MakePriceColumn(262144, true);
  vm::VmOptions interp_only;
  interp_only.enable_jit = false;
  auto a = RunPipeline(prices, interp_only);
  ASSERT_TRUE(a.ok());

  vm::VmOptions adaptive;
  adaptive.optimize_after_iterations = 2;
  adaptive.recheck_interval = 4;
  auto b = RunPipeline(prices, adaptive);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectSameResults(a.value(), b.value());
  // Alternating schemes: the FOR-specialized variant cannot cover the plain
  // blocks, so compiled variants for both situations exist.
  EXPECT_GE(b.value().report.traces_compiled +
                b.value().report.disk_cache_hits,
            1u);
}

TEST(EndToEndTest, PrintedProgramRunsIdentically) {
  // print -> reparse -> run must be semantically identical.
  auto p1 = dsl::ParseProgram(kPipelineSrc);
  ASSERT_TRUE(p1.ok());
  std::string printed = dsl::PrintProgram(p1.value());
  auto p2 = dsl::ParseProgram(printed);
  ASSERT_TRUE(p2.ok()) << p2.status().ToString() << "\n" << printed;
  EXPECT_TRUE(dsl::ProgramEquals(p1.value(), p2.value()));
}

TEST(EndToEndTest, ProfilerIdentifiesMapAsHot) {
  Column prices = MakePriceColumn(131072, false);
  vm::VmOptions opts;
  opts.enable_jit = false;
  auto r = RunPipeline(prices, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().profile.empty());
  EXPECT_NE(r.value().profile.find("map"), std::string::npos);
  EXPECT_NE(r.value().profile.find("filter"), std::string::npos);
}

}  // namespace
}  // namespace avm
