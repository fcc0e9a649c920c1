// The host compiler's identity line (`<compiler> --version`) feeds only the
// disk cache's version hash, so a process that compiles without a disk
// cache never runs it, and one with a disk cache runs it once.
// CMakeLists.txt runs this binary with AVM_CXX set to tests/jit/
// logging_cxx.sh, which appends the arguments of every compiler run to the
// file $LOGGING_CXX_LOG names; the test points that at a file of its own.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "engine/session.h"
#include "jit/disk_cache.h"
#include "jit/jit_backend.h"
#include "tests/temp_dir.h"

namespace avm::engine {
namespace {

dsl::Program Checked(dsl::Program p) {
  dsl::TypeCheck(&p).Abort("type check");
  return p;
}

/// Runs `out = src * mul + 1` under the JIT on a fresh 1-worker Session,
/// with `disk` as its persistent cache (none when null).
ExecReport RunMap(int64_t mul, std::shared_ptr<jit::DiskTraceCache> disk) {
  const int64_t n = 16 * 1024;
  std::vector<int64_t> src(n), out(n, 0);
  for (int64_t i = 0; i < n; ++i) src[i] = i - 500;
  ExecContext ctx(Checked(dsl::MakeMapPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(mul) + dsl::ConstI(1)))));
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, src.data(), n));
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kAdaptiveJit;
  qo.vm.optimize_after_iterations = 2;
  qo.vm.disk_cache = std::move(disk);
  auto r = Session({.num_workers = 1}).Run(ctx, qo);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], src[i] * mul + 1) << "row " << i;
    if (out[i] != src[i] * mul + 1) break;
  }
  return r.ok() ? r.value() : ExecReport{};
}

/// Lines of `path` that contain `needle`.
size_t LinesWith(const std::string& path, const std::string& needle) {
  std::ifstream f(path);
  size_t count = 0;
  for (std::string line; std::getline(f, line);) {
    count += line.find(needle) != std::string::npos;
  }
  return count;
}

TEST(CompilerIdentityTest, VersionRunsOnlyForTheDiskCacheAndOnce) {
  const char* cxx = std::getenv("AVM_CXX");
  ASSERT_NE(cxx, nullptr) << "run through ctest, which sets AVM_CXX";
  ASSERT_NE(std::string(cxx).find("logging_cxx.sh"), std::string::npos)
      << cxx;
  TempDir tmp("compiler_identity_test");
  const std::string log = tmp.path() + "/cxx.log";
  ASSERT_EQ(::setenv("LOGGING_CXX_LOG", log.c_str(), 1), 0);
  // No disk cache unless the test hands one in.
  ASSERT_EQ(::unsetenv("AVM_TRACE_CACHE_DIR"), 0);

  // Without a disk cache: the query compiles, and nothing asks the
  // compiler who it is.
  ExecReport plain = RunMap(17, nullptr);
  EXPECT_EQ(plain.traces_compiled, 1u);
  EXPECT_GE(LinesWith(log, "-shared"), 1u);
  EXPECT_EQ(LinesWith(log, "--version"), 0u);

  // With a disk cache: the first probe computes the version hash, once
  // for the process.
  auto disk = std::make_shared<jit::DiskTraceCache>(tmp.path() + "/cache",
                                                    64 << 20);
  ExecReport first = RunMap(19, disk);
  EXPECT_EQ(first.traces_compiled, 1u);
  EXPECT_EQ(first.disk_cache_misses, 1u);
  ExecReport second = RunMap(23, disk);
  EXPECT_EQ(second.traces_compiled, 1u);
  EXPECT_EQ(LinesWith(log, "--version"), 1u);
  EXPECT_EQ(LinesWith(log, "-shared"), 3u);
}

}  // namespace
}  // namespace avm::engine
