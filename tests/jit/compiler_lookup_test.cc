// The host compiler is looked up on $PATH inside the process: with AVM_CXX
// unset, a JIT query compiles with the first `c++` on PATH. CMakeLists.txt
// runs this binary with LOGGING_CXX_SCRIPT naming tests/jit/logging_cxx.sh,
// LOGGING_CXX naming the real compiler, and AVM_CXX=/bin/false, which the
// test unsets before its first JIT call (were it still read, every compile
// would fail). The test puts a directory whose `c++` is the logging script
// first on PATH and expects the query's compile in the script's log.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "engine/session.h"
#include "jit/jit_backend.h"
#include "tests/temp_dir.h"

namespace avm::engine {
namespace {

dsl::Program Checked(dsl::Program p) {
  dsl::TypeCheck(&p).Abort("type check");
  return p;
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

TEST(CompilerLookupTest, FirstCxxOnPathCompiles) {
  const char* script = std::getenv("LOGGING_CXX_SCRIPT");
  const char* path = std::getenv("PATH");
  ASSERT_NE(script, nullptr) << "run through ctest, which sets it";
  // Without it the script would run itself through PATH.
  ASSERT_NE(std::getenv("LOGGING_CXX"), nullptr);
  ASSERT_NE(path, nullptr);
  TempDir tmp("compiler_lookup_test");
  const std::string bin = tmp.path() + "/bin";
  const std::string log = tmp.path() + "/cxx.log";
  ASSERT_TRUE(std::filesystem::create_directory(bin));
  std::filesystem::create_symlink(script, bin + "/c++");
  ASSERT_EQ(::setenv("PATH", (bin + ":" + path).c_str(), 1), 0);
  ASSERT_EQ(::setenv("LOGGING_CXX_LOG", log.c_str(), 1), 0);
  ASSERT_EQ(::unsetenv("AVM_CXX"), 0);
  ASSERT_EQ(::unsetenv("AVM_TRACE_CACHE_DIR"), 0);
  ASSERT_TRUE(jit::HostCompilerAvailable());

  const int64_t n = 16 * 1024;
  std::vector<int64_t> src(n), out(n, 0);
  for (int64_t i = 0; i < n; ++i) src[i] = i - 500;
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kAdaptiveJit;
  qo.vm.optimize_after_iterations = 2;
  auto run = [&] {
    ExecContext ctx(Checked(dsl::MakeMapPipeline(
        TypeId::kI64,
        dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(13) + dsl::ConstI(2)))));
    ctx.BindInput("src",
                  interp::DataBinding::Raw(TypeId::kI64, src.data(), n));
    ctx.BindOutput("out", interp::DataBinding::Raw(TypeId::kI64, out.data(),
                                                   n, true));
    // The Session finishes the compile it queued before it is destroyed.
    return Session({.num_workers = 1}).Run(ctx, qo);
  };
  auto r = run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], src[i] * 13 + 2) << i;
  EXPECT_EQ(r.value().traces_compiled, 1u);
  EXPECT_EQ(LinesWith(log, "-shared"), 1u);

  // The compiled code runs the next query.
  out.assign(n, 0);
  auto again = run();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], src[i] * 13 + 2) << i;
  EXPECT_EQ(again.value().traces_compiled, 0u);
  EXPECT_GT(again.value().injection_runs, 0u);
  EXPECT_EQ(LinesWith(log, "-shared"), 1u);
}

}  // namespace
}  // namespace avm::engine
