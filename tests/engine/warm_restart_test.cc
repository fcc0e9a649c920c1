// The persistent trace cache's headline guarantee, measured end to end: a
// fresh process pointed at a populated AVM_TRACE_CACHE_DIR answers its
// first query with ZERO compiler runs (disk hits instead), with the cold
// run's rows. Plus the robustness half: corrupt entries recompile, and two
// processes can share one directory.
//
// Every restart is a real process: the test re-runs its own binary through
// /proc/self/exe with AVM_TRACE_CACHE_DIR set, and the child runs
// WarmRestartTest.DISABLED_ChildRun, which prints its report. Within one
// process jit::CodeCache serves a later Session's traces from memory, so a
// fresh Session is no restart. (The CI warm job additionally runs the
// whole suite twice across processes against one shared directory.)
#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "engine/session.h"
#include "jit/jit_backend.h"
#include "storage/datagen.h"
#include "tests/temp_dir.h"
#include "tests/wait_for_compiles.h"

namespace avm::engine {
namespace {

dsl::Program Checked(dsl::Program p) {
  dsl::TypeCheck(&p).Abort("type check");
  return p;
}

std::vector<std::string> CacheEntries(const std::string& dir) {
  std::vector<std::string> entries;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return entries;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.size() > 6 && name.rfind(".avmtc") == name.size() - 6) {
      entries.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  return entries;
}

/// What one child process reported.
struct ChildReport {
  unsigned long long compiled = 0, hits = 0, misses = 0, corrupt = 0,
                     runs = 0;
  int rows_ok = 0;
  double opt_compile_seconds = 0, compile_seconds = 0;
  /// The child Session's compile time, its compiles finished.
  double session_compile_seconds = 0;
};

/// Runs DISABLED_ChildRun in a fresh process of this binary against the
/// cache directory `dir` and parses the report it prints.
Result<ChildReport> RunInFreshProcess(const std::string& dir) {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return Status::Internal("cannot resolve /proc/self/exe");
  self[n] = '\0';
  const std::string cmd = "AVM_TRACE_CACHE_DIR='" + dir + "' '" + self +
                          "' --gtest_also_run_disabled_tests"
                          " --gtest_filter=WarmRestartTest.DISABLED_ChildRun"
                          " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return Status::Internal("cannot start " + cmd);
  ChildReport r;
  bool reported = false;
  std::string output;
  char line[1024];
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    output += line;
    reported |= std::sscanf(line,
                            "child-report compiled=%llu hits=%llu "
                            "misses=%llu corrupt=%llu runs=%llu rows_ok=%d "
                            "opt_seconds=%lf seconds=%lf "
                            "session_seconds=%lf",
                            &r.compiled, &r.hits, &r.misses, &r.corrupt,
                            &r.runs, &r.rows_ok, &r.opt_compile_seconds,
                            &r.compile_seconds,
                            &r.session_compile_seconds) == 9;
  }
  const int status = ::pclose(pipe);
  if (status != 0 || !reported) {
    return Status::Internal("child run failed:\n" + output);
  }
  return r;
}

/// The child half: one map query over fixed data, with the disk cache
/// named by AVM_TRACE_CACHE_DIR. A single-map pipeline partitions into
/// exactly one trace, so the cold run's entry is exactly what the warm
/// run looks up.
TEST(WarmRestartTest, DISABLED_ChildRun) {
  if (std::getenv("AVM_TRACE_CACHE_DIR") == nullptr) {
    GTEST_SKIP() << "run by RunInFreshProcess";
  }
  const int64_t n = 64'000;
  DataGen gen(41);
  auto data = gen.UniformI64(n, -1000, 1000);
  std::vector<int64_t> out(n, 0);
  ExecContext ctx(Checked(dsl::MakeMapPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(7) - dsl::ConstI(3)))));
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  QueryOptions opts;  // disk cache resolved from the environment
  opts.strategy = ExecutionStrategy::kAdaptiveJit;
  opts.vm.optimize_after_iterations = 2;
  Session session({.num_workers = 1});
  auto report = session.Run(ctx, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The query ends before a compile it queued lands; the Session counts
  // every compile its thread finished.
  WaitForCompiles(session);
  int rows_ok = 1;
  for (int64_t i = 0; i < n; ++i) {
    if (out[i] != data[i] * 7 - 3) rows_ok = 0;
  }
  const ExecReport& r = report.value();
  std::printf(
      "child-report compiled=%llu hits=%llu misses=%llu corrupt=%llu "
      "runs=%llu rows_ok=%d opt_seconds=%.9f seconds=%.9f "
      "session_seconds=%.9f\n",
      (unsigned long long)r.traces_compiled,
      (unsigned long long)r.disk_cache_hits,
      (unsigned long long)r.disk_cache_misses,
      (unsigned long long)r.disk_cache_corrupt,
      (unsigned long long)r.injection_runs, rows_ok, r.opt_compile_seconds,
      r.compile_seconds, session.stats().compile_seconds);
  // The benchmark driver reads the one tier's fields.
  EXPECT_EQ(r.jit_tier, "opt");
  EXPECT_EQ(r.fast_compile_seconds, 0.0);
  EXPECT_EQ(r.tier_upgrades_requested, 0u);
}

TEST(WarmRestartTest, FreshEngineIsWarmFromPopulatedDir) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  TempDir tmp("avm_warm_restart_test");
  const std::string dir = tmp.path();

  // Cold process: compiles, misses the (empty) disk cache, stores.
  auto cold = RunInFreshProcess(dir);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold.value().compiled, 1u);
  EXPECT_GE(cold.value().misses, 1u);
  EXPECT_EQ(cold.value().hits, 0u);
  EXPECT_EQ(cold.value().rows_ok, 1);
  // One tier: the compile time is all optimized time. The query counts it
  // only if the compile landed while it ran; its Session counts it anyway.
  EXPECT_GT(cold.value().session_compile_seconds, 0.0);
  EXPECT_EQ(cold.value().opt_compile_seconds, cold.value().compile_seconds);
  EXPECT_LE(cold.value().compile_seconds,
            cold.value().session_compile_seconds);
  ASSERT_FALSE(CacheEntries(dir).empty());

  // Warm restart: ZERO compilations, machine code straight from disk, the
  // same rows. This is the acceptance contract of the disk cache.
  auto warm = RunInFreshProcess(dir);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value().compiled, 0u);
  EXPECT_GE(warm.value().hits, 1u);
  EXPECT_GT(warm.value().runs, 0u);
  EXPECT_EQ(warm.value().rows_ok, 1);
}

TEST(WarmRestartTest, CorruptEntriesRecompiledNotLoaded) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  TempDir tmp("avm_warm_restart_test");
  const std::string dir = tmp.path();

  auto cold = RunInFreshProcess(dir);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Flip one byte in every stored artifact (past the 56-byte header, into
  // the machine-code payload the checksum covers).
  std::vector<std::string> entries = CacheEntries(dir);
  ASSERT_FALSE(entries.empty());
  for (const std::string& path : entries) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fseek(f, 100, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 100, SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }

  // The restart detects every poisoned entry, recompiles, and still
  // produces the right rows — corruption costs latency, never answers.
  auto warm = RunInFreshProcess(dir);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GE(warm.value().corrupt, 1u);
  EXPECT_EQ(warm.value().compiled, 1u);
  EXPECT_EQ(warm.value().hits, 0u);
  EXPECT_EQ(warm.value().rows_ok, 1);

  // The recompile re-published a good entry: the next restart is warm again.
  auto rewarm = RunInFreshProcess(dir);
  ASSERT_TRUE(rewarm.ok()) << rewarm.status().ToString();
  EXPECT_EQ(rewarm.value().compiled, 0u);
  EXPECT_GE(rewarm.value().hits, 1u);
}

TEST(WarmRestartTest, TwoEnginesShareOneCacheDirConcurrently) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  TempDir tmp("avm_warm_restart_test");
  const std::string dir = tmp.path();

  // Two processes (two "servers") race the same directory:
  // rename-publication and checksummed reads mean both succeed with
  // correct results no matter who stores first.
  std::vector<Result<ChildReport>> results(2, Status::Internal("not run"));
  std::thread t0([&] { results[0] = RunInFreshProcess(dir); });
  std::thread t1([&] { results[1] = RunInFreshProcess(dir); });
  t0.join();
  t1.join();
  for (const Result<ChildReport>& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().rows_ok, 1);
    EXPECT_EQ(r.value().compiled + r.value().hits, 1u);
  }
}

TEST(WarmRestartTest, SharedEnvCacheDirContract) {
  // The CI warm-restart job's measured assertion. It builds once, then runs
  // the jit/engine labels twice with one shared AVM_TRACE_CACHE_DIR: the
  // cold pass populates it, and the warm pass — a genuinely fresh process —
  // sets AVM_CI_EXPECT_WARM=1, turning this test into the hard contract:
  // zero backend compiles, all machine code from disk.
  if (!jit::HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  if (std::getenv("AVM_TRACE_CACHE_DIR") == nullptr) {
    GTEST_SKIP() << "AVM_TRACE_CACHE_DIR unset";
  }
  const int64_t n = 64'000;
  DataGen gen(61);
  auto data = gen.UniformI64(n, -1000, 1000);
  std::vector<int64_t> out(n, 0);
  // A program shape private to this test, so its cache entry is written and
  // read only here.
  ExecContext ctx(Checked(dsl::MakeMapPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(13) + dsl::ConstI(29)))));
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  QueryOptions opts;  // disk cache resolved from the environment
  opts.strategy = ExecutionStrategy::kAdaptiveJit;
  opts.vm.optimize_after_iterations = 2;
  auto report = Session({.num_workers = 1}).Run(ctx, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  if (std::getenv("AVM_CI_EXPECT_WARM") != nullptr) {
    EXPECT_EQ(report.value().traces_compiled, 0u)
        << "warm pass recompiled: " << report.value().ToString();
    EXPECT_GT(report.value().disk_cache_hits, 0u)
        << "warm pass missed the disk cache: " << report.value().ToString();
  } else {
    EXPECT_GT(report.value().traces_compiled + report.value().disk_cache_hits,
              0u);
  }
  for (int64_t i = 0; i < n; i += 379) {
    ASSERT_EQ(out[i], data[i] * 13 + 29) << "row " << i;
  }
}

}  // namespace
}  // namespace avm::engine
