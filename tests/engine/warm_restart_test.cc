// The persistent trace cache's headline guarantee, measured end to end: a
// fresh engine pointed at a populated AVM_TRACE_CACHE_DIR answers its first
// query with ZERO backend compilations (disk hits instead), byte-identical
// to the cold run. Plus the robustness half: corrupt entries recompile, two
// engines can share one directory, and hot traces upgrade tiers.
//
// "Process restart" is modeled as a fresh engine::Session with a fresh
// DiskTraceCache instance: a new in-memory TraceCache and new cache state,
// with only the directory surviving — exactly what a restarted server sees.
// (The CI warm job additionally runs the whole suite twice across real
// processes against one shared directory.)
#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dsl/builder.h"
#include "engine/session.h"
#include "jit/disk_cache.h"
#include "jit/jit_backend.h"
#include "storage/datagen.h"
#include "tests/temp_dir.h"

namespace avm::engine {
namespace {

/// A single-map pipeline partitions into exactly one trace with a stable
/// situation fingerprint, so the cold run's entry is exactly what the warm
/// run looks up.
ExecContext::ProgramFactory MapFactory() {
  return [](int64_t rows) -> Result<dsl::Program> {
    return dsl::MakeMapPipeline(
        TypeId::kI64,
        dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(7) - dsl::ConstI(3)),
        rows);
  };
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

struct RunOutput {
  ExecReport report;
  std::vector<int64_t> out;
};

/// One "process lifetime": a fresh session and a fresh disk-cache instance
/// over `dir`, running the map query once.
Result<RunOutput> RunOnce(const std::string& dir, jit::TierPolicy policy,
                          const std::vector<int64_t>& data,
                          uint64_t upgrade_after = 1ull << 40) {
  const int64_t n = static_cast<int64_t>(data.size());
  RunOutput r;
  r.out.assign(n, 0);
  ExecContext ctx(MapFactory(), n);
  ctx.BindInput("src", interp::DataBinding::Raw(
                           TypeId::kI64, const_cast<int64_t*>(data.data()), n));
  ctx.BindOutput(
      "out", interp::DataBinding::Raw(TypeId::kI64, r.out.data(), n, true));
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kAdaptiveJit;
  opts.vm.optimize_after_iterations = 2;
  opts.vm.jit_tier_policy = policy;
  opts.vm.jit_upgrade_after = upgrade_after;
  opts.vm.disk_cache = std::make_shared<jit::DiskTraceCache>(dir, 64 << 20);
  AVM_ASSIGN_OR_RETURN(r.report, Session({.num_workers = 1}).Run(ctx, opts));
  return r;
}

TEST(WarmRestartTest, FreshEngineIsWarmFromPopulatedDir) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  TempDir tmp("avm_warm_restart_test");
  const std::string dir = tmp.path();
  DataGen gen(41);
  auto data = gen.UniformI64(64'000, -1000, 1000);

  // Cold process: compiles, misses the (empty) disk cache, stores.
  auto cold = RunOnce(dir, jit::TierPolicy::kOptimizedOnly, data);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold.value().report.traces_compiled, 1u);
  EXPECT_GE(cold.value().report.disk_cache_misses, 1u);
  EXPECT_EQ(cold.value().report.disk_cache_hits, 0u);
  EXPECT_EQ(cold.value().report.opt_compiles, 1u);
  ASSERT_FALSE(CacheEntries(dir).empty());

  // Warm restart: ZERO compilations, machine code straight from disk,
  // byte-identical output. This is the acceptance contract of the PR.
  auto warm = RunOnce(dir, jit::TierPolicy::kOptimizedOnly, data);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value().report.traces_compiled, 0u);
  EXPECT_GE(warm.value().report.disk_cache_hits, 1u);
  EXPECT_GT(warm.value().report.injection_runs, 0u);
  EXPECT_EQ(warm.value().out, cold.value().out);
}

TEST(WarmRestartTest, TieredPolicyRestartsAtStoredTier) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  TempDir tmp("avm_warm_restart_test");
  const std::string dir = tmp.path();
  DataGen gen(43);
  auto data = gen.UniformI64(64'000, -1000, 1000);

  // Cold tiered run: the first execution pays only a fast (-O0) compile.
  auto cold = RunOnce(dir, jit::TierPolicy::kTiered, data);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold.value().report.jit_tier, std::string("tiered"));
  EXPECT_EQ(cold.value().report.fast_compiles, 1u);
  EXPECT_EQ(cold.value().report.opt_compiles, 0u);

  auto warm = RunOnce(dir, jit::TierPolicy::kTiered, data);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value().report.traces_compiled, 0u);
  EXPECT_GE(warm.value().report.disk_cache_hits, 1u);
  EXPECT_EQ(warm.value().out, cold.value().out);
}

TEST(WarmRestartTest, CorruptEntriesRecompiledNotLoaded) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  TempDir tmp("avm_warm_restart_test");
  const std::string dir = tmp.path();
  DataGen gen(47);
  auto data = gen.UniformI64(64'000, -1000, 1000);

  auto cold = RunOnce(dir, jit::TierPolicy::kOptimizedOnly, data);
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
  // produces identical results — corruption costs latency, never answers.
  auto warm = RunOnce(dir, jit::TierPolicy::kOptimizedOnly, data);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GE(warm.value().report.disk_cache_corrupt, 1u);
  EXPECT_EQ(warm.value().report.traces_compiled, 1u);
  EXPECT_EQ(warm.value().report.disk_cache_hits, 0u);
  EXPECT_EQ(warm.value().out, cold.value().out);

  // The recompile re-published a good entry: the next restart is warm again.
  auto rewarm = RunOnce(dir, jit::TierPolicy::kOptimizedOnly, data);
  ASSERT_TRUE(rewarm.ok()) << rewarm.status().ToString();
  EXPECT_EQ(rewarm.value().report.traces_compiled, 0u);
  EXPECT_GE(rewarm.value().report.disk_cache_hits, 1u);
}

TEST(WarmRestartTest, TwoEnginesShareOneCacheDirConcurrently) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  TempDir tmp("avm_warm_restart_test");
  const std::string dir = tmp.path();
  DataGen gen(53);
  auto data = gen.UniformI64(48'000, -1000, 1000);

  // Two independent engine+cache instances (two "servers") race the same
  // directory: rename-publication and checksummed reads mean both succeed
  // with correct results no matter who stores first.
  std::vector<Result<RunOutput>> results;
  results.reserve(2);
  results.push_back(Status::Internal("not run"));
  results.push_back(Status::Internal("not run"));
  std::thread t0([&] {
    results[0] = RunOnce(dir, jit::TierPolicy::kOptimizedOnly, data);
  });
  std::thread t1([&] {
    results[1] = RunOnce(dir, jit::TierPolicy::kOptimizedOnly, data);
  });
  t0.join();
  t1.join();
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
  EXPECT_EQ(results[0].value().out, results[1].value().out);
  for (int64_t i = 0; i < 48'000; i += 373) {
    ASSERT_EQ(results[0].value().out[i], data[i] * 7 - 3) << "row " << i;
  }
}

TEST(WarmRestartTest, HotTraceUpgradesToOptimizedTier) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  TempDir tmp("avm_warm_restart_test");
  const std::string dir = tmp.path();
  DataGen gen(59);
  auto data = gen.UniformI64(96'000, -1000, 1000);

  // Tiered with an aggressive hotness threshold: the injection crosses it
  // within a few chunks, claiming an async upgrade mid-run.
  auto run = RunOnce(dir, jit::TierPolicy::kTiered, data,
                     /*upgrade_after=*/1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().report.fast_compiles, 1u);
  EXPECT_GE(run.value().report.tier_upgrades_requested, 1u);
  for (int64_t i = 0; i < 96'000; i += 373) {
    ASSERT_EQ(run.value().out[i], data[i] * 7 - 3) << "row " << i;
  }

  // The upgrade thread publishes the optimized artifact to the shared
  // directory when it finishes; wait for it (generously — it runs a real
  // -O2 compile).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool opt_stored = false;
  while (!opt_stored && std::chrono::steady_clock::now() < deadline) {
    for (const std::string& path : CacheEntries(dir)) {
      if (path.find(".opt.avmtc") != std::string::npos) opt_stored = true;
    }
    if (!opt_stored) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_TRUE(opt_stored)
      << "async tier upgrade never published an optimized artifact";

  // A restarted engine resumes at the best tier reached, still compiling
  // nothing.
  auto warm = RunOnce(dir, jit::TierPolicy::kTiered, data);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value().report.traces_compiled, 0u);
  EXPECT_GE(warm.value().report.disk_cache_hits, 1u);
  EXPECT_EQ(warm.value().out, run.value().out);
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
  ExecContext ctx(
      [](int64_t rows) -> Result<dsl::Program> {
        return dsl::MakeMapPipeline(
            TypeId::kI64,
            dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(13) +
                                   dsl::ConstI(29)),
            rows);
      },
      n);
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
