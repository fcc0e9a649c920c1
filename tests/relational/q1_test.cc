// Differential testing of the Q1 execution strategies (experiment E1's
// correctness backbone): every strategy must produce bit-identical results.
#include "relational/q1.h"

#include <gtest/gtest.h>

#include "engine/session.h"
#include "jit/jit_backend.h"

namespace avm::relational {
namespace {

class Q1Differential : public ::testing::TestWithParam<std::tuple<bool, int>> {
};

TEST_P(Q1Differential, AllStrategiesAgree) {
  auto [compress, chunk] = GetParam();
  LineitemSpec spec;
  spec.num_rows = 60'000;
  spec.compress = compress;
  auto table = MakeLineitem(spec);

  auto oracle = RunQ1Scalar(*table);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  auto vec = RunQ1Vectorized(*table, static_cast<uint32_t>(chunk));
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  EXPECT_EQ(vec.value(), oracle.value()) << "vectorized mismatch";

  auto compact = RunQ1VectorizedCompact(*table, static_cast<uint32_t>(chunk));
  ASSERT_TRUE(compact.ok()) << compact.status().ToString();
  EXPECT_EQ(compact.value(), oracle.value()) << "compact mismatch";

  if (jit::HostCompilerAvailable()) {
    auto compiled = RunQ1CompiledWholeQuery(*table);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_EQ(compiled.value(), oracle.value()) << "whole-query mismatch";
  }
}

INSTANTIATE_TEST_SUITE_P(
    CompressionAndChunks, Q1Differential,
    ::testing::Combine(::testing::Bool(), ::testing::Values(512, 1024, 4096)));

// Q1's whole loop body — seven compressed reads, the shipdate filter, the
// arithmetic and five grouped scatters — runs as one fused trace: a
// 1-worker session compiles exactly one trace and declines none. It is the
// first test of this binary to compile Q1, so its one trace is a compile
// (or, with a populated AVM_TRACE_CACHE_DIR, a disk load). The Session
// finishes that compile before it is destroyed, and a query on a fresh
// Session runs the trace.
TEST(Q1AdaptiveVmTest, LoopBodyCompilesAsOneTrace) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  LineitemSpec spec;
  spec.num_rows = 120'000;
  auto table = MakeLineitem(spec);
  auto oracle = RunQ1Scalar(*table);
  ASSERT_TRUE(oracle.ok());

  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kAdaptiveJit;
  engine::Query q = MakeQ1Query(*table).ValueOrDie();
  auto run = engine::Session({.num_workers = 1}).Run(q.context(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(Q1ResultFromQuery(q), oracle.value());
  const engine::ExecReport& rep = run.value();
  EXPECT_TRUE(rep.jit_declined.empty()) << rep.jit_declined;
  // Compiled fresh, or loaded from a configured persistent trace cache.
  EXPECT_EQ(rep.traces_compiled + rep.disk_cache_hits, 1u)
      << "compiled " << rep.traces_compiled << ", disk "
      << rep.disk_cache_hits;

  engine::Query again = MakeQ1Query(*table).ValueOrDie();
  auto rerun = engine::Session({.num_workers = 1}).Run(again.context(), opts);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(Q1ResultFromQuery(again), oracle.value());
  EXPECT_TRUE(rerun.value().jit_declined.empty()) << rerun.value().jit_declined;
  EXPECT_EQ(rerun.value().traces_compiled, 0u);
  EXPECT_EQ(rerun.value().traces_reused, 1u);
  EXPECT_GT(rerun.value().injection_runs, 0u);
}

TEST(Q1AdaptiveVmTest, InterpretedDslMatchesOracle) {
  LineitemSpec spec;
  spec.num_rows = 30'000;
  auto table = MakeLineitem(spec);
  auto oracle = RunQ1Scalar(*table);
  ASSERT_TRUE(oracle.ok());

  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kInterpret;
  opts.vm.enable_jit = false;
  engine::Query q = MakeQ1Query(*table).ValueOrDie();
  auto run = engine::Session({.num_workers = 1}).Run(q.context(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(Q1ResultFromQuery(q), oracle.value());
}

TEST(Q1AdaptiveVmTest, JitCompiledDslMatchesOracle) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  LineitemSpec spec;
  spec.num_rows = 120'000;
  auto table = MakeLineitem(spec);
  auto oracle = RunQ1Scalar(*table);
  ASSERT_TRUE(oracle.ok());

  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kAdaptiveJit;
  opts.vm.enable_jit = true;
  opts.vm.optimize_after_iterations = 8;
  engine::Query q = MakeQ1Query(*table).ValueOrDie();
  auto run = engine::Session({.num_workers = 1}).Run(q.context(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(Q1ResultFromQuery(q), oracle.value());
  EXPECT_GT(run.value().traces_compiled + run.value().traces_reused +
                run.value().disk_cache_hits,
            0u);
  EXPECT_GT(run.value().injection_runs, 0u);
}

TEST(Q1Test, GroupStructureMatchesGenerator) {
  LineitemSpec spec;
  spec.num_rows = 50'000;
  auto table = MakeLineitem(spec);
  auto r = RunQ1Scalar(*table);
  ASSERT_TRUE(r.ok());
  // Generator produces flags {A=0, N=1, R=2} x status {O=0, F=1}, but N
  // only pairs with recent dates and F with old dates: at least 3 live
  // groups, at most 6.
  int live = 0;
  int64_t total_count = 0;
  for (const auto& g : r.value().groups) {
    if (g.count > 0) ++live;
    total_count += g.count;
  }
  EXPECT_GE(live, 3);
  EXPECT_LE(live, 6);
  // ~98% selectivity on shipdate.
  EXPECT_GT(total_count, static_cast<int64_t>(spec.num_rows * 0.95));
  EXPECT_LT(total_count, static_cast<int64_t>(spec.num_rows));
}

TEST(Q1Test, SumsAreConsistent) {
  LineitemSpec spec;
  spec.num_rows = 20'000;
  auto table = MakeLineitem(spec);
  auto r = RunQ1Scalar(*table);
  ASSERT_TRUE(r.ok());
  for (const auto& g : r.value().groups) {
    if (g.count == 0) continue;
    // disc_price = price*(100-disc), disc in [0,10] => between 90x and 100x.
    EXPECT_GE(g.sum_disc_price, g.sum_base_price * 90);
    EXPECT_LE(g.sum_disc_price, g.sum_base_price * 100);
    // charge adds tax in [0,8]%.
    EXPECT_GE(g.sum_charge, g.sum_disc_price * 100);
    EXPECT_LE(g.sum_charge, g.sum_disc_price * 108);
    // quantity in [1, 50].
    EXPECT_GE(g.sum_qty, g.count);
    EXPECT_LE(g.sum_qty, g.count * 50);
  }
}

}  // namespace
}  // namespace avm::relational
