#include "engine/exec_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "engine/session.h"
#include "jit/jit_backend.h"
#include "relational/q1.h"
#include "storage/datagen.h"
#include "tests/wait_for_compiles.h"

namespace avm::engine {
namespace {

using relational::MakeQ1Query;
using relational::Q1Result;
using relational::Q1ResultFromQuery;
using relational::RunQ1Scalar;

std::unique_ptr<Table> SmallLineitem(uint64_t rows = 120'000) {
  LineitemSpec spec;
  spec.num_rows = rows;
  return MakeLineitem(spec);
}

dsl::Program Checked(dsl::Program p) {
  dsl::TypeCheck(&p).Abort("type check");
  return p;
}

/// out[i] = 3 * src[i] + 1 over every row bound to src.
dsl::Program TripleMap() {
  return Checked(dsl::MakeMapPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(3) + dsl::ConstI(1))));
}

TEST(ExecContextTest, SerialInterpretedMapPipeline) {
  const int64_t n = 10'000;
  DataGen gen(3);
  auto data = gen.UniformI64(n, -100, 100);
  std::vector<int64_t> out(n);

  ExecContext ctx(TripleMap());
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  auto report = Session({.num_workers = 1}).Run(ctx, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().workers, 1u);
  EXPECT_EQ(report.value().rows, static_cast<uint64_t>(n));
  EXPECT_EQ(report.value().traces_compiled, 0u);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], data[i] * 3 + 1) << "row " << i;
  }
}

TEST(ExecContextTest, ReportRecordsResolvedKernelTier) {
  const int64_t n = 4'096;
  DataGen gen(5);
  auto data = gen.UniformI64(n, -100, 100);
  std::vector<int64_t> out(n);

  auto run_with_tier = [&](interp::KernelTier tier) -> std::string {
    ExecContext ctx(TripleMap());
    ctx.BindInput("src",
                  interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
    ctx.BindOutput(
        "out", interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
    QueryOptions opts;
    opts.strategy = ExecutionStrategy::kInterpret;
    opts.vm.interp.kernel_tier = tier;
    auto report = Session({.num_workers = 1}).Run(ctx, opts);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report.value().kernel_tier : "";
  };

  // kAuto resolves to whatever the host supports; the report must name it.
  EXPECT_EQ(run_with_tier(interp::KernelTier::kAuto),
            interp::TierName(interp::ResolveKernelTier(interp::KernelTier::kAuto)));
  // Forcing scalar always sticks — every host supports it.
  EXPECT_EQ(run_with_tier(interp::KernelTier::kScalar), "scalar");
}

TEST(ExecContextTest, ParallelMapPipelineMatchesSerial) {
  const int64_t n = 500'000;
  DataGen gen(7);
  auto data = gen.UniformI64(n, -1000, 1000);
  std::vector<int64_t> serial_out(n), parallel_out(n);

  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  {
    ExecContext ctx(TripleMap());
    ctx.BindInput("src",
                  interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
    ctx.BindOutput("out", interp::DataBinding::Raw(
                              TypeId::kI64, serial_out.data(), n, true));
    ASSERT_TRUE(Session({.num_workers = 1}).Run(ctx, opts).ok());
  }
  {
    ExecContext ctx(TripleMap());
    ctx.BindInput("src",
                  interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
    ctx.BindOutput("out", interp::DataBinding::Raw(
                              TypeId::kI64, parallel_out.data(), n, true));
    auto report = Session({.num_workers = 4}).Run(ctx, opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report.value().morsels, 1u);
    EXPECT_GT(report.value().workers, 1u);
  }
  EXPECT_EQ(serial_out, parallel_out);
}

TEST(ExecContextTest, ParallelColumnInputSlicing) {
  // Column-backed input: morsel slices must decode the right row ranges
  // even when morsel boundaries disagree with block boundaries.
  const uint64_t n = 200'000;
  const uint32_t block_size = 8192;
  // Precondition: the automatic 4-worker morsel size (13,312 rows) is not a
  // multiple of the block size, so morsel boundaries fall inside blocks.
  const std::vector<Morsel> planned =
      PartitionRows(n, 4, /*morsel_rows=*/0, kDefaultChunkSize);
  ASSERT_GE(planned.size(), 10u);
  ASSERT_NE(planned[0].rows() % block_size, 0u);

  DataGen gen(11);
  auto values = gen.UniformI64(n, 0, 1 << 20);
  Column col(TypeId::kI64, block_size);
  ASSERT_TRUE(col.AppendValues(values.data(), static_cast<uint32_t>(n)).ok());

  std::vector<int64_t> out(n);
  ExecContext ctx(TripleMap());
  ctx.BindInputColumn("src", &col);
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  auto report = Session({.num_workers = 4}).Run(ctx, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().morsels, planned.size());
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], values[i] * 3 + 1) << "row " << i;
  }
}

TEST(ExecContextTest, ParallelQ1BitIdenticalToSingleThreaded) {
  auto table = SmallLineitem();
  auto oracle = RunQ1Scalar(*table);
  ASSERT_TRUE(oracle.ok());

  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  Query serial = MakeQ1Query(*table).ValueOrDie();
  auto s = Session({.num_workers = 1}).Run(serial.context(), opts);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(Q1ResultFromQuery(serial), oracle.value());

  Query parallel = MakeQ1Query(*table).ValueOrDie();
  auto p = Session({.num_workers = 4}).Run(parallel.context(), opts);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_GT(p.value().morsels, 1u);
  // Integer aggregates: merge order cannot perturb the result — the
  // parallel run must be bit-identical to the serial one.
  EXPECT_EQ(Q1ResultFromQuery(parallel), Q1ResultFromQuery(serial));
  EXPECT_EQ(Q1ResultFromQuery(parallel), oracle.value());
}

TEST(ExecContextTest, ParallelQ1WithSharedJitCache) {
  if (!jit::HostCompilerAvailable()) {
    GTEST_SKIP() << "no host compiler";
  }
  auto table = SmallLineitem();
  auto oracle = RunQ1Scalar(*table);
  ASSERT_TRUE(oracle.ok());

  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kAdaptiveJit;
  opts.vm.optimize_after_iterations = 2;
  Session session({.num_workers = 4});
  // The first query requests the compile; the second installs its code.
  Query warm = MakeQ1Query(*table).ValueOrDie();
  ASSERT_TRUE(session.Run(warm.context(), opts).ok());
  EXPECT_EQ(Q1ResultFromQuery(warm), oracle.value());
  WaitForCompiles(session);
  Query q = MakeQ1Query(*table).ValueOrDie();
  auto run = session.Run(q.context(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(Q1ResultFromQuery(q), oracle.value());
  EXPECT_GT(run.value().injection_runs, 0u);
  // The query's shared TracePlan means later workers install what the
  // first worker compiled instead of compiling their own copies: far fewer
  // compilations than workers * traces, and at least one reuse.
  EXPECT_GT(run.value().traces_compiled + run.value().traces_reused +
                run.value().disk_cache_hits,
            0u);
  EXPECT_GT(run.value().traces_reused, 0u);
}

TEST(ExecContextTest, RepeatedRunsReuseCompiledCode) {
  if (!jit::HostCompilerAvailable()) {
    GTEST_SKIP() << "no host compiler";
  }
  // A single-map pipeline partitions into exactly one trace regardless of
  // profiled costs, so its generated source is stable run-over-run. No
  // earlier test in this binary compiles it.
  const int64_t n = 64'000;
  DataGen gen(23);
  auto data = gen.UniformI64(n, -100, 100);
  std::vector<int64_t> out(n);

  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kAdaptiveJit;
  opts.vm.optimize_after_iterations = 2;
  Session session({.num_workers = 1});

  auto run_once = [&]() -> Result<ExecReport> {
    // Re-create the context per run, like a repeated query would.
    ExecContext ctx(TripleMap());
    ctx.BindInput("src",
                  interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
    ctx.BindOutput("out", interp::DataBinding::Raw(TypeId::kI64, out.data(),
                                                   n, true));
    return session.Run(ctx, opts);
  };

  auto first = run_once();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Warm persistent caches satisfy the first compile from disk instead.
  EXPECT_EQ(first.value().traces_compiled + first.value().disk_cache_hits, 1u);
  auto second = run_once();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Second run of the same query shape: the machine code comes from the
  // process's code cache, not a fresh compilation.
  EXPECT_GT(second.value().traces_reused, 0u);
  EXPECT_EQ(second.value().traces_compiled, 0u);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], data[i] * 3 + 1) << "row " << i;
  }
}

// Compute-heavy map: enough scalar ops per row that the placer's cost model
// favors the GPU even with cold PCIe transfers both ways.
dsl::Program DeepMap() {
  using namespace dsl;
  ExprPtr body = Var("x");
  for (int d = 0; d < 10; ++d) {
    body = body * ConstI(3) + Var("x");
  }
  return Checked(MakeMapPipeline(TypeId::kI64, Lambda({"x"}, std::move(body))));
}

int64_t DeepMapReference(int64_t x) {
  int64_t v = x;
  for (int d = 0; d < 10; ++d) v = v * 3 + x;
  return v;
}

TEST(ExecContextTest, GpuOffloadRunsMapFragmentOnSimDevice) {
  const int64_t n = 8 << 20;  // large enough that the placer picks the GPU
  DataGen gen(13);
  auto data = gen.UniformI64(n, -500, 500);
  std::vector<int64_t> out(n);

  ExecContext ctx(DeepMap());
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kGpuOffload;
  auto report = Session({.num_workers = 1}).Run(ctx, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().device, "gpu-sim");
  EXPECT_GT(report.value().gpu_sim_seconds, 0.0);
  for (int64_t i = 0; i < n; i += 997) {
    ASSERT_EQ(out[i], DeepMapReference(data[i])) << "row " << i;
  }
}

TEST(ExecContextTest, GpuOffloadFallsBackToCpuForUnsupportedShapes) {
  // Q1 (scatter aggregation) is not an offloadable map fragment: the
  // engine must transparently fall back to the CPU path.
  auto table = SmallLineitem(30'000);
  auto oracle = RunQ1Scalar(*table);
  ASSERT_TRUE(oracle.ok());
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kGpuOffload;
  opts.vm.enable_jit = false;
  Query q = MakeQ1Query(*table).ValueOrDie();
  auto run = Session({.num_workers = 1}).Run(q.context(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(Q1ResultFromQuery(q), oracle.value());
  EXPECT_EQ(run.value().device, "cpu");
}

TEST(ExecContextTest, UndersizedBindingRejectedNotHung) {
  // The loop runs to the end of src; an output binding shorter than src
  // would hand the last morsels rows past its end. Must error instead.
  const int64_t n = 1000;
  std::vector<int64_t> data(n, 1), out(500);
  ExecContext ctx(TripleMap());
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), 500, true));
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  auto report = Session({.num_workers = 1}).Run(ctx, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("out"), std::string::npos);
}

TEST(ExecContextTest, CondensingProgramsForcedSerial) {
  // Condensed outputs land at data-dependent positions, so row-partitioned
  // parallelism would corrupt them: the engine must detect the condense and
  // fall back to a serial run even when workers were requested.
  const int64_t n = 100'000;
  DataGen gen(29);
  auto data = gen.UniformI64(n, 0, 1000);
  std::vector<int64_t> out(n, -1);
  int64_t survivors = -1;

  ExecContext ctx(Checked(dsl::MakeFilterPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Call(dsl::ScalarOp::kLt,
                                   {dsl::Var("x"), dsl::ConstI(500)})))));
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  ctx.set_task_hook([&](const interp::Interpreter& in, const Morsel&) {
    survivors = in.GetScalar("k").ValueOrDie().AsI64();
    return Status::OK();
  });
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  auto report = Session({.num_workers = 4}).Run(ctx, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().morsels, 1u);
  EXPECT_EQ(report.value().workers, 1u);
  // The dropped parallelism request must be surfaced, not silently eaten.
  EXPECT_NE(report.value().ran_serial_reason.find("row-partitionable"),
            std::string::npos)
      << report.value().ran_serial_reason;

  std::vector<int64_t> expect;
  for (int64_t v : data) {
    if (v < 500) expect.push_back(v);
  }
  ASSERT_EQ(survivors, static_cast<int64_t>(expect.size()));
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(out[i], expect[i]) << "survivor " << i;
  }
}

TEST(ExecContextTest, LoopNotEndingAtLenOfAnInputRunsAsOneTask) {
  // A map whose loop ends at a constant owns its bound, which a morsel's
  // loop over its row slice would never reach: a 4-worker Session must run
  // it as one whole-array task and say why, instead of ignoring
  // num_workers on the floor. The same map bounded by len(src) runs in
  // morsels and writes the same rows.
  const int64_t n = 50'000;
  DataGen gen(31);
  auto data = gen.UniformI64(n, 0, 100);
  auto doubling = [] {
    return dsl::MakeMapPipeline(
        TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(2)));
  };
  const dsl::Program bounded = Checked(doubling());
  // The loop's last statement is its exit, `if i >= len(src) then break`.
  dsl::Program constant = doubling();
  constant.stmts.back()->body.back()->expr->args[1] = dsl::ConstI(n);
  constant.AssignIds();
  constant = Checked(std::move(constant));

  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  auto run = [&](const dsl::Program& program, size_t workers,
                 std::vector<int64_t>* out) {
    out->assign(n, 0);
    ExecContext ctx(program);
    ctx.BindInput("src",
                  interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
    ctx.BindOutput(
        "out", interp::DataBinding::Raw(TypeId::kI64, out->data(), n, true));
    return Session({.num_workers = workers}).Run(ctx, opts);
  };
  std::vector<int64_t> whole, sliced;
  auto report = run(constant, 4, &whole);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().morsels, 1u);
  EXPECT_EQ(report.value().workers, 1u);
  EXPECT_NE(report.value().ran_serial_reason.find("loop bound"),
            std::string::npos)
      << "reason: " << report.value().ran_serial_reason;
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(whole[i], data[i] * 2) << "row " << i;
  }

  auto partitioned = run(bounded, 4, &sliced);
  ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();
  EXPECT_GT(partitioned.value().morsels, 1u);
  EXPECT_TRUE(partitioned.value().ran_serial_reason.empty())
      << partitioned.value().ran_serial_reason;
  EXPECT_EQ(sliced, whole);

  // Serial runs that were never asked to parallelize stay silent.
  auto serial = run(constant, 1, &whole);
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(serial.value().ran_serial_reason.empty());
}

TEST(ExecContextTest, FixedProgramSingleTaskBindsWholeArrays) {
  // A program whose loop ends at a constant owns its loop bound and may
  // address rows past its input's length: this one copies each input chunk
  // to out[i] and out[i + n]. Its one task must bind the whole 2n-row
  // output; a slice of n rows would fail the second write.
  const int64_t n = 10'000;
  DataGen gen(37);
  auto data = gen.UniformI64(n, -100, 100);
  std::vector<int64_t> out(2 * n);
  using dsl::SkeletonKind;
  using dsl::Var;
  std::vector<dsl::StmtPtr> body;
  body.push_back(dsl::Let(
      "input", dsl::Skeleton(SkeletonKind::kRead, {Var("i"), Var("src")})));
  body.push_back(dsl::ExprStmt(dsl::Skeleton(
      SkeletonKind::kWrite, {Var("out"), Var("i"), Var("input")})));
  body.push_back(dsl::ExprStmt(
      dsl::Skeleton(SkeletonKind::kWrite,
                    {Var("out"), Var("i") + dsl::ConstI(n), Var("input")})));
  body.push_back(dsl::Assign(
      "i", Var("i") + dsl::Skeleton(SkeletonKind::kLen, {Var("input")})));
  body.push_back(dsl::If(Var("i") >= dsl::ConstI(n), {dsl::Break()}));
  dsl::Program program;
  program.data = {{"src", TypeId::kI64, false}, {"out", TypeId::kI64, true}};
  program.stmts = {dsl::MutDef("i"), dsl::Assign("i", dsl::ConstI(0)),
                   dsl::Loop(std::move(body))};
  program.AssignIds();
  ASSERT_TRUE(dsl::TypeCheck(&program).ok());

  ExecContext ctx(program);
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
  ctx.BindOutput("out", interp::DataBinding::Raw(TypeId::kI64, out.data(),
                                                 2 * n, true));
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  auto report = Session({.num_workers = 4}).Run(ctx, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().morsels, 1u);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], data[i]) << "row " << i;
    ASSERT_EQ(out[i + n], data[i]) << "row " << i + n;
  }
}

TEST(ExecContextTest, GpuOffloadKeptOnCpuRunsOnCpu) {
  // The placer keeps a light, transfer-dominated map on the CPU; the query
  // then runs the context's program on the CPU path.
  const int64_t n = 64 << 10;
  DataGen gen(19);
  auto data = gen.UniformI64(n, -1000, 1000);
  std::vector<int64_t> out(n);
  ExecContext ctx(TripleMap());
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kGpuOffload;
  auto report = Session({.num_workers = 1}).Run(ctx, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().device, "cpu");
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], data[i] * 3 + 1) << "row " << i;
  }
}

TEST(ExecContextTest, TaskHookSeesEveryMorsel) {
  const int64_t n = 200'000;
  DataGen gen(17);
  auto data = gen.UniformI64(n, 0, 100);
  std::vector<int64_t> out(n);
  ExecContext ctx(TripleMap());
  ctx.BindInput("src", interp::DataBinding::Raw(TypeId::kI64, data.data(), n));
  ctx.BindOutput("out",
                 interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  // Task hooks run concurrently, one per task's worker.
  std::atomic<int> task_calls{0};
  ctx.set_task_hook([&](const interp::Interpreter&, const Morsel&) {
    ++task_calls;
    return Status::OK();
  });
  QueryOptions opts;
  opts.strategy = ExecutionStrategy::kInterpret;
  auto report = Session({.num_workers = 4}).Run(ctx, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(static_cast<size_t>(task_calls), report.value().morsels);
}

}  // namespace
}  // namespace avm::engine
