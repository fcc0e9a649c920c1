// Differential tests: programs executed with JIT-compiled traces injected
// must produce byte-identical results to pure vectorized interpretation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "dsl/builder.h"
#include "util/rng.h"
#include "dsl/typecheck.h"
#include "interp/interpreter.h"
#include "jit/jit_backend.h"
#include "jit/trace_compiler.h"

namespace avm::jit {
namespace {

using interp::DataBinding;
using interp::Interpreter;

struct CompiledFixture {
  dsl::Program program;
  ir::DepGraph graph;
  std::vector<std::shared_ptr<const CompiledTrace>> compiled;
};

/// Partition `program` and compile every trace the JIT gate accepts the
/// way AdaptiveVm does (VerifyTrace, then CompileTrace), with no
/// persistent cache.
Result<CompiledFixture> Compile(dsl::Program program, bool fuse_filters,
                                const CodegenOptions& cg = {}) {
  CompiledFixture fx;
  fx.program = std::move(program);
  AVM_RETURN_NOT_OK(dsl::TypeCheck(&fx.program));
  AVM_ASSIGN_OR_RETURN(fx.graph, ir::DepGraph::Build(fx.program));
  // Without filter fusion every filter-holding region is rejected (the
  // paper's §III-B split).
  ir::TraceAcceptor accept;
  if (!fuse_filters) accept = [](const ir::Trace&) { return false; };
  auto traces = ir::GreedyPartition(fx.graph, {}, accept);
  for (const auto& t : traces) {
    const analysis::TraceVerification verified =
        analysis::VerifyTrace(fx.program, fx.graph, t);
    if (!verified.clean()) continue;
    auto compiled = CompileTrace(fx.program, fx.graph, t, verified, cg,
                                 /*disk=*/nullptr, /*situation_key=*/0);
    if (compiled.ok()) {
      fx.compiled.push_back(std::make_shared<const CompiledTrace>(
          std::move(compiled).value().trace));
    }
  }
  return fx;
}

TEST(JitExecTest, Figure2CompiledMatchesInterpreted) {
  if (!HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 8192;
  std::vector<int64_t> data(kN);
  for (int64_t i = 0; i < kN; ++i) data[i] = (i % 7) - 3;

  auto run = [&](bool inject, std::vector<int64_t>* v,
                 std::vector<int64_t>* w) -> uint64_t {
    auto fx = Compile(dsl::MakeFigure2Program(kN), /*fuse_filters=*/true);
    EXPECT_TRUE(fx.ok()) << fx.status().ToString();
    EXPECT_FALSE(fx.value().compiled.empty());
    Interpreter in(&fx.value().program);
    EXPECT_TRUE(in.BindData("some_data", DataBinding::Raw(TypeId::kI64,
                                                          data.data(), kN))
                    .ok());
    EXPECT_TRUE(in.BindData("v", DataBinding::Raw(TypeId::kI64, v->data(), kN,
                                                  true))
                    .ok());
    EXPECT_TRUE(in.BindData("w", DataBinding::Raw(TypeId::kI64, w->data(), kN,
                                                  true))
                    .ok());
    uint64_t runs = 0;
    if (inject) {
      for (const auto& ct : fx.value().compiled) {
        in.AddInjection(MakeInjection(ct, in.chunk_size()));
      }
    }
    EXPECT_TRUE(in.Run().ok());
    for (const auto& tr : in.injections()) runs += tr.invocations;
    return runs;
  };

  std::vector<int64_t> v1(kN, -1), w1(kN, -1), v2(kN, -1), w2(kN, -1);
  run(false, &v1, &w1);
  uint64_t injected_runs = run(true, &v2, &w2);
  EXPECT_GT(injected_runs, 0u);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(w1, w2);
}

TEST(JitExecTest, MapPipelineCompiled) {
  if (!HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 5000;
  auto program = dsl::MakeMapPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, (dsl::Var("x") * dsl::ConstI(3)) + dsl::ConstI(11)),
      kN);
  auto fx = Compile(std::move(program), false);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  ASSERT_FALSE(fx.value().compiled.empty());

  std::vector<int64_t> data(kN), out(kN, 0);
  for (int64_t i = 0; i < kN; ++i) data[i] = i - 1234;
  Interpreter in(&fx.value().program);
  ASSERT_TRUE(
      in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(), kN)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(), kN, true))
          .ok());
  for (const auto& ct : fx.value().compiled) {
    in.AddInjection(MakeInjection(ct, in.chunk_size()));
  }
  ASSERT_TRUE(in.Run().ok());
  for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], data[i] * 3 + 11);
}

TEST(JitExecTest, HypotPipelineCompiledFloats) {
  if (!HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 3000;
  auto fx = Compile(dsl::MakeHypotPipeline(kN), false);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  ASSERT_FALSE(fx.value().compiled.empty());
  std::vector<double> a(kN), b(kN), out(kN);
  for (int i = 0; i < kN; ++i) {
    a[i] = i * 0.5;
    b[i] = (kN - i) * 0.25;
  }
  Interpreter in(&fx.value().program);
  ASSERT_TRUE(
      in.BindData("a", DataBinding::Raw(TypeId::kF64, a.data(), kN)).ok());
  ASSERT_TRUE(
      in.BindData("b", DataBinding::Raw(TypeId::kF64, b.data(), kN)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kF64, out.data(), kN, true))
          .ok());
  for (const auto& ct : fx.value().compiled) {
    in.AddInjection(MakeInjection(ct, in.chunk_size()));
  }
  ASSERT_TRUE(in.Run().ok());
  for (int i = 0; i < kN; ++i) {
    ASSERT_NEAR(out[i], std::sqrt(a[i] * a[i] + b[i] * b[i]), 1e-9);
  }
}

TEST(JitExecTest, FoldTraceSetsScalarBinding) {
  if (!HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 4096;
  auto fx = Compile(dsl::MakeSumPipeline(TypeId::kI64, kN), false);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  std::vector<int64_t> data(kN);
  int64_t expect = 0;
  for (int64_t i = 0; i < kN; ++i) {
    data[i] = i * 7 - 5;
    expect += data[i];
  }
  int64_t out[1] = {0};
  Interpreter in(&fx.value().program);
  ASSERT_TRUE(
      in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(), kN)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out, 1, true)).ok());
  uint64_t injected = 0;
  for (const auto& ct : fx.value().compiled) {
    in.AddInjection(MakeInjection(ct, in.chunk_size()));
    ++injected;
  }
  ASSERT_TRUE(in.Run().ok());
  EXPECT_EQ(out[0], expect);
  if (injected > 0) {
    uint64_t runs = 0;
    for (const auto& tr : in.injections()) runs += tr.invocations;
    EXPECT_GT(runs, 0u);
  }
}

TEST(JitExecTest, ForSpecializedTraceOnCompressedColumn) {
  if (!HostCompilerAvailable()) GTEST_SKIP();
  const uint32_t kN = 65536;  // exactly one FOR block at default block size
  Column col(TypeId::kI64, kDefaultBlockSize);
  std::vector<int64_t> data(kN);
  Rng rng(55);
  for (auto& x : data) x = 1000 + static_cast<int64_t>(rng.NextBounded(512));
  ASSERT_TRUE(col.AppendValues(data.data(), kN).ok());
  ASSERT_EQ(col.block(0).scheme, Scheme::kFor);

  CodegenOptions cg;
  cg.scheme_specialization["src"] = Scheme::kFor;
  auto fx = Compile(
      dsl::MakeMapPipeline(TypeId::kI64,
                           dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(2)),
                           kN),
      false, cg);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  ASSERT_FALSE(fx.value().compiled.empty());

  std::vector<int64_t> out(kN, 0);
  Interpreter in(&fx.value().program);
  ASSERT_TRUE(in.BindData("src", DataBinding::FromColumn(&col)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(), kN, true))
          .ok());
  for (const auto& ct : fx.value().compiled) {
    in.AddInjection(MakeInjection(ct, in.chunk_size()));
  }
  ASSERT_TRUE(in.Run().ok());
  for (uint32_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], data[i] * 2);
  uint64_t runs = 0;
  for (const auto& tr : in.injections()) runs += tr.invocations;
  EXPECT_GT(runs, 0u);
}

TEST(JitExecTest, SchemeMismatchFallsBackToInterpretation) {
  if (!HostCompilerAvailable()) GTEST_SKIP();
  // Column with a PLAIN block: the FOR-specialized trace must not run.
  const uint32_t kN = 4096;
  Column col(TypeId::kI64, kN);
  std::vector<int64_t> data(kN);
  Rng rng(66);
  for (auto& x : data) {
    x = static_cast<int64_t>(rng.Next());  // wide values: Plain
  }
  ASSERT_TRUE(
      col.AppendBlockWithScheme(Scheme::kPlain, data.data(), kN).ok());

  CodegenOptions cg;
  cg.scheme_specialization["src"] = Scheme::kFor;
  auto fx = Compile(
      dsl::MakeMapPipeline(TypeId::kI64,
                           dsl::Lambda({"x"}, dsl::Var("x") + dsl::ConstI(1)),
                           kN),
      false, cg);
  ASSERT_TRUE(fx.ok());
  std::vector<int64_t> out(kN, 0);
  Interpreter in(&fx.value().program);
  ASSERT_TRUE(in.BindData("src", DataBinding::FromColumn(&col)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(), kN, true))
          .ok());
  for (const auto& ct : fx.value().compiled) {
    in.AddInjection(MakeInjection(ct, in.chunk_size()));
  }
  ASSERT_TRUE(in.Run().ok());
  // Results still correct (interpreted), compiled trace never invoked.
  for (uint32_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], data[i] + 1);
  for (const auto& tr : in.injections()) {
    EXPECT_EQ(tr.invocations, 0u);
    EXPECT_GT(tr.fallbacks, 0u);
  }
}

TEST(JitExecTest, FilterPipelineCompiledWithCondense) {
  if (!HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 6000;
  auto fx = Compile(
      dsl::MakeFilterPipeline(
          TypeId::kI64,
          dsl::Lambda({"x"}, dsl::Call(dsl::ScalarOp::kGt,
                                       {dsl::Var("x"), dsl::ConstI(50)})),
          kN),
      /*fuse_filters=*/true);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  ASSERT_FALSE(fx.value().compiled.empty());
  std::vector<int64_t> data(kN), out(kN, -7);
  for (int64_t i = 0; i < kN; ++i) data[i] = i % 100;
  Interpreter in(&fx.value().program);
  ASSERT_TRUE(
      in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(), kN)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(), kN, true))
          .ok());
  for (const auto& ct : fx.value().compiled) {
    in.AddInjection(MakeInjection(ct, in.chunk_size()));
  }
  ASSERT_TRUE(in.Run().ok());
  // Expected: all values > 50, in order.
  std::vector<int64_t> expect;
  for (int64_t i = 0; i < kN; ++i) {
    if (data[i] > 50) expect.push_back(data[i]);
  }
  auto k = in.GetScalar("k");
  ASSERT_TRUE(k.ok());
  ASSERT_EQ(k.value().AsI64(), static_cast<int64_t>(expect.size()));
  for (size_t i = 0; i < expect.size(); ++i) ASSERT_EQ(out[i], expect[i]);
  uint64_t runs = 0;
  for (const auto& tr : in.injections()) runs += tr.invocations;
  EXPECT_GT(runs, 0u);
}

// ---------------------------------------------------------------------------
// Trace-ABI shapes: gather/scatter, let-bound write counts, selection-in
// (docs/TRACE_ABI.md). These compile the exact fragments the JIT used to
// decline and hold them byte-equal to interpretation.
// ---------------------------------------------------------------------------

namespace abi {

using namespace dsl;

/// gather(base, clamp(idx)) -> write: the join-probe shape.
Program MakeGatherPipeline(int64_t limit, int64_t base_len,
                           bool clamp_indices) {
  Program p;
  p.data = {{"idx", TypeId::kI64, false},
            {"base", TypeId::kI64, false},
            {"out", TypeId::kI64, true}};
  ExprPtr index = Var("k");
  if (clamp_indices) {
    ExprPtr inb = Cast(TypeId::kI64, Var("k") >= ConstI(0)) *
                  Cast(TypeId::kI64, Var("k") < ConstI(base_len));
    index = std::move(inb) * Var("k");
  }
  std::vector<StmtPtr> body;
  body.push_back(Let("iv", Skeleton(SkeletonKind::kRead,
                                    {Var("i"), Var("idx")})));
  body.push_back(Let("ci", Skeleton(SkeletonKind::kMap,
                                    {Lambda({"k"}, std::move(index)),
                                     Var("iv")})));
  body.push_back(Let("g", Skeleton(SkeletonKind::kGather,
                                   {Var("base"), Var("ci")})));
  body.push_back(ExprStmt(Skeleton(SkeletonKind::kWrite,
                                   {Var("out"), Var("i"), Var("g")})));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("iv")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(limit)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  return p;
}

/// scatter(acc, idx % groups, vals, +): the grouped-aggregation shape.
Program MakeScatterPipeline(int64_t limit, int64_t groups) {
  Program p;
  p.data = {{"src", TypeId::kI64, false}, {"acc", TypeId::kI64, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("v", Skeleton(SkeletonKind::kRead,
                                   {Var("i"), Var("src")})));
  ExprPtr grp = Call(ScalarOp::kMod,
                     {Call(ScalarOp::kAbs, {Var("x")}), ConstI(groups)});
  body.push_back(Let("g", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, std::move(grp)),
                                    Var("v")})));
  body.push_back(ExprStmt(Skeleton(
      SkeletonKind::kScatter,
      {Var("acc"), Var("g"), Var("v"),
       Lambda({"o", "n"}, Var("o") + Var("n"))})));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("v")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(limit)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  return p;
}

/// filter -> map -> condensing write at a let-bound cursor: the ORDER
/// BY/condense hot loop (stale-cursor shape).
Program MakeCondensingCursorPipeline(int64_t limit) {
  Program p;
  p.data = {{"src", TypeId::kI64, false}, {"out", TypeId::kI64, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("v", Skeleton(SkeletonKind::kRead,
                                   {Var("i"), Var("src")})));
  body.push_back(Let(
      "t", Skeleton(SkeletonKind::kFilter,
                    {Lambda({"x"}, Call(ScalarOp::kGt,
                                        {Var("x"), ConstI(0)})),
                     Var("v")})));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(5)),
                                    Var("t")})));
  body.push_back(Let("w", Skeleton(SkeletonKind::kWrite,
                                   {Var("out"), Var("onum"), Var("y")})));
  body.push_back(Assign("onum", Var("onum") + Var("w")));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("v")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(limit)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), MutDef("onum"),
             Assign("onum", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  return p;
}

}  // namespace abi

TEST(JitExecTest, GatherTraceCompiledMatchesInterpreted) {
  if (!HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 8192, kBase = 512;
  auto fx = Compile(abi::MakeGatherPipeline(kN, kBase, true), false);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  ASSERT_FALSE(fx.value().compiled.empty());

  std::vector<int64_t> idx(kN), base(kBase);
  Rng rng(77);
  for (int64_t i = 0; i < kN; ++i) {
    idx[i] = rng.NextInRange(-50, kBase + 49);  // some out of domain
  }
  for (int64_t i = 0; i < kBase; ++i) base[i] = i * 3 + 1;

  auto run = [&](bool inject, std::vector<int64_t>* out) -> uint64_t {
    Interpreter in(&fx.value().program);
    EXPECT_TRUE(in.BindData("idx", DataBinding::Raw(TypeId::kI64, idx.data(),
                                                    kN)).ok());
    EXPECT_TRUE(in.BindData("base", DataBinding::Raw(TypeId::kI64,
                                                     base.data(), kBase))
                    .ok());
    EXPECT_TRUE(in.BindData("out", DataBinding::Raw(TypeId::kI64, out->data(),
                                                    kN, true))
                    .ok());
    if (inject) {
      for (const auto& ct : fx.value().compiled) {
        in.AddInjection(MakeInjection(ct, in.chunk_size()));
      }
    }
    EXPECT_TRUE(in.Run().ok());
    uint64_t runs = 0;
    for (const auto& tr : in.injections()) runs += tr.invocations;
    return runs;
  };
  std::vector<int64_t> o1(kN, -1), o2(kN, -1);
  run(false, &o1);
  EXPECT_GT(run(true, &o2), 0u);
  EXPECT_EQ(o1, o2);
}

TEST(JitExecTest, GatherFaultRaisesInterpreterIdenticalError) {
  if (!HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 4096, kBase = 128;
  // UNclamped indices: both paths must fail with the SAME OutOfRange.
  auto fx = Compile(abi::MakeGatherPipeline(kN, kBase, false), false);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  ASSERT_FALSE(fx.value().compiled.empty());

  std::vector<int64_t> idx(kN, 5);
  idx[700] = kBase + 9;  // first stray index
  std::vector<int64_t> base(kBase, 0), out(kN, 0);

  auto run = [&](bool inject) -> Status {
    Interpreter in(&fx.value().program);
    EXPECT_TRUE(in.BindData("idx", DataBinding::Raw(TypeId::kI64, idx.data(),
                                                    kN)).ok());
    EXPECT_TRUE(in.BindData("base", DataBinding::Raw(TypeId::kI64,
                                                     base.data(), kBase))
                    .ok());
    EXPECT_TRUE(in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(),
                                                    kN, true))
                    .ok());
    if (inject) {
      for (const auto& ct : fx.value().compiled) {
        in.AddInjection(MakeInjection(ct, in.chunk_size()));
      }
    }
    return in.Run();
  };
  Status interp = run(false);
  Status jit = run(true);
  ASSERT_FALSE(interp.ok());
  ASSERT_FALSE(jit.ok());
  EXPECT_EQ(jit.ToString(), interp.ToString());
}

TEST(JitExecTest, ScatterTraceCompiledMatchesInterpreted) {
  if (!HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 8192, kGroups = 16;
  auto fx = Compile(abi::MakeScatterPipeline(kN, kGroups), false);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  ASSERT_FALSE(fx.value().compiled.empty());

  std::vector<int64_t> data(kN);
  Rng rng(88);
  for (auto& x : data) x = rng.NextInRange(-999, 999);

  auto run = [&](bool inject, std::vector<int64_t>* acc) -> uint64_t {
    Interpreter in(&fx.value().program);
    EXPECT_TRUE(in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(),
                                                    kN)).ok());
    EXPECT_TRUE(in.BindData("acc", DataBinding::Raw(TypeId::kI64, acc->data(),
                                                    kGroups, true))
                    .ok());
    if (inject) {
      for (const auto& ct : fx.value().compiled) {
        in.AddInjection(MakeInjection(ct, in.chunk_size()));
      }
    }
    EXPECT_TRUE(in.Run().ok());
    uint64_t runs = 0;
    for (const auto& tr : in.injections()) runs += tr.invocations;
    return runs;
  };
  std::vector<int64_t> a1(kGroups, 0), a2(kGroups, 0);
  run(false, &a1);
  EXPECT_GT(run(true, &a2), 0u);
  EXPECT_EQ(a1, a2);
}

TEST(JitExecTest, LetBoundWriteCountPublishesCursorAdvance) {
  if (!HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 8192;
  auto fx = Compile(abi::MakeCondensingCursorPipeline(kN),
                    /*fuse_filters=*/true);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  ASSERT_FALSE(fx.value().compiled.empty());

  std::vector<int64_t> data(kN);
  Rng rng(101);
  for (auto& x : data) x = rng.NextInRange(-300, 700);

  auto run = [&](bool inject, std::vector<int64_t>* out) -> uint64_t {
    Interpreter in(&fx.value().program);
    EXPECT_TRUE(in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(),
                                                    kN)).ok());
    EXPECT_TRUE(in.BindData("out", DataBinding::Raw(TypeId::kI64, out->data(),
                                                    kN, true))
                    .ok());
    if (inject) {
      for (const auto& ct : fx.value().compiled) {
        in.AddInjection(MakeInjection(ct, in.chunk_size()));
      }
    }
    EXPECT_TRUE(in.Run().ok());
    uint64_t runs = 0;
    for (const auto& tr : in.injections()) runs += tr.invocations;
    return runs;
  };
  std::vector<int64_t> o1(kN, -1), o2(kN, -1);
  run(false, &o1);
  // A stale cursor would shear the condensed output: every chunk after the
  // first would overwrite the previous chunk's rows.
  EXPECT_GT(run(true, &o2), 0u);
  EXPECT_EQ(o1, o2);
}


TEST(JitExecTest, FilterDependentScatterTraceCompiles) {
  // A scatter consuming the filtered value: the generated code must
  // declare/advance the guard-survivor counter `cnt` even though no
  // condensed buffer output exists (out_counts/scalars report it).
  if (!HostCompilerAvailable()) GTEST_SKIP();
  using namespace dsl;
  const int64_t kN = 8192, kGroups = 8;
  Program p;
  p.data = {{"src", TypeId::kI64, false}, {"acc", TypeId::kI64, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("v", Skeleton(SkeletonKind::kRead,
                                   {Var("i"), Var("src")})));
  body.push_back(Let(
      "t", Skeleton(SkeletonKind::kFilter,
                    {Lambda({"x"}, Call(ScalarOp::kGt,
                                        {Var("x"), ConstI(0)})),
                     Var("v")})));
  body.push_back(Let("g", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Call(ScalarOp::kMod,
                                                       {Var("x"),
                                                        ConstI(kGroups)})),
                                    Var("t")})));
  body.push_back(ExprStmt(Skeleton(
      SkeletonKind::kScatter,
      {Var("acc"), Var("g"), Var("t"),
       Lambda({"o", "n"}, Var("o") + Var("n"))})));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("v")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(kN)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();

  auto fx = Compile(std::move(p), /*fuse_filters=*/true);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  ASSERT_FALSE(fx.value().compiled.empty());

  std::vector<int64_t> data(kN);
  Rng rng(202);
  for (auto& x : data) x = rng.NextInRange(-500, 500);

  auto run = [&](bool inject, std::vector<int64_t>* acc) -> uint64_t {
    Interpreter in(&fx.value().program);
    EXPECT_TRUE(in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(),
                                                    kN)).ok());
    EXPECT_TRUE(in.BindData("acc", DataBinding::Raw(TypeId::kI64, acc->data(),
                                                    kGroups, true))
                    .ok());
    if (inject) {
      for (const auto& ct : fx.value().compiled) {
        in.AddInjection(MakeInjection(ct, in.chunk_size()));
      }
    }
    EXPECT_TRUE(in.Run().ok());
    uint64_t runs = 0;
    for (const auto& tr : in.injections()) runs += tr.invocations;
    return runs;
  };
  std::vector<int64_t> a1(kGroups, 0), a2(kGroups, 0);
  run(false, &a1);
  EXPECT_GT(run(true, &a2), 0u);
  EXPECT_EQ(a1, a2);
}

TEST(JitExecTest, SelWriteBypassingInTraceFilterDeclined) {
  // Selection-specialized trace containing a filter AND a write of a
  // selection-carrying value that does not flow through that filter:
  // condensed stores would share the guard and drop filter-rejected rows,
  // so the shape must DECLINE (stay interpreted), not compile.
  using namespace dsl;
  Program p;
  p.data = {{"src", TypeId::kI64, false}, {"dst", TypeId::kI64, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("v", Skeleton(SkeletonKind::kRead,
                                   {Var("i"), Var("src")})));
  body.push_back(Let(
      "a", Skeleton(SkeletonKind::kFilter,
                    {Lambda({"x"}, Call(ScalarOp::kGt,
                                        {Var("x"), ConstI(0)})),
                     Var("v")})));
  body.push_back(Let("b", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(2)),
                                    Var("a")})));
  // In-trace filter over the sel-carrying b, plus a write of b itself.
  body.push_back(Let(
      "c", Skeleton(SkeletonKind::kFilter,
                    {Lambda({"x"}, Call(ScalarOp::kLt,
                                        {Var("x"), ConstI(100)})),
                     Var("b")})));
  body.push_back(Let("d", Skeleton(SkeletonKind::kCondense, {Var("c")})));
  body.push_back(Let("w", Skeleton(SkeletonKind::kWrite,
                                   {Var("dst"), Var("onum"), Var("b")})));
  body.push_back(Assign("onum", Var("onum") + Var("w")));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("v")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(4096)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), MutDef("onum"),
             Assign("onum", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  auto g = ir::DepGraph::Build(p);
  ASSERT_TRUE(g.ok());
  int filter_c = -1, write_w = -1, condense_d = -1;
  for (const auto& n : g.value().nodes()) {
    if (n.kind == dsl::SkeletonKind::kFilter) filter_c = std::max(filter_c, static_cast<int>(n.id));
    if (n.kind == dsl::SkeletonKind::kWrite) write_w = static_cast<int>(n.id);
    if (n.kind == dsl::SkeletonKind::kCondense) condense_d = static_cast<int>(n.id);
  }
  ASSERT_GE(filter_c, 0);
  ASSERT_GE(write_w, 0);
  ASSERT_GE(condense_d, 0);
  ir::Trace tr;
  tr.node_ids = {static_cast<uint32_t>(filter_c),
                 static_cast<uint32_t>(condense_d),
                 static_cast<uint32_t>(write_w)};
  std::sort(tr.node_ids.begin(), tr.node_ids.end());
  tr.inputs = {"b"};
  tr.outputs = {"d", "dst"};
  analysis::TraceContext ctx;
  ctx.sel_inputs.insert("b");
  const Status decline =
      analysis::VerifyTrace(p, g.value(), tr, ctx).AsStatus();
  EXPECT_TRUE(decline.IsNotImplemented()) << decline.ToString();
  EXPECT_NE(decline.message().find("[condense-bypass]"), std::string::npos)
      << decline.ToString();
}

TEST(JitExecTest, OverlappingTraceReplacesEarlierOne) {
  // Two traces of different partitions that share a statement, installed
  // mid-run as a recheck would: `first` covers {x = read(a), y = map(x)}
  // around the independent `u = read(b)`, `second` covers {u, y, z, write}
  // and is anchored in `first`'s span. `first` publishes y (the interpreted
  // z names it) but not x, which only its own y reads, so while both are
  // installed `second` would read the x of the last interpreted chunk.
  // Installing `second` removes `first`; rows match interpretation.
  if (!HostCompilerAvailable()) GTEST_SKIP();
  using namespace dsl;
  const int64_t kN = 8 * 1024;
  Program p;
  p.data = {{"a", TypeId::kI64, false},
            {"b", TypeId::kI64, false},
            {"dst", TypeId::kI64, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("x", Skeleton(SkeletonKind::kRead,
                                   {Var("i"), Var("a")})));
  body.push_back(Let("u", Skeleton(SkeletonKind::kRead,
                                   {Var("i"), Var("b")})));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"v"}, Var("v") * ConstI(3)),
                                    Var("x")})));
  body.push_back(Let(
      "z", Skeleton(SkeletonKind::kMap,
                    {Lambda({"s", "t"}, Var("s") + Var("t")), Var("y"),
                     Var("u")})));
  body.push_back(ExprStmt(Skeleton(SkeletonKind::kWrite,
                                   {Var("dst"), Var("i"), Var("z")})));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("u")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(kN)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  auto g = ir::DepGraph::Build(p);
  ASSERT_TRUE(g.ok());
  auto node = [&](SkeletonKind kind, const std::string& out) -> uint32_t {
    for (const auto& n : g.value().nodes()) {
      if (n.kind != kind) continue;
      if (out.empty() || g.value().OutputNameOf(n.id) == out) return n.id;
    }
    ADD_FAILURE() << "no node " << out;
    return 0;
  };
  ir::Trace first;
  first.node_ids = {node(SkeletonKind::kRead, "x"),
                    node(SkeletonKind::kMap, "y")};
  first.inputs = {"a"};
  first.outputs = {"y"};
  ir::Trace second;
  second.node_ids = {node(SkeletonKind::kRead, "u"),
                     node(SkeletonKind::kMap, "y"),
                     node(SkeletonKind::kMap, "z"),
                     node(SkeletonKind::kWrite, "")};
  std::sort(second.node_ids.begin(), second.node_ids.end());
  second.inputs = {"b", "x"};
  second.outputs = {"dst"};
  std::vector<std::shared_ptr<const CompiledTrace>> entries;
  for (const ir::Trace* t : {&first, &second}) {
    const analysis::TraceVerification verified =
        analysis::VerifyTrace(p, g.value(), *t);
    ASSERT_TRUE(verified.clean()) << verified.ToString();
    auto compiled = CompileTrace(p, g.value(), *t, verified, {},
                                 /*disk=*/nullptr, /*situation_key=*/0);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    entries.push_back(std::make_shared<const CompiledTrace>(
        std::move(compiled).value().trace));
  }

  std::vector<int64_t> a(kN), b(kN);
  for (int64_t i = 0; i < kN; ++i) {
    a[i] = i;
    b[i] = 1000 * i;
  }
  auto run = [&](bool inject, std::vector<int64_t>* dst,
                 std::vector<size_t>* removed) -> uint64_t {
    Interpreter in(&p);
    EXPECT_TRUE(
        in.BindData("a", DataBinding::Raw(TypeId::kI64, a.data(), kN)).ok());
    EXPECT_TRUE(
        in.BindData("b", DataBinding::Raw(TypeId::kI64, b.data(), kN)).ok());
    EXPECT_TRUE(in.BindData("dst", DataBinding::Raw(TypeId::kI64, dst->data(),
                                                    kN, true))
                    .ok());
    // Two interpreted chunks first, so x holds a value before the traces
    // arrive (a VM's warm-up does the same).
    in.iteration_hook = [&](Interpreter& it, uint64_t iteration) {
      if (inject && iteration == 2) {
        for (const auto& e : entries) {
          removed->push_back(
              it.AddInjection(MakeInjection(e, it.chunk_size())).size());
        }
      }
      return Status::OK();
    };
    EXPECT_TRUE(in.Run().ok());
    uint64_t runs = 0;
    for (const auto& tr : in.injections()) runs += tr.invocations;
    if (inject) EXPECT_EQ(in.injections().size(), 1u);
    return runs;
  };
  std::vector<int64_t> want(kN, -1), got(kN, -1);
  std::vector<size_t> removed;
  run(false, &want, &removed);
  const uint64_t runs = run(true, &got, &removed);
  EXPECT_EQ(removed, (std::vector<size_t>{0, 1}));
  EXPECT_GT(runs, 0u);
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(got[i], want[i]) << "row " << i;
  }
}

/// out[i] = f(a[i], b[i]) over one column type: a map over two reads.
dsl::Program MakeBinaryMap(TypeId type, dsl::ExprPtr lambda, int64_t n) {
  using dsl::Var;
  dsl::Program p;
  p.data = {{"a", type, false}, {"b", type, false}, {"out", type, true}};
  std::vector<dsl::StmtPtr> body;
  body.push_back(dsl::Let(
      "va", dsl::Skeleton(dsl::SkeletonKind::kRead, {Var("i"), Var("a")})));
  body.push_back(dsl::Let(
      "vb", dsl::Skeleton(dsl::SkeletonKind::kRead, {Var("i"), Var("b")})));
  body.push_back(dsl::Let(
      "r", dsl::Skeleton(dsl::SkeletonKind::kMap,
                         {std::move(lambda), Var("va"), Var("vb")})));
  body.push_back(dsl::ExprStmt(dsl::Skeleton(
      dsl::SkeletonKind::kWrite, {Var("out"), Var("i"), Var("r")})));
  body.push_back(dsl::Assign(
      "i", Var("i") + dsl::Skeleton(dsl::SkeletonKind::kLen, {Var("r")})));
  body.push_back(dsl::If(dsl::Call(dsl::ScalarOp::kGe, {Var("i"), dsl::ConstI(n)}),
                         {dsl::Break()}));
  p.stmts = {dsl::MutDef("i"), dsl::Assign("i", dsl::ConstI(0)),
             dsl::Loop(std::move(body))};
  p.AssignIds();
  return p;
}

/// The values where the scalar helpers' edge cases live: each integer
/// type's limits, 0 and -1 (division), and for floats signed zeros, NaN,
/// infinities, the extremes, a denormal and negative operands.
template <class T>
std::vector<T> EdgeValues() {
  using L = std::numeric_limits<T>;
  if constexpr (std::is_integral_v<T>) {
    return {L::min(), T(L::min() + 1), T(-7), T(-1), T(0),
            T(1),     T(3),            T(L::max() - 1), L::max()};
  } else {
    // One NaN bit pattern only: which of two NaN operands an IEEE
    // operation returns is unspecified, so operand order could differ.
    return {T(-0.0), T(0.0),         T(-1.5),     T(2.0),
            T(-5.5), L::quiet_NaN(), L::infinity(), -L::infinity(),
            L::lowest(), L::max(),   L::denorm_min()};
  }
}

/// Runs `program` (reads `a`, and `b` when given, writes `out`) interpreted,
/// then with its compiled traces injected from the first chunk, and
/// expects identical output bytes.
template <class T>
void ExpectCompiledBitIdentical(dsl::Program program, TypeId type,
                                const std::vector<T>& a,
                                const std::vector<T>* b,
                                const std::string& what) {
  SCOPED_TRACE(what);
  auto fx = Compile(std::move(program), /*fuse_filters=*/false);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  ASSERT_FALSE(fx.value().compiled.empty());
  const int64_t n = static_cast<int64_t>(a.size());
  auto run = [&](bool inject, std::vector<T>* out) {
    Interpreter in(&fx.value().program);
    auto* a_data = const_cast<T*>(a.data());
    ASSERT_TRUE(
        in.BindData(b != nullptr ? "a" : "src",
                    DataBinding::Raw(type, a_data, n))
            .ok());
    if (b != nullptr) {
      ASSERT_TRUE(
          in.BindData("b", DataBinding::Raw(type, const_cast<T*>(b->data()),
                                            n))
              .ok());
    }
    ASSERT_TRUE(
        in.BindData("out", DataBinding::Raw(type, out->data(), n, true)).ok());
    if (inject) {
      for (const auto& ct : fx.value().compiled) {
        in.AddInjection(MakeInjection(ct, in.chunk_size()));
      }
    }
    ASSERT_TRUE(in.Run().ok());
    uint64_t runs = 0;
    for (const auto& tr : in.injections()) {
      runs += tr.invocations;
      EXPECT_EQ(tr.fallbacks, 0u);
    }
    EXPECT_EQ(runs > 0, inject);
  };
  std::vector<T> interpreted(a.size()), compiled(a.size());
  run(false, &interpreted);
  run(true, &compiled);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&interpreted[i], &compiled[i], sizeof(T)), 0)
        << "row " << i << ": a=" << +a[i]
        << (b != nullptr ? " b=" + std::to_string(+(*b)[i]) : "")
        << " interpreted=" << +interpreted[i] << " compiled=" << +compiled[i];
  }
}

template <class T>
void CheckScalarHelpers(TypeId type) {
  using dsl::Var;
  // Every ordered pair of edge values, repeated past one chunk so the
  // trace also runs a partial last chunk.
  const std::vector<T> edges = EdgeValues<T>();
  std::vector<T> a, b;
  while (a.size() < 2500) {
    for (T x : edges) {
      for (T y : edges) {
        a.push_back(x);
        b.push_back(y);
      }
    }
  }
  const int64_t n = static_cast<int64_t>(a.size());
  const std::string tname = TypeName(type);
  for (dsl::ScalarOp op :
       {dsl::ScalarOp::kAdd, dsl::ScalarOp::kSub, dsl::ScalarOp::kMul, dsl::ScalarOp::kDiv,
        dsl::ScalarOp::kMod}) {
    dsl::Program p = MakeBinaryMap(
        type, dsl::Lambda({"x", "y"}, dsl::Call(op, {Var("x"), Var("y")})),
        n);
    if (op == dsl::ScalarOp::kMod && !std::is_integral_v<T>) {
      // Float mod never reaches the generated code: the DSL rejects it.
      Status st = dsl::TypeCheck(&p);
      EXPECT_TRUE(st.IsTypeError()) << st.ToString();
      continue;
    }
    ExpectCompiledBitIdentical<T>(std::move(p), type, a, &b,
                                  tname + " " + dsl::ScalarOpName(op));
  }
  std::vector<dsl::ScalarOp> unary = {dsl::ScalarOp::kNeg, dsl::ScalarOp::kAbs};
  if (!std::is_integral_v<T>) unary.push_back(dsl::ScalarOp::kSqrt);
  for (dsl::ScalarOp op : unary) {
    dsl::Program p = dsl::MakeMapPipeline(
        type, dsl::Lambda({"x"}, dsl::Call(op, {Var("x")})), n);
    ExpectCompiledBitIdentical<T>(std::move(p), type, a, nullptr,
                                  tname + " " + dsl::ScalarOpName(op));
  }
}

TEST(JitExecTest, ScalarHelpersMatchInterpreterBitForBit) {
  // The generated preamble's helpers (wrapping add/sub/mul, div and mod by
  // 0 and by -1 of the minimum, neg and abs of the minimum, sqrt of
  // negatives, -0.0 and NaN) against the interpreter's kernels, per type.
  // int64_t is long on LP64: a helper keyed on long long would send it
  // down the float path and divide by zero here.
  if (!HostCompilerAvailable()) GTEST_SKIP();
  CheckScalarHelpers<int8_t>(TypeId::kI8);
  CheckScalarHelpers<int16_t>(TypeId::kI16);
  CheckScalarHelpers<int32_t>(TypeId::kI32);
  CheckScalarHelpers<int64_t>(TypeId::kI64);
  CheckScalarHelpers<float>(TypeId::kF32);
  CheckScalarHelpers<double>(TypeId::kF64);
}

}  // namespace
}  // namespace avm::jit
