// Decline-regression tests for the selection-aware trace ABI
// (docs/TRACE_ABI.md): the three shape families the JIT used to DECLINE —
// gather/scatter traces, let-bound write counts (condensing-output
// cursors), and iterations whose chunk-var inputs already carry a
// selection — must now compile. Each test pins `ExecReport::jit_declined`
// empty for its shape, checks results against pure interpretation, and
// (when a host compiler exists) requires traces to actually compile AND
// run injected, so a silently-reintroduced decline cannot hide behind the
// interpreter fallback producing correct results. The last test pins the
// other side: a shape the JIT gate rejects is reported end to end by its
// verifier rule id and runs interpreted with unchanged results.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dsl/typecheck.h"
#include "engine/query_builder.h"
#include "engine/session.h"
#include "jit/source_jit.h"
#include "util/rng.h"

namespace avm::engine {
namespace {

using dsl::ConstI;
using dsl::Var;

constexpr uint64_t kRows = 20'000;  // ~20 chunks: plenty of post-warmup runs

/// Probe table f_key/f_a/f_b, keys in [0, 600); build table d_key/d_val
/// covering [0, 500).
struct Tables {
  std::unique_ptr<Table> probe;
  std::unique_ptr<Table> build;

  Tables() {
    Schema ps({{"f_key", TypeId::kI64},
               {"f_a", TypeId::kI64},
               {"f_b", TypeId::kI64}});
    probe = std::make_unique<Table>(ps);
    Rng rng(99);
    std::vector<int64_t> k(kRows), a(kRows), b(kRows);
    for (uint64_t i = 0; i < kRows; ++i) {
      k[i] = rng.NextInRange(0, 599);
      a[i] = rng.NextInRange(0, 999);
      b[i] = rng.NextInRange(0, 999);
    }
    EXPECT_TRUE(probe->column(0).AppendValues(k.data(), kRows).ok());
    EXPECT_TRUE(probe->column(1).AppendValues(a.data(), kRows).ok());
    EXPECT_TRUE(probe->column(2).AppendValues(b.data(), kRows).ok());

    Schema bs({{"d_key", TypeId::kI64}, {"d_val", TypeId::kI64}});
    build = std::make_unique<Table>(bs);
    std::vector<int64_t> dk(500), dv(500);
    for (size_t i = 0; i < 500; ++i) {
      dk[i] = static_cast<int64_t>(i);
      dv[i] = rng.NextInRange(1, 400);
    }
    EXPECT_TRUE(build->column(0).AppendValues(dk.data(), 500).ok());
    EXPECT_TRUE(build->column(1).AppendValues(dv.data(), 500).ok());
  }
};

EngineOptions JitSerial() {
  EngineOptions eo;
  eo.strategy = ExecutionStrategy::kAdaptiveJit;
  eo.num_workers = 1;
  eo.vm.optimize_after_iterations = 2;
  return eo;
}

EngineOptions InterpSerial() {
  EngineOptions eo;
  eo.strategy = ExecutionStrategy::kInterpret;
  eo.num_workers = 1;
  return eo;
}

/// Runs `make()`'s query under kAdaptiveJit and asserts the lifted-shape
/// contract: no decline, and (with a host compiler) real compiled-trace
/// executions. Returns the query for result comparison.
template <typename MakeFn>
Query RunJitNoDecline(MakeFn make, const char* shape) {
  Query q = make();
  auto r = ExecEngine::Execute(q.context(), JitSerial());
  EXPECT_TRUE(r.ok()) << shape << ": " << r.status().ToString();
  if (r.ok()) {
    EXPECT_TRUE(r.value().jit_declined.empty())
        << shape << " declined: " << r.value().jit_declined;
    if (jit::SourceJit::Available()) {
      EXPECT_GT(r.value().traces_compiled + r.value().traces_reused +
                    r.value().disk_cache_hits,
                0u)
          << shape << ": nothing compiled";
      EXPECT_GT(r.value().injection_runs, 0u)
          << shape << ": compiled traces never ran";
    }
  }
  return q;
}

// Shape 1: gather/scatter traces. The join probe is a bounds-checked
// shared-array gather, the Sum over the payload re-gathers it, and the
// grouped aggregation scatters into accumulators — all three compile with
// the ABI's in_lens/out_lens bounds checks.
TEST(JitDeclineRegressionTest, GatherScatterTraceCompiles) {
  Tables t;
  auto make = [&] {
    QueryBuilder qb(*t.probe);
    qb.Join(*t.build, "f_key", "d_key", {"d_val"})
        .Aggregate(dsl::Call(dsl::ScalarOp::kMod, {Var("f_b"), ConstI(4)}), 4)
        .Sum("val_sum", Var("d_val"))
        .Count("rows");
    return qb.Build().ValueOrDie();
  };
  Query jit = RunJitNoDecline(make, "gather/scatter");

  Query interp = make();
  ASSERT_TRUE(ExecEngine::Execute(interp.context(), InterpSerial()).ok());
  EXPECT_EQ(jit.aggregate("val_sum"), interp.aggregate("val_sum"));
  EXPECT_EQ(jit.aggregate("rows"), interp.aggregate("rows"));
}

// Shape 2: let-bound write counts. Row materialization writes each
// surviving row at the `onum` cursor and advances it by the write's
// result — the scalar-state slot of the trace ABI.
TEST(JitDeclineRegressionTest, LetBoundWriteCountTraceCompiles) {
  Tables t;
  auto make = [&] {
    QueryBuilder qb(*t.probe);
    qb.Filter(Var("f_a") < ConstI(500))
        .Output("f_key")
        .Output("f_b")
        .OrderBy("f_b", SortDir::kAscending);
    return qb.Build().ValueOrDie();
  };
  Query jit = RunJitNoDecline(make, "let-bound write count");

  Query interp = make();
  ASSERT_TRUE(ExecEngine::Execute(interp.context(), InterpSerial()).ok());
  ASSERT_EQ(jit.num_result_rows(), interp.num_result_rows());
  EXPECT_EQ(jit.result_column("f_key").data, interp.result_column("f_key").data);
  EXPECT_EQ(jit.result_column("f_b").data, interp.result_column("f_b").data);
}

// Shape 3: selection-carrying chunk-var inputs. Post-filter compute reaches
// the trace with values that already carry the filter's selection; the
// selection-specialized variant iterates i = sel[j] and republishes the
// selection on its outputs.
TEST(JitDeclineRegressionTest, SelectionCarryingInputTraceCompiles) {
  Tables t;
  auto make = [&] {
    QueryBuilder qb(*t.probe);
    qb.Filter(Var("f_a") * ConstI(3) < Var("f_b") + ConstI(700))
        .Project("score", Var("f_a") * ConstI(2) + Var("f_b"))
        .Aggregate(dsl::Call(dsl::ScalarOp::kMod, {Var("f_key"), ConstI(8)}), 8)
        .Sum("score_sum", Var("score"))
        .Count("rows");
    return qb.Build().ValueOrDie();
  };
  Query jit = RunJitNoDecline(make, "selection-carrying input");

  Query interp = make();
  ASSERT_TRUE(ExecEngine::Execute(interp.context(), InterpSerial()).ok());
  EXPECT_EQ(jit.aggregate("score_sum"), interp.aggregate("score_sum"));
  EXPECT_EQ(jit.aggregate("rows"), interp.aggregate("rows"));
}

// All three families composed in one plan — the shape ISSUE/ROADMAP name
// as the previously-declined hot path: join payload re-gather + post-filter
// compute + ORDER BY condensing, serial and under a 4-worker session.
TEST(JitDeclineRegressionTest, JoinOrderByPipelineCompilesAndMatches) {
  Tables t;
  auto make = [&] {
    QueryBuilder qb(*t.probe);
    qb.Join(*t.build, "f_key", "d_key", {"d_val"})
        .Filter(Var("f_a") < ConstI(700))
        .Project("gain", Var("d_val") + Var("f_b"))
        .Output("gain")
        .Output("f_key")
        .OrderBy("gain", SortDir::kDescending);
    return qb.Build().ValueOrDie();
  };
  Query jit = RunJitNoDecline(make, "join+orderby pipeline");

  Query interp = make();
  ASSERT_TRUE(ExecEngine::Execute(interp.context(), InterpSerial()).ok());
  ASSERT_EQ(jit.num_result_rows(), interp.num_result_rows());
  EXPECT_EQ(jit.result_column("gain").data, interp.result_column("gain").data);
  EXPECT_EQ(jit.result_column("f_key").data,
            interp.result_column("f_key").data);

  // 4-worker session run of the same plan stays bit-identical.
  SessionOptions so;
  so.num_workers = 4;
  Session session(so);
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kAdaptiveJit;
  qo.vm.optimize_after_iterations = 2;
  Query par = make();
  auto rp = session.Submit(par.context(), qo).Wait();
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  EXPECT_TRUE(rp.value().jit_declined.empty())
      << "parallel declined: " << rp.value().jit_declined;
  ASSERT_EQ(par.num_result_rows(), interp.num_result_rows());
  EXPECT_EQ(par.result_column("gain").data, interp.result_column("gain").data);
  EXPECT_EQ(par.result_column("f_key").data,
            interp.result_column("f_key").data);
}

// A hot region the gate rejects: the gather's base `t` is a let-bound chunk
// array (rule gather-base-not-data), while an independent second pipeline
// over src2 compiles. The decline must surface through ExecReport by rule
// id, must not count as a compiled trace, and must leave the rows equal to
// pure interpretation.
TEST(JitDeclineRegressionTest, GateDeclineReportedByRuleId) {
  using dsl::Lambda;
  using dsl::Let;
  using dsl::Skeleton;
  using dsl::SkeletonKind;
  constexpr int64_t kN = 16 * 1024;  // 16 chunks
  dsl::Program p;
  p.data = {{"src", TypeId::kI64, false},
            {"src2", TypeId::kI64, false},
            {"out", TypeId::kI64, true},
            {"out2", TypeId::kI64, true}};
  std::vector<dsl::StmtPtr> body;
  body.push_back(
      Let("v", Skeleton(SkeletonKind::kRead, {Var("i"), Var("src")})));
  body.push_back(Let("t", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(2)),
                                    Var("v")})));
  body.push_back(Let(
      "idx", Skeleton(SkeletonKind::kMap,
                      {Lambda({"x"}, dsl::Call(dsl::ScalarOp::kMod,
                                               {dsl::Call(dsl::ScalarOp::kAbs,
                                                          {Var("x")}),
                                                ConstI(8)})),
                       Var("v")})));
  body.push_back(
      Let("gv", Skeleton(SkeletonKind::kGather, {Var("t"), Var("idx")})));
  body.push_back(dsl::ExprStmt(
      Skeleton(SkeletonKind::kWrite, {Var("out"), Var("i"), Var("gv")})));
  body.push_back(
      Let("u", Skeleton(SkeletonKind::kRead, {Var("i"), Var("src2")})));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(3) +
                                                      ConstI(1)),
                                    Var("u")})));
  body.push_back(dsl::ExprStmt(
      Skeleton(SkeletonKind::kWrite, {Var("out2"), Var("i"), Var("y")})));
  body.push_back(dsl::Assign(
      "i", Var("i") + Skeleton(SkeletonKind::kLen, {Var("v")})));
  body.push_back(dsl::If(dsl::Call(dsl::ScalarOp::kGe, {Var("i"), ConstI(kN)}),
                         {dsl::Break()}));
  p.stmts = {dsl::MutDef("i"), dsl::Assign("i", ConstI(0)),
             dsl::Loop(std::move(body))};
  p.AssignIds();
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());

  Rng rng(5);
  std::vector<int64_t> src(kN), src2(kN);
  for (auto& x : src) x = rng.NextInRange(-1000, 1000);
  for (auto& x : src2) x = rng.NextInRange(-1000, 1000);
  auto run = [&](ExecutionStrategy strategy, std::vector<int64_t>* out,
                 std::vector<int64_t>* out2) -> Result<ExecReport> {
    out->assign(kN, 0);
    out2->assign(kN, 0);
    ExecContext ctx(&p);
    ctx.BindInput("src",
                  interp::DataBinding::Raw(TypeId::kI64, src.data(), kN));
    ctx.BindInput("src2",
                  interp::DataBinding::Raw(TypeId::kI64, src2.data(), kN));
    ctx.BindOutput("out", interp::DataBinding::Raw(TypeId::kI64, out->data(),
                                                   kN, true));
    ctx.BindOutput("out2", interp::DataBinding::Raw(TypeId::kI64,
                                                    out2->data(), kN, true));
    EngineOptions eo;
    eo.strategy = strategy;
    eo.num_workers = 1;
    eo.vm.optimize_after_iterations = 2;
    eo.vm.min_cost_share = 0;
    return ExecEngine::Execute(ctx, eo);
  };

  std::vector<int64_t> jit_out, jit_out2, interp_out, interp_out2;
  auto r = run(ExecutionStrategy::kAdaptiveJit, &jit_out, &jit_out2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(
      run(ExecutionStrategy::kInterpret, &interp_out, &interp_out2).ok());
  EXPECT_EQ(jit_out, interp_out);
  EXPECT_EQ(jit_out2, interp_out2);

  // Without a host compiler the VM never optimizes, so nothing is gated.
  if (!jit::SourceJit::Available()) return;
  const ExecReport& rep = r.value();
  EXPECT_NE(rep.jit_declined.find("[gather-base-not-data]"), std::string::npos)
      << "jit_declined: " << rep.jit_declined;
  EXPECT_GE(rep.verifier_checked, 2u);
  // Only the src2 pipeline became machine code (fresh, reused from the
  // shared cache, or loaded from disk); the declined trace never did.
  EXPECT_EQ(rep.traces_compiled + rep.traces_reused + rep.disk_cache_hits, 1u)
      << "compiled " << rep.traces_compiled << ", reused "
      << rep.traces_reused << ", disk " << rep.disk_cache_hits;
  EXPECT_GT(rep.injection_runs, 0u);
}

}  // namespace
}  // namespace avm::engine
