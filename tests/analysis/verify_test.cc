// Static-verifier unit tests: one deliberately malformed shape per rule id
// (docs/VERIFIER.md). VerifyTrace is the JIT's only gate, so each rejected
// trace must decline with a status naming its rule, codegen must refuse
// the dirty verification, and every partitioner trace that verifies clean
// must generate.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/verify_program.h"
#include "analysis/verify_trace.h"
#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "ir/depgraph.h"
#include "jit/codegen.h"

namespace avm::analysis {
namespace {

using namespace dsl;  // NOLINT: builder DSL reads best unqualified

/// Wraps `body` in the canonical chunk loop (mut i; i = 0; loop { ...;
/// i += len(len_of); if (i >= 4096) break; }) and assigns node ids.
Program LoopProgram(std::vector<DataDecl> data, std::vector<StmtPtr> body,
                    const std::string& len_of = "v") {
  body.push_back(Assign(
      "i", Var("i") + Skeleton(SkeletonKind::kLen, {Var(len_of)})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(4096)}),
                    {Break()}));
  Program p;
  p.data = std::move(data);
  p.stmts.push_back(MutDef("i"));
  p.stmts.push_back(Assign("i", ConstI(0)));
  p.stmts.push_back(Loop(std::move(body)));
  p.AssignIds();
  return p;
}

StmtPtr ReadStmt(const std::string& var, const std::string& array) {
  return Let(var, Skeleton(SkeletonKind::kRead, {Var("i"), Var(array)}));
}

ExprPtr GtZeroFilter(const std::string& in) {
  return Skeleton(SkeletonKind::kFilter,
                  {Lambda({"x"}, Call(ScalarOp::kGt, {Var("x"), ConstI(0)})),
                   Var(in)});
}

ir::DepGraph BuildGraph(Program* p, bool typecheck = true) {
  if (typecheck) {
    Status st = dsl::TypeCheck(p);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  auto g = ir::DepGraph::Build(*p);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).ValueOrDie();
}

int NodeOf(const ir::DepGraph& g, SkeletonKind kind,
           const std::string& output = "") {
  for (const auto& n : g.nodes()) {
    if (n.kind != kind) continue;
    if (!output.empty() && g.OutputNameOf(n.id) != output) continue;
    return static_cast<int>(n.id);
  }
  return -1;
}

ir::Trace MakeTrace(std::vector<int> ids, std::vector<std::string> inputs,
                    std::vector<std::string> outputs) {
  ir::Trace t;
  for (int id : ids) {
    EXPECT_GE(id, 0);
    t.node_ids.push_back(static_cast<uint32_t>(id));
  }
  std::sort(t.node_ids.begin(), t.node_ids.end());
  t.inputs = std::move(inputs);
  t.outputs = std::move(outputs);
  return t;
}

/// The gate's verdict on one malformed trace: `rule` fires first, so the
/// decline status the VM reports names it, and codegen refuses to emit
/// from the dirty verification.
void ExpectRejectedByRule(const Program& p, const ir::DepGraph& g,
                          const ir::Trace& tr, const char* rule,
                          const std::set<std::string>& sel = {}) {
  TraceContext ctx;
  ctx.sel_inputs = sel;
  const TraceVerification vr = VerifyTrace(p, g, tr, ctx);
  ASSERT_FALSE(vr.clean()) << "expected rule " << rule;
  EXPECT_NE(vr.FindRule(rule), nullptr)
      << "expected rule " << rule << ", got:\n" << vr.ToString();
  const Status decline = vr.AsStatus();
  EXPECT_TRUE(decline.IsNotImplemented()) << decline.ToString();
  EXPECT_NE(decline.message().find(std::string("[") + rule + "]"),
            std::string::npos)
      << "decline does not name " << rule << ": " << decline.ToString();
  auto gen = jit::GenerateTrace(p, g, tr, vr);
  EXPECT_TRUE(gen.status().IsInternal())
      << "codegen emitted from a dirty verification (" << rule << ")";
}

// ===========================================================================
// Level 1: VerifyProgram
// ===========================================================================

TEST(VerifyProgramTest, Figure2ProgramIsClean) {
  Program p = MakeFigure2Program(4096);
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  const VerifyResult vr = VerifyProgram(p);
  EXPECT_TRUE(vr.clean()) << vr.ToString();
}

TEST(VerifyProgramTest, DefBeforeUse) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(2)),
                                    Var("nosuch")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  const VerifyResult vr = VerifyProgram(p);
  const Diagnostic* d = vr.FindRule("program-def-before-use");
  ASSERT_NE(d, nullptr) << vr.ToString();
  EXPECT_NE(d->message.find("nosuch"), std::string::npos);
}

TEST(VerifyProgramTest, ImmutableReassign) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("a", Var("v")));
  body.push_back(Assign("a", Var("v")));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  EXPECT_NE(VerifyProgram(p).FindRule("program-immutable-reassign"), nullptr);
}

TEST(VerifyProgramTest, LetShadow) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("a", Var("v")));
  body.push_back(Let("a", Var("v")));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  EXPECT_NE(VerifyProgram(p).FindRule("program-let-shadow"), nullptr);
}

TEST(VerifyProgramTest, PrimNormalizeArityMismatch) {
  // Two lambda params, one value stream: ir::Normalize declines and the
  // verifier must surface it instead of letting the VM trip over it later.
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"a", "b"}, Var("a")),
                                    Var("v")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  EXPECT_NE(VerifyProgram(p).FindRule("prim-normalize"), nullptr);
}

TEST(VerifyProgramTest, PrimResultTypeDisagreement) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(2)),
                                    Var("v")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  EXPECT_TRUE(VerifyProgram(p).clean());
  // Corrupt the annotation the way a buggy lowering pass would: the map's
  // node type no longer matches its normalized lambda result.
  p.stmts[2]->body[1]->expr->type = TypeId::kF64;
  EXPECT_NE(VerifyProgram(p).FindRule("prim-result-type"), nullptr);
}

TEST(VerifyProgramTest, BindingRoleRules) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(ReadStmt("w", "acc"));  // reads a privatized accumulator
  body.push_back(ExprStmt(Skeleton(SkeletonKind::kWrite,
                                   {Var("src"), Var("i"), Var("v")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false},
                           {"acc", TypeId::kI64, true}},
                          std::move(body));
  std::vector<BindingInfo> binds;
  binds.push_back({"src", BindingRole::kInput, 1});
  binds.push_back({"acc", BindingRole::kAccumulator, 1});
  binds.push_back({"ghost", BindingRole::kShared, 1});
  const VerifyResult vr = VerifyProgram(p, binds);
  EXPECT_NE(vr.FindRule("bind-write-to-readonly"), nullptr) << vr.ToString();
  EXPECT_NE(vr.FindRule("bind-accumulator-read"), nullptr) << vr.ToString();
  EXPECT_NE(vr.FindRule("bind-unknown-name"), nullptr) << vr.ToString();
}

TEST(VerifyProgramTest, FanoutRowScale) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(ExprStmt(Skeleton(SkeletonKind::kWrite,
                                   {Var("o1"), Var("i"), Var("v")})));
  body.push_back(ExprStmt(Skeleton(SkeletonKind::kWrite,
                                   {Var("o2"), Var("i"), Var("v")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false},
                           {"o1", TypeId::kI64, true},
                           {"o2", TypeId::kI64, true}},
                          std::move(body));
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());

  // Output windows scale by 2 but nothing in the program fans rows out.
  {
    std::vector<BindingInfo> binds;
    binds.push_back({"src", BindingRole::kInput, 1});
    binds.push_back({"o1", BindingRole::kPartialOutput, 2});
    binds.push_back({"o2", BindingRole::kPartialOutput, 2});
    EXPECT_NE(VerifyProgram(p, binds).FindRule("fanout-row-scale"), nullptr);
  }
  // Sibling outputs of one result set disagree on the fan-out factor.
  {
    std::vector<BindingInfo> binds;
    binds.push_back({"o1", BindingRole::kPartialOutput, 1});
    binds.push_back({"o2", BindingRole::kPartialOutput, 3});
    EXPECT_NE(VerifyProgram(p, binds).FindRule("fanout-row-scale"), nullptr);
  }
  // Zero is never a valid window scale.
  {
    std::vector<BindingInfo> binds;
    binds.push_back({"o1", BindingRole::kPartialOutput, 0});
    EXPECT_NE(VerifyProgram(p, binds).FindRule("fanout-row-scale"), nullptr);
  }
  // The consistent scale-1 case stays clean.
  {
    std::vector<BindingInfo> binds;
    binds.push_back({"src", BindingRole::kInput, 1});
    binds.push_back({"o1", BindingRole::kPartialOutput, 1});
    binds.push_back({"o2", BindingRole::kPartialOutput, 1});
    EXPECT_TRUE(VerifyProgram(p, binds).clean());
  }
}

TEST(VerifyProgramTest, DomainMix) {
  // e1 lives in the pair domain minted by expand(cnt); mixing it
  // positionally with the pre-expand row-domain value v reads unrelated
  // rows against each other — the discipline the hash-join probe honors by
  // rebasing every still-needed value through the same expand counts.
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(ReadStmt("cnt", "cnts"));
  body.push_back(Let("e1", Skeleton(SkeletonKind::kExpand,
                                    {Var("cnt"), Var("v")})));
  body.push_back(Let("m", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"a", "b"}, Var("a") + Var("b")),
                                    Var("e1"), Var("v")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false},
                           {"cnts", TypeId::kI64, false}},
                          std::move(body));
  const VerifyResult vr = VerifyProgram(p);
  EXPECT_NE(vr.FindRule("domain-mix"), nullptr) << vr.ToString();

  // The rebased variant — both map operands behind the SAME expand counts
  // — is exactly the join lowering's shape and must stay clean.
  std::vector<StmtPtr> ok_body;
  ok_body.push_back(ReadStmt("v", "src"));
  ok_body.push_back(ReadStmt("cnt", "cnts"));
  ok_body.push_back(Let("e1", Skeleton(SkeletonKind::kExpand,
                                       {Var("cnt"), Var("v")})));
  ok_body.push_back(Let("e2", Skeleton(SkeletonKind::kExpand,
                                       {Var("cnt"), Var("v")})));
  ok_body.push_back(Let("m", Skeleton(SkeletonKind::kMap,
                                      {Lambda({"a", "b"},
                                              Var("a") + Var("b")),
                                       Var("e1"), Var("e2")})));
  Program ok = LoopProgram({{"src", TypeId::kI64, false},
                            {"cnts", TypeId::kI64, false}},
                           std::move(ok_body));
  EXPECT_EQ(VerifyProgram(ok).FindRule("domain-mix"), nullptr);
}

// ===========================================================================
// Level 2: VerifyTrace — one malformed trace per rule id.
// ===========================================================================

TEST(VerifyTraceTest, TraceEmpty) {
  Program p = MakeFigure2Program(4096);
  ir::DepGraph g = BuildGraph(&p);
  ir::Trace t;  // covers nothing
  TraceContext ctx;
  const VerifyResult vr = VerifyTrace(p, g, t, ctx);
  EXPECT_NE(vr.FindRule("trace-empty"), nullptr) << vr.ToString();
}

TEST(VerifyTraceTest, StmtAlignmentAndNestedSkeleton) {
  // One statement, two skeleton nodes (a map nested as the outer map's
  // value argument); covering only the outer node splits the statement.
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let(
      "y", Skeleton(SkeletonKind::kMap,
                    {Lambda({"x"}, Var("x") * ConstI(2)),
                     Skeleton(SkeletonKind::kMap,
                              {Lambda({"x"}, Var("x") + ConstI(1)),
                               Var("v")})})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p);
  int outer = -1;
  for (const auto& n : g.nodes()) {
    if (n.kind == SkeletonKind::kMap && g.OutputNameOf(n.id) == "y") {
      outer = static_cast<int>(n.id);
    }
  }
  ir::Trace t = MakeTrace({outer}, {}, {"y"});
  ExpectRejectedByRule(p, g, t, "trace-stmt-alignment");
  // Later findings are advisory: the verifier collects them all.
  EXPECT_NE(VerifyTrace(p, g, t).FindRule("nested-skeleton-outside"),
            nullptr);
}

TEST(VerifyTraceTest, CaptureStaleReassigned) {
  // `s` is reassigned by the statement BETWEEN the trace's read and the
  // map that captures it: the harness resolves captures before the call,
  // so the compiled map would see the previous iteration's cursor.
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Assign("s", Var("s") + ConstI(1)));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") + Var("s")),
                                    Var("v")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  p.stmts.insert(p.stmts.begin(), Assign("s", ConstI(0)));
  p.stmts.insert(p.stmts.begin(), MutDef("s"));
  p.AssignIds();
  ir::DepGraph g = BuildGraph(&p);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kRead),
                           NodeOf(g, SkeletonKind::kMap)},
                          {}, {"y"});
  ExpectRejectedByRule(p, g, t, "capture-stale-reassigned");
}

TEST(VerifyTraceTest, GatherBaseNotData) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("t", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(2)),
                                    Var("v")})));
  body.push_back(Let("idx", Skeleton(SkeletonKind::kMap,
                                     {Lambda({"x"},
                                             Call(ScalarOp::kMod,
                                                  {Call(ScalarOp::kAbs,
                                                        {Var("x")}),
                                                   ConstI(8)})),
                                      Var("v")})));
  body.push_back(Let("gv", Skeleton(SkeletonKind::kGather,
                                    {Var("t"), Var("idx")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p, /*typecheck=*/false);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kGather)},
                          {"t", "idx"}, {"gv"});
  ExpectRejectedByRule(p, g, t, "gather-base-not-data");
}

TEST(VerifyTraceTest, ScatterDestNotData) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("t", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(2)),
                                    Var("v")})));
  body.push_back(ExprStmt(Skeleton(
      SkeletonKind::kScatter,
      {Var("t"), Var("v"), Var("v"),
       Lambda({"o", "n"}, Var("o") + Var("n"))})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p, /*typecheck=*/false);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kScatter)},
                          {"t", "v"}, {});
  ExpectRejectedByRule(p, g, t, "scatter-dest-not-data");
}

TEST(VerifyTraceTest, ScatterConflictFnUnsupported) {
  // Multiplication is not one of the reorderable conflict functions
  // (add/min/max) the compiled scatter loop supports.
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("idx", Skeleton(SkeletonKind::kMap,
                                     {Lambda({"x"},
                                             Call(ScalarOp::kMod,
                                                  {Call(ScalarOp::kAbs,
                                                        {Var("x")}),
                                                   ConstI(8)})),
                                      Var("v")})));
  body.push_back(ExprStmt(Skeleton(
      SkeletonKind::kScatter,
      {Var("X"), Var("idx"), Var("v"),
       Lambda({"o", "n"}, Var("o") * Var("n"))})));
  Program p = LoopProgram({{"src", TypeId::kI64, false},
                           {"X", TypeId::kI64, true}},
                          std::move(body));
  ir::DepGraph g = BuildGraph(&p);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kScatter)},
                          {"idx", "v"}, {"X"});
  ExpectRejectedByRule(p, g, t, "scatter-conflict-fn");
}

TEST(VerifyTraceTest, FilterSelEscape) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("t", GtZeroFilter("v")));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(2)),
                                    Var("t")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p);
  // The filter alone: its consumer (the map) stays outside the trace, so
  // the selection vector would have to cross the compiled-code boundary.
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kFilter)}, {"v"}, {"t"});
  ExpectRejectedByRule(p, g, t, "filter-sel-escape");
}

TEST(VerifyTraceTest, FilterPositionalInSelTrace) {
  // u carries the incoming selection; the trace's own filter consumes the
  // POSITIONAL v instead, so compiled code would mint a selection
  // unrelated to the one interpretation composes with.
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("u", GtZeroFilter("v")));
  body.push_back(Let("t", Skeleton(SkeletonKind::kFilter,
                                   {Lambda({"x"}, Call(ScalarOp::kLt,
                                                       {Var("x"),
                                                        ConstI(100)})),
                                    Var("v")})));
  body.push_back(Let("m", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"a", "b"}, Var("a") + Var("b")),
                                    Var("t"), Var("u")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kFilter, "t"),
                           NodeOf(g, SkeletonKind::kMap, "m")},
                          {"v", "u"}, {"m"});
  ExpectRejectedByRule(p, g, t, "filter-positional-in-sel-trace", {"u"});
}

TEST(VerifyTraceTest, FilterMultiple) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("t1", GtZeroFilter("v")));
  body.push_back(Let("t2", Skeleton(SkeletonKind::kFilter,
                                    {Lambda({"x"}, Call(ScalarOp::kLt,
                                                        {Var("x"),
                                                         ConstI(100)})),
                                     Var("t1")})));
  body.push_back(Let("c", Skeleton(SkeletonKind::kCondense, {Var("t2")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kFilter, "t1"),
                           NodeOf(g, SkeletonKind::kFilter, "t2"),
                           NodeOf(g, SkeletonKind::kCondense)},
                          {"v"}, {"c"});
  ExpectRejectedByRule(p, g, t, "filter-multiple");
}

TEST(VerifyTraceTest, CondenseNoSource) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("t", GtZeroFilter("v")));
  body.push_back(Let("c", Skeleton(SkeletonKind::kCondense, {Var("t")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p);
  // Condense alone, positionally: neither its filter nor a
  // selection-carrying input is in the trace.
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kCondense)},
                          {"t"}, {"c"});
  ExpectRejectedByRule(p, g, t, "condense-no-source");
}

TEST(VerifyTraceTest, PostfilterEscapeNoCondense) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("t", GtZeroFilter("v")));
  body.push_back(Let("m", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(2)),
                                    Var("t")})));
  body.push_back(Let("c", Skeleton(SkeletonKind::kCondense, {Var("m")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p);
  // m escapes (its condense stays interpreted) carrying a filtered,
  // uncondensed value across the boundary.
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kFilter),
                           NodeOf(g, SkeletonKind::kMap)},
                          {"v"}, {"m"});
  ExpectRejectedByRule(p, g, t, "postfilter-escape-no-condense");
}

TEST(VerifyTraceTest, ExpandInTrace) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(ReadStmt("cnt", "cnts"));
  body.push_back(Let("e", Skeleton(SkeletonKind::kExpand,
                                   {Var("cnt"), Var("v")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false},
                           {"cnts", TypeId::kI64, false}},
                          std::move(body));
  ir::DepGraph g = BuildGraph(&p, /*typecheck=*/false);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kExpand)},
                          {"cnt", "v"}, {"e"});
  ExpectRejectedByRule(p, g, t, "expand-in-trace");
}

TEST(VerifyTraceTest, SkeletonUnsupported) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(ReadStmt("w", "other"));
  body.push_back(Let("m", Merge(MergeKind::kJoin, {Var("v"), Var("w")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false},
                           {"other", TypeId::kI64, false}},
                          std::move(body));
  ir::DepGraph g = BuildGraph(&p, /*typecheck=*/false);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kMerge)},
                          {"v", "w"}, {"m"});
  ExpectRejectedByRule(p, g, t, "skeleton-unsupported");
}

TEST(VerifyTraceTest, InputUnknown) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(2)),
                                    Var("v")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kMap)},
                          {"v", "ghost"}, {"y"});
  ExpectRejectedByRule(p, g, t, "input-unknown");
}

TEST(VerifyTraceTest, PosNotAffine) {
  std::vector<StmtPtr> body;
  body.push_back(Let("v", Skeleton(SkeletonKind::kRead,
                                   {Var("i") + ConstI(1), Var("src")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p, /*typecheck=*/false);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kRead)}, {}, {"v"});
  ExpectRejectedByRule(p, g, t, "pos-not-affine");
}

TEST(VerifyTraceTest, ValueUnresolved) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("t", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") + ConstI(1)),
                                    Var("v")})));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(2)),
                                    Var("t")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p);
  // t is produced outside the trace but NOT listed as a boundary input —
  // the partitioner contract the compiled harness depends on.
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kMap, "y")}, {}, {"y"});
  ExpectRejectedByRule(p, g, t, "value-unresolved");
}

TEST(VerifyTraceTest, ArgUnsupported) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(2)),
                                    Lambda({"z"}, ConstI(1))})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body),
                          /*len_of=*/"v");
  ir::DepGraph g = BuildGraph(&p, /*typecheck=*/false);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kMap)}, {}, {"y"});
  ExpectRejectedByRule(p, g, t, "arg-unsupported");
}

TEST(VerifyTraceTest, FoldInitShape) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let(
      "s", Skeleton(SkeletonKind::kFold,
                    {Lambda({"acc", "x"}, Var("acc") + Var("x")),
                     Call(ScalarOp::kAdd, {ConstI(1), ConstI(2)}),
                     Var("v")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p, /*typecheck=*/false);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kFold)}, {"v"}, {"s"});
  ExpectRejectedByRule(p, g, t, "fold-init-shape");
}

TEST(VerifyTraceTest, PrimNormalizeInTrace) {
  std::vector<StmtPtr> body;
  body.push_back(ReadStmt("v", "src"));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"a", "b"}, Var("a")),
                                    Var("v")})));
  Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
  ir::DepGraph g = BuildGraph(&p, /*typecheck=*/false);
  ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kMap)}, {"v"}, {"y"});
  ExpectRejectedByRule(p, g, t, "prim-normalize");
}

// ===========================================================================
// The five pinned miscompile families (PR-3/PR-5 history): each family's
// minimal shape must be rejected by its named rule.
// ===========================================================================

TEST(VerifyTraceTest, PinnedMiscompileFamiliesRejected) {
  // Family 1 — stale selection / statement convexity: a trace spanning an
  // interpreted scatter into an array it gathers from.
  {
    std::vector<StmtPtr> body;
    body.push_back(ReadStmt("v", "src"));
    body.push_back(Let("idx", Skeleton(SkeletonKind::kMap,
                                       {Lambda({"x"},
                                               Call(ScalarOp::kMod,
                                                    {Call(ScalarOp::kAbs,
                                                          {Var("x")}),
                                                     ConstI(64)})),
                                        Var("v")})));
    body.push_back(ExprStmt(Skeleton(
        SkeletonKind::kScatter,
        {Var("X"), Var("idx"), Var("v"),
         Lambda({"o", "n"}, Var("o") + Var("n"))})));
    body.push_back(Let("gv", Skeleton(SkeletonKind::kGather,
                                      {Var("X"), Var("idx")})));
    Program p = LoopProgram({{"src", TypeId::kI64, false},
                             {"X", TypeId::kI64, true}},
                            std::move(body));
    ir::DepGraph g = BuildGraph(&p);
    ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kMap),
                             NodeOf(g, SkeletonKind::kGather)},
                            {"v"}, {"gv"});
    ExpectRejectedByRule(p, g, t, "trace-not-convex");
  }

  // Family 2 — stale capture cursor: a map capturing the let-bound count
  // of a write in the same trace (resolved pre-call, one iteration old).
  {
    std::vector<StmtPtr> body;
    body.push_back(ReadStmt("v", "src"));
    body.push_back(Let("w", Skeleton(SkeletonKind::kWrite,
                                     {Var("out"), Var("i"), Var("v")})));
    body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                     {Lambda({"x"}, Var("x") * Var("w")),
                                      Var("v")})));
    Program p = LoopProgram({{"src", TypeId::kI64, false},
                             {"out", TypeId::kI64, true}},
                            std::move(body));
    ir::DepGraph g = BuildGraph(&p);
    ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kWrite),
                             NodeOf(g, SkeletonKind::kMap)},
                            {"v"}, {"y"});
    ExpectRejectedByRule(p, g, t, "capture-stale-produced");
  }

  // Family 3 — selection-republish bypass: a condense of the incoming
  // selection that routes around the trace's own filter, storing guard
  // survivors where interpretation stores every selected row.
  {
    std::vector<StmtPtr> body;
    body.push_back(ReadStmt("v", "src"));
    body.push_back(Let("u", GtZeroFilter("v")));
    body.push_back(Let("t", Skeleton(SkeletonKind::kFilter,
                                     {Lambda({"x"},
                                             Call(ScalarOp::kLt,
                                                  {Var("x"), ConstI(100)})),
                                      Var("u")})));
    body.push_back(Let("c", Skeleton(SkeletonKind::kCondense, {Var("u")})));
    Program p = LoopProgram({{"src", TypeId::kI64, false}}, std::move(body));
    ir::DepGraph g = BuildGraph(&p);
    ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kFilter, "t"),
                             NodeOf(g, SkeletonKind::kCondense)},
                            {"u"}, {"c", "t"});
    ExpectRejectedByRule(p, g, t, "condense-bypass", {"u"});
  }

  // Family 4 — scatter index domain: the scatter's value is filtered but
  // its index is positional; the interpreter iterates the index's
  // selection, the compiled loop the value's guard — different domains.
  {
    std::vector<StmtPtr> body;
    body.push_back(ReadStmt("v", "src"));
    body.push_back(Let("idx", Skeleton(SkeletonKind::kMap,
                                       {Lambda({"x"},
                                               Call(ScalarOp::kMod,
                                                    {Call(ScalarOp::kAbs,
                                                          {Var("x")}),
                                                     ConstI(64)})),
                                        Var("v")})));
    body.push_back(Let("t", GtZeroFilter("v")));
    body.push_back(Let("m", Skeleton(SkeletonKind::kMap,
                                     {Lambda({"x"}, Var("x") * ConstI(2)),
                                      Var("t")})));
    body.push_back(ExprStmt(Skeleton(
        SkeletonKind::kScatter,
        {Var("X"), Var("idx"), Var("m"),
         Lambda({"o", "n"}, Var("o") + Var("n"))})));
    Program p = LoopProgram({{"src", TypeId::kI64, false},
                             {"X", TypeId::kI64, true}},
                            std::move(body));
    ir::DepGraph g = BuildGraph(&p);
    ir::Trace t = MakeTrace({NodeOf(g, SkeletonKind::kMap, "idx"),
                             NodeOf(g, SkeletonKind::kFilter),
                             NodeOf(g, SkeletonKind::kMap, "m"),
                             NodeOf(g, SkeletonKind::kScatter)},
                            {"v"}, {"X"});
    ExpectRejectedByRule(p, g, t, "scatter-index-domain");
  }

  // Family 5 — join fan-out row window: output windows scaled past the
  // program's actual fan-out (program-level rule; the row-window family).
  {
    std::vector<StmtPtr> body;
    body.push_back(ReadStmt("v", "src"));
    body.push_back(ExprStmt(Skeleton(SkeletonKind::kWrite,
                                     {Var("o1"), Var("i"), Var("v")})));
    Program p = LoopProgram({{"src", TypeId::kI64, false},
                             {"o1", TypeId::kI64, true}},
                            std::move(body));
    ASSERT_TRUE(dsl::TypeCheck(&p).ok());
    std::vector<BindingInfo> binds;
    binds.push_back({"src", BindingRole::kInput, 1});
    binds.push_back({"o1", BindingRole::kPartialOutput, 2});
    const VerifyResult vr = VerifyProgram(p, binds);
    EXPECT_NE(vr.FindRule("fanout-row-scale"), nullptr) << vr.ToString();
  }
}

// ===========================================================================
// The accept side on the partitioner's own traces: every trace
// GreedyPartition emits that verifies clean must generate.
// ===========================================================================

TEST(VerifyTraceTest, PartitionedTracesVerifyAndGenerate) {
  for (bool allow_filter : {false, true}) {
    Program p = MakeFigure2Program(4096);
    ir::DepGraph g = BuildGraph(&p);
    ir::PartitionConstraints c;
    c.allow_filter = allow_filter;
    const std::vector<ir::Trace> traces = ir::GreedyPartition(g, c);
    ASSERT_FALSE(traces.empty());
    size_t verified = 0;
    for (const ir::Trace& tr : traces) {
      const TraceVerification vr = VerifyTrace(p, g, tr);
      if (!vr.clean()) continue;
      ++verified;
      auto gen = jit::GenerateTrace(p, g, tr, vr);
      EXPECT_TRUE(gen.ok()) << "codegen failed on a verified trace "
                            << "(allow_filter=" << allow_filter
                            << "): " << gen.status().ToString();
    }
    EXPECT_GT(verified, 0u) << "allow_filter=" << allow_filter;
  }
}

TEST(DiagnosticTest, ToStringCarriesRuleAndHint) {
  Diagnostic d;
  d.rule_id = "trace-not-convex";
  d.message = "conflict";
  d.fix_hint = "split the trace";
  d.stmt_index = 3;
  d.node_id = 7;
  const std::string s = d.ToString();
  EXPECT_NE(s.find("trace-not-convex"), std::string::npos);
  EXPECT_NE(s.find("split the trace"), std::string::npos);
  VerifyResult vr;
  vr.diagnostics.push_back(d);
  EXPECT_FALSE(vr.clean());
  EXPECT_NE(vr.FindRule("trace-not-convex"), nullptr);
  EXPECT_EQ(vr.FindRule("no-such-rule"), nullptr);
}

}  // namespace
}  // namespace avm::analysis
