#include "jit/codegen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dsl/builder.h"
#include "dsl/typecheck.h"

namespace avm::jit {
namespace {

/// The JIT gate, then emission — the path AdaptiveVm::InstallTrace takes:
/// a trace the verifier rejects comes back as its decline status.
Result<GeneratedTrace> Generate(const dsl::Program& p, const ir::DepGraph& g,
                                const ir::Trace& t,
                                const std::set<std::string>& sel = {},
                                const CodegenOptions& opts = {}) {
  analysis::TraceContext ctx;
  ctx.sel_inputs = sel;
  const analysis::TraceVerification verified =
      analysis::VerifyTrace(p, g, t, ctx);
  AVM_RETURN_NOT_OK(verified.AsStatus());
  return GenerateTrace(p, g, t, verified, opts);
}

/// The trace was declined, and the decline names `rule`.
void ExpectDeclinedBy(const Result<GeneratedTrace>& gen, const char* rule) {
  ASSERT_FALSE(gen.ok()) << "expected a " << rule << " decline";
  EXPECT_TRUE(gen.status().IsNotImplemented()) << gen.status().ToString();
  EXPECT_NE(gen.status().message().find(std::string("[") + rule + "]"),
            std::string::npos)
      << gen.status().ToString();
}

struct Fixture {
  dsl::Program program;
  ir::DepGraph graph;
  std::vector<ir::Trace> traces;
};

/// Fig. 2 partitioned with filters fused into traces, or (the paper's
/// §III-B heuristic) with every filter-holding region rejected.
Fixture MakeFig2Fixture(bool fuse_filters) {
  Fixture fx;
  fx.program = dsl::MakeFigure2Program(4096);
  EXPECT_TRUE(dsl::TypeCheck(&fx.program).ok());
  auto g = ir::DepGraph::Build(fx.program);
  EXPECT_TRUE(g.ok());
  fx.graph = std::move(g).value();
  ir::TraceAcceptor accept;
  if (!fuse_filters) accept = [](const ir::Trace&) { return false; };
  fx.traces = ir::GreedyPartition(fx.graph, {}, accept);
  return fx;
}

TEST(CodegenTest, Fig2TopTraceGenerates) {
  Fixture fx = MakeFig2Fixture(false);
  ASSERT_FALSE(fx.traces.empty());
  auto gen = Generate(fx.program, fx.graph, fx.traces[0]);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  const GeneratedTrace& t = gen.value();
  // The fused loop multiplies by two: the constant must be inlined.
  EXPECT_NE(t.source.find("extern \"C\""), std::string::npos);
  EXPECT_NE(t.source.find("2LL"), std::string::npos);
  EXPECT_FALSE(t.symbol.empty());
  EXPECT_FALSE(t.covered_stmt_ids.empty());
  // Reads some_data, writes v, and exposes the escaping values.
  bool reads_some_data = false;
  for (const auto& in : t.inputs) {
    if (in.name == "some_data") {
      reads_some_data = true;
      EXPECT_EQ(in.kind, TraceInputSpec::Kind::kDataRead);
      ASSERT_TRUE(in.pos.valid());
      EXPECT_EQ(in.pos.ToString(), "i");
    }
  }
  EXPECT_TRUE(reads_some_data);
  bool writes_v = false, exposes_a = false;
  for (const auto& out : t.outputs) {
    if (out.kind == TraceOutputSpec::Kind::kDataWrite && out.name == "v") {
      writes_v = true;
      EXPECT_FALSE(out.condensed);
    }
    if (out.kind == TraceOutputSpec::Kind::kArrayVar && out.name == "a") {
      exposes_a = true;
    }
  }
  EXPECT_TRUE(writes_v);
  EXPECT_TRUE(exposes_a);
}

TEST(CodegenTest, FilterTraceEmitsGuardAndCount) {
  Fixture fx = MakeFig2Fixture(true);
  // Find a trace containing the filter.
  const ir::Trace* with_filter = nullptr;
  for (const auto& t : fx.traces) {
    for (uint32_t id : t.node_ids) {
      if (fx.graph.nodes()[id].kind == dsl::SkeletonKind::kFilter) {
        with_filter = &t;
      }
    }
  }
  ASSERT_NE(with_filter, nullptr);
  auto gen = Generate(fx.program, fx.graph, *with_filter);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_NE(gen.value().source.find("continue;"), std::string::npos);
  EXPECT_NE(gen.value().source.find("cnt"), std::string::npos);
  // The condensed output must be flagged.
  bool condensed_out = false;
  for (const auto& o : gen.value().outputs) condensed_out |= o.condensed;
  EXPECT_TRUE(condensed_out);
}

TEST(CodegenTest, FilterEscapingTraceRejected) {
  // A trace holding only {filter} must be rejected: its selection vector
  // cannot cross the compiled-code boundary.
  Fixture fx = MakeFig2Fixture(true);
  int filter_node = -1;
  for (const auto& n : fx.graph.nodes()) {
    if (n.kind == dsl::SkeletonKind::kFilter) filter_node = n.id;
  }
  ASSERT_GE(filter_node, 0);
  ir::Trace t;
  t.node_ids = {static_cast<uint32_t>(filter_node)};
  t.inputs = {"a"};
  t.outputs = {"t"};
  ExpectDeclinedBy(Generate(fx.program, fx.graph, t), "filter-sel-escape");
}

TEST(CodegenTest, CondenseWithoutFilterRejected) {
  Fixture fx = MakeFig2Fixture(true);
  int condense_node = -1;
  for (const auto& n : fx.graph.nodes()) {
    if (n.kind == dsl::SkeletonKind::kCondense) condense_node = n.id;
  }
  ASSERT_GE(condense_node, 0);
  ir::Trace t;
  t.node_ids = {static_cast<uint32_t>(condense_node)};
  t.inputs = {"t"};
  t.outputs = {"b"};
  ExpectDeclinedBy(Generate(fx.program, fx.graph, t), "condense-no-source");
}

TEST(CodegenTest, SchemeSpecializationEmitsDeltaPath) {
  Fixture fx = MakeFig2Fixture(false);
  ASSERT_FALSE(fx.traces.empty());
  CodegenOptions opts;
  opts.scheme_specialization["some_data"] = Scheme::kFor;
  auto gen = Generate(fx.program, fx.graph, fx.traces[0], {}, opts);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  // The compressed-execution path adds reference + uint32 delta.
  EXPECT_NE(gen.value().source.find("uint32_t*)in["), std::string::npos);
  EXPECT_EQ(gen.value().scheme_requirements.at("some_data"), Scheme::kFor);
  bool has_ref_capture = false;
  for (const auto& [name, type] : gen.value().captures_i) {
    if (name == "__for_ref_some_data") has_ref_capture = true;
  }
  EXPECT_TRUE(has_ref_capture);
  // Input spec switched to delta form.
  bool delta_input = false;
  for (const auto& in : gen.value().inputs) {
    if (in.kind == TraceInputSpec::Kind::kForDeltas) delta_input = true;
  }
  EXPECT_TRUE(delta_input);
}

TEST(CodegenTest, PositionalVariantEmitsSingleDenseLoop) {
  // Without selection specialization the trace is the positional variant:
  // one fused loop over all rows, no selected pass.
  Fixture fx = MakeFig2Fixture(false);
  auto gen = Generate(fx.program, fx.graph, fx.traces[0]);
  ASSERT_TRUE(gen.ok());
  const std::string& src = gen.value().source;
  EXPECT_NE(src.find("for (uint32_t i = 0; i < n; ++i)"), std::string::npos);
  EXPECT_EQ(src.find("args->sel[j]"), std::string::npos);
  EXPECT_TRUE(gen.value().sel_inputs.empty());
}

TEST(CodegenTest, SelSpecializedVariantEmitsSelectedPass) {
  // Specializing a chunk input as selection-carrying emits the selected
  // pass (i = sel[j]) and a distinct symbol; the consuming map's output is
  // flagged selection-dependent so the harness republishes the selection.
  using namespace dsl;
  Program p;
  p.data = {{"src", TypeId::kI64, false}};
  std::vector<StmtPtr> body;
  body.push_back(Let("input", Skeleton(SkeletonKind::kRead,
                                       {Var("i"), Var("src")})));
  body.push_back(Let(
      "t", Skeleton(SkeletonKind::kFilter,
                    {Lambda({"x"}, Call(ScalarOp::kGt,
                                        {Var("x"), ConstI(0)})),
                     Var("input")})));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * ConstI(3)),
                                    Var("t")})));
  body.push_back(Assign(
      "i", Var("i") + Skeleton(SkeletonKind::kLen, {Var("input")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(4096)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  ASSERT_TRUE(TypeCheck(&p).ok());
  auto g = ir::DepGraph::Build(p);
  ASSERT_TRUE(g.ok());
  int map_node = -1;
  for (const auto& n : g.value().nodes()) {
    if (n.kind == SkeletonKind::kMap) map_node = static_cast<int>(n.id);
  }
  ASSERT_GE(map_node, 0);
  ir::Trace tr;
  tr.node_ids = {static_cast<uint32_t>(map_node)};
  tr.inputs = {"t"};
  tr.outputs = {"y"};

  auto gen_pos = Generate(p, g.value(), tr);
  ASSERT_TRUE(gen_pos.ok()) << gen_pos.status().ToString();
  auto gen_sel = Generate(p, g.value(), tr, {"t"});
  ASSERT_TRUE(gen_sel.ok()) << gen_sel.status().ToString();
  const std::string& src = gen_sel.value().source;
  EXPECT_NE(src.find("args->sel[j]"), std::string::npos);
  EXPECT_NE(gen_sel.value().symbol, gen_pos.value().symbol);
  ASSERT_EQ(gen_sel.value().sel_inputs.size(), 1u);
  EXPECT_EQ(gen_sel.value().sel_inputs[0], "t");
  bool sel_dep_out = false;
  for (const auto& o : gen_sel.value().outputs) {
    if (o.kind == TraceOutputSpec::Kind::kArrayVar && o.name == "y") {
      sel_dep_out = o.sel_dependent;
    }
  }
  EXPECT_TRUE(sel_dep_out);
}

TEST(CodegenTest, SymbolsAreContentDeterministic) {
  // Identical traces generate identical symbols (and identical source), so
  // the source-JIT cache deduplicates compilation work; a differently
  // specialized variant gets a different symbol.
  Fixture fx = MakeFig2Fixture(false);
  auto a = Generate(fx.program, fx.graph, fx.traces[0]);
  auto b = Generate(fx.program, fx.graph, fx.traces[0]);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().symbol, b.value().symbol);
  EXPECT_EQ(a.value().source, b.value().source);
  CodegenOptions opts;
  opts.scheme_specialization["some_data"] = Scheme::kFor;
  auto c = Generate(fx.program, fx.graph, fx.traces[0], {}, opts);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value().symbol, c.value().symbol);
}

TEST(CodegenTest, GeneratedUnitIncludesOnlyCstdint) {
  // Header parsing is most of a trace compile's cost, so a generated unit
  // includes <cstdint> and nothing else, and names nothing from std::
  // (sqrt and fmod are compiler builtins, the type facts are spelled out).
  std::vector<GeneratedTrace> units;
  for (bool fuse : {false, true}) {
    Fixture fx = MakeFig2Fixture(fuse);
    for (const ir::Trace& t : fx.traces) {
      auto gen = Generate(fx.program, fx.graph, t);
      if (gen.ok()) units.push_back(std::move(gen).value());
    }
  }
  dsl::Program hypot = dsl::MakeHypotPipeline(4096);
  ASSERT_TRUE(dsl::TypeCheck(&hypot).ok());
  auto g = ir::DepGraph::Build(hypot);
  ASSERT_TRUE(g.ok());
  for (const ir::Trace& t : ir::GreedyPartition(g.value(), {})) {
    auto gen = Generate(hypot, g.value(), t);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    EXPECT_NE(gen.value().source.find("__builtin_sqrt("), std::string::npos);
    units.push_back(std::move(gen).value());
  }
  ASSERT_GE(units.size(), 3u);
  for (const GeneratedTrace& u : units) {
    const size_t first = u.source.find("#include");
    EXPECT_EQ(u.source.compare(first, 19, "#include <cstdint>\n"), 0)
        << u.name;
    EXPECT_EQ(u.source.find("#include", first + 1), std::string::npos)
        << u.name;
    EXPECT_EQ(u.source.find("std::"), std::string::npos) << u.name;
  }
}

TEST(CodegenTest, StaleInTraceCaptureDeclined) {
  // A map capturing the let-bound count of a write in the SAME trace: the
  // capture resolves before the call (previous iteration's value), while
  // interpretation uses the fresh count — the shape must decline.
  using namespace dsl;
  Program p;
  p.data = {{"src", TypeId::kI64, false},
            {"out", TypeId::kI64, true},
            {"out2", TypeId::kI64, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("v", Skeleton(SkeletonKind::kRead,
                                   {Var("i"), Var("src")})));
  body.push_back(Let("w", Skeleton(SkeletonKind::kWrite,
                                   {Var("out"), Var("i"), Var("v")})));
  body.push_back(Let("y", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"x"}, Var("x") * Var("w")),
                                    Var("v")})));
  body.push_back(ExprStmt(Skeleton(SkeletonKind::kWrite,
                                   {Var("out2"), Var("i"), Var("y")})));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("v")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(4096)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  ASSERT_TRUE(TypeCheck(&p).ok());
  auto g = ir::DepGraph::Build(p);
  ASSERT_TRUE(g.ok());
  ir::PartitionConstraints c;
  auto traces = ir::GreedyPartition(g.value(), c);
  // However the partitioner cuts it, no generated trace may contain both
  // the write producing 'w' and the map capturing it.
  for (const auto& tr : traces) {
    bool has_w_write = false, has_capture_map = false;
    for (uint32_t id : tr.node_ids) {
      const ir::DepNode& n = g.value().nodes()[id];
      if (n.kind == dsl::SkeletonKind::kWrite &&
          g.value().OutputNameOf(id) == "w") {
        has_w_write = true;
      }
      if (n.kind == dsl::SkeletonKind::kMap &&
          g.value().OutputNameOf(id) == "y") {
        has_capture_map = true;
      }
    }
    if (has_w_write && has_capture_map) {
      ExpectDeclinedBy(Generate(p, g.value(), tr), "capture-stale-produced");
    }
  }
  // And the explicit co-resident trace declines regardless of partition.
  int write_w = -1, map_y = -1;
  for (const auto& n : g.value().nodes()) {
    if (n.kind == dsl::SkeletonKind::kWrite &&
        g.value().OutputNameOf(n.id) == "w") {
      write_w = static_cast<int>(n.id);
    }
    if (n.kind == dsl::SkeletonKind::kMap) map_y = static_cast<int>(n.id);
  }
  ASSERT_GE(write_w, 0);
  ASSERT_GE(map_y, 0);
  ir::Trace tr;
  tr.node_ids = {static_cast<uint32_t>(std::min(write_w, map_y)),
                 static_cast<uint32_t>(std::max(write_w, map_y))};
  tr.inputs = {"v"};
  tr.outputs = {"y"};
  ExpectDeclinedBy(Generate(p, g.value(), tr), "capture-stale-produced");
}


TEST(CodegenTest, ArrayConflictAcrossStatementSpanDeclined) {
  // stmt0: idx map; stmt1: scatter into X (interpreted — outside the
  // trace); stmt2: gather from X. A trace {stmt0, stmt2} hoisted to its
  // anchor would gather from X BEFORE the interpreted scatter ran — the
  // data-array flavor of the stale-value hazard. Both the shared
  // convexity helper and the JIT gate must reject it.
  using namespace dsl;
  Program p;
  p.data = {{"src", TypeId::kI64, false},
            {"X", TypeId::kI64, true},
            {"out", TypeId::kI64, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("v", Skeleton(SkeletonKind::kRead,
                                   {Var("i"), Var("src")})));
  body.push_back(Let("idx", Skeleton(SkeletonKind::kMap,
                                     {Lambda({"x"}, Call(ScalarOp::kMod,
                                                         {Call(ScalarOp::kAbs,
                                                               {Var("x")}),
                                                          ConstI(64)})),
                                      Var("v")})));
  body.push_back(ExprStmt(Skeleton(
      SkeletonKind::kScatter,
      {Var("X"), Var("idx"), Var("v"),
       Lambda({"o", "n"}, Var("o") + Var("n"))})));
  body.push_back(Let("g", Skeleton(SkeletonKind::kGather,
                                   {Var("X"), Var("idx")})));
  body.push_back(ExprStmt(Skeleton(SkeletonKind::kWrite,
                                   {Var("out"), Var("i"), Var("g")})));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("v")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(4096)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  ASSERT_TRUE(TypeCheck(&p).ok());
  auto g = ir::DepGraph::Build(p);
  ASSERT_TRUE(g.ok());
  int map_idx = -1, gather_g = -1, scatter_x = -1;
  for (const auto& n : g.value().nodes()) {
    if (n.kind == dsl::SkeletonKind::kMap) map_idx = static_cast<int>(n.id);
    if (n.kind == dsl::SkeletonKind::kGather) gather_g = static_cast<int>(n.id);
    if (n.kind == dsl::SkeletonKind::kScatter) scatter_x = static_cast<int>(n.id);
  }
  ASSERT_GE(map_idx, 0);
  ASSERT_GE(gather_g, 0);
  ASSERT_GE(scatter_x, 0);

  // Outside writer inside the span.
  ir::Trace across;
  across.node_ids = {static_cast<uint32_t>(map_idx),
                     static_cast<uint32_t>(gather_g)};
  across.inputs = {"v"};
  across.outputs = {"g"};
  EXPECT_GE(ir::StmtConvexityViolation(g.value(), across.node_ids), 0);
  ExpectDeclinedBy(Generate(p, g.value(), across), "trace-not-convex");

  // Fused read-after-write of one array inside one trace.
  ir::Trace rw;
  rw.node_ids = {static_cast<uint32_t>(scatter_x),
                 static_cast<uint32_t>(gather_g)};
  std::sort(rw.node_ids.begin(), rw.node_ids.end());
  rw.inputs = {"v", "idx"};
  rw.outputs = {"g", "X"};
  EXPECT_GE(ir::StmtConvexityViolation(g.value(), rw.node_ids), 0);
  ExpectDeclinedBy(Generate(p, g.value(), rw), "trace-not-convex");

  // The partitioner never emits a region spanning the scatter.
  ir::PartitionConstraints c;
  for (const auto& tr : ir::GreedyPartition(g.value(), c)) {
    EXPECT_LT(ir::StmtConvexityViolation(g.value(), tr.node_ids), 0);
  }
}


TEST(CodegenTest, BoundaryCondenseOverSelInputCompiles) {
  // condense over a selection-carrying BOUNDARY input (its producer stays
  // outside the trace): emission must resolve through the chunk-var slot,
  // not walk the graph edge out of the trace (which used to throw).
  using namespace dsl;
  Program p;
  p.data = {{"src", TypeId::kI64, false}};
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
  body.push_back(Let("c", Skeleton(SkeletonKind::kCondense, {Var("b")})));
  body.push_back(Assign("i", Var("i") + Skeleton(SkeletonKind::kLen,
                                                 {Var("v")})));
  body.push_back(If(Call(ScalarOp::kGe, {Var("i"), ConstI(4096)}),
                    {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  ASSERT_TRUE(TypeCheck(&p).ok());
  auto g = ir::DepGraph::Build(p);
  ASSERT_TRUE(g.ok());
  int condense_c = -1;
  for (const auto& n : g.value().nodes()) {
    if (n.kind == dsl::SkeletonKind::kCondense) {
      condense_c = static_cast<int>(n.id);
    }
  }
  ASSERT_GE(condense_c, 0);
  ir::Trace tr;
  tr.node_ids = {static_cast<uint32_t>(condense_c)};
  tr.inputs = {"b"};
  tr.outputs = {"c"};
  auto gen = Generate(p, g.value(), tr, {"b"});
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  bool condensed_out = false;
  for (const auto& o : gen.value().outputs) {
    if (o.kind == TraceOutputSpec::Kind::kArrayVar && o.name == "c") {
      condensed_out = o.condensed;
    }
  }
  EXPECT_TRUE(condensed_out);
  // Without the selection specialization the same trace must DECLINE
  // (condense needs a selection context), not crash.
  ExpectDeclinedBy(Generate(p, g.value(), tr), "condense-no-source");
}


}  // namespace
}  // namespace avm::jit
