#include "interp/interpreter.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dsl/builder.h"
#include "dsl/parser.h"
#include "dsl/typecheck.h"

namespace avm::interp {
namespace {

using dsl::Program;

Program Checked(Program p) {
  Status st = dsl::TypeCheck(&p);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return p;
}

Program ParseChecked(const std::string& src) {
  auto p = dsl::ParseProgram(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return Checked(std::move(p).value());
}

TEST(InterpreterTest, Figure2EndToEnd) {
  const int64_t kN = 4096;
  Program p = Checked(dsl::MakeFigure2Program());
  std::vector<int64_t> data(kN), v(kN, -999), w(kN, -999);
  for (int64_t i = 0; i < kN; ++i) data[i] = i - 2000;  // mixed signs

  Interpreter in(&p);
  ASSERT_TRUE(in.BindData("some_data",
                          DataBinding::Raw(TypeId::kI64, data.data(), kN))
                  .ok());
  ASSERT_TRUE(
      in.BindData("v", DataBinding::Raw(TypeId::kI64, v.data(), kN, true))
          .ok());
  ASSERT_TRUE(
      in.BindData("w", DataBinding::Raw(TypeId::kI64, w.data(), kN, true))
          .ok());
  ASSERT_TRUE(in.Run().ok());

  // v = 2 * data for all elements.
  for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(v[i], 2 * data[i]);
  // w = positive doubled values, condensed.
  size_t expect = 0;
  for (int64_t i = 0; i < kN; ++i) {
    if (2 * data[i] > 0) {
      ASSERT_EQ(w[expect], 2 * data[i]) << i;
      ++expect;
    }
  }
  // k (count written to w) must match.
  auto k = in.GetScalar("k");
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(k.value().AsI64(), static_cast<int64_t>(expect));
}

TEST(InterpreterTest, Figure2FromParsedText) {
  Program p = ParseChecked(R"(
data some_data : i64
data v : i64 writable
data w : i64 writable
mut i
mut k
i := 0
k := 0
loop
  let input = read i some_data in
  let a = map (\x -> 2*x) input in
  let t = filter (\x -> x>0) a in
  let b = condense t
  write v i a
  write w k b
  i := i + len(a)
  k := k + len(b)
  if i >= 2000 then
    break
)");
  std::vector<int64_t> data(2000), v(2000), w(2000);
  for (int i = 0; i < 2000; ++i) data[i] = (i % 2 == 0) ? i : -i;
  Interpreter in(&p);
  ASSERT_TRUE(in.BindData("some_data",
                          DataBinding::Raw(TypeId::kI64, data.data(), 2000))
                  .ok());
  ASSERT_TRUE(
      in.BindData("v", DataBinding::Raw(TypeId::kI64, v.data(), 2000, true))
          .ok());
  ASSERT_TRUE(
      in.BindData("w", DataBinding::Raw(TypeId::kI64, w.data(), 2000, true))
          .ok());
  ASSERT_TRUE(in.Run().ok());
  EXPECT_EQ(v[10], 20);
  EXPECT_EQ(v[11], -22);
}

TEST(InterpreterTest, HypotPipelineMatchesStdSqrt) {
  const int64_t kN = 3000;
  Program p = Checked(dsl::MakeHypotPipeline());
  std::vector<double> a(kN), b(kN), out(kN);
  for (int i = 0; i < kN; ++i) {
    a[i] = i * 0.25;
    b[i] = (kN - i) * 0.5;
  }
  Interpreter in(&p);
  ASSERT_TRUE(
      in.BindData("a", DataBinding::Raw(TypeId::kF64, a.data(), kN)).ok());
  ASSERT_TRUE(
      in.BindData("b", DataBinding::Raw(TypeId::kF64, b.data(), kN)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kF64, out.data(), kN, true))
          .ok());
  ASSERT_TRUE(in.Run().ok());
  for (int i = 0; i < kN; ++i) {
    ASSERT_NEAR(out[i], std::sqrt(a[i] * a[i] + b[i] * b[i]), 1e-9);
  }
}

TEST(InterpreterTest, SumPipeline) {
  const int64_t kN = 5000;
  Program p = Checked(dsl::MakeSumPipeline(TypeId::kI64));
  std::vector<int64_t> data(kN);
  int64_t expect = 0;
  for (int i = 0; i < kN; ++i) {
    data[i] = i * 3 - 1000;
    expect += data[i];
  }
  int64_t out[1] = {0};
  Interpreter in(&p);
  ASSERT_TRUE(
      in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(), kN)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out, 1, true)).ok());
  ASSERT_TRUE(in.Run().ok());
  EXPECT_EQ(out[0], expect);
}

TEST(InterpreterTest, ReadsFromCompressedColumn) {
  const uint32_t kN = 10000;
  Column col(TypeId::kI64, 2048);
  std::vector<int64_t> data(kN);
  for (uint32_t i = 0; i < kN; ++i) data[i] = 100 + (i % 50);
  ASSERT_TRUE(col.AppendValues(data.data(), kN).ok());
  ASSERT_GT(col.CompressionRatio(), 1.5);

  Program p = Checked(dsl::MakeMapPipeline(
      TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") + dsl::ConstI(1))));
  std::vector<int64_t> out(kN);
  Interpreter in(&p);
  ASSERT_TRUE(in.BindData("src", DataBinding::FromColumn(&col)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(), kN, true))
          .ok());
  ASSERT_TRUE(in.Run().ok());
  for (uint32_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], data[i] + 1);
  EXPECT_NE(in.LastSchemeOf("src"), Scheme::kPlain);
}

TEST(InterpreterTest, LenOfDataArrayIsItsBoundRows) {
  // len of a data array reads the rows bound to it, whatever backs them.
  Program p = ParseChecked("data src : i64\nmut n\nn := len(src)\n");
  auto len_of = [&](DataBinding b) -> Result<int64_t> {
    Interpreter in(&p);
    AVM_RETURN_NOT_OK(in.BindData("src", b));
    AVM_RETURN_NOT_OK(in.Run());
    AVM_ASSIGN_OR_RETURN(ScalarValue n, in.GetScalar("n"));
    return n.AsI64();
  };
  std::vector<int64_t> raw(777, 1);
  EXPECT_EQ(len_of(DataBinding::Raw(TypeId::kI64, raw.data(), raw.size()))
                .ValueOrDie(),
            777);
  const uint32_t kRows = 10'000;
  std::vector<int64_t> values(kRows);
  for (uint32_t i = 0; i < kRows; ++i) values[i] = 3 * i - 5'000;
  Column col(TypeId::kI64, 2048);
  ASSERT_TRUE(col.AppendValues(values.data(), kRows).ok());
  EXPECT_EQ(len_of(DataBinding::FromColumn(&col)).ValueOrDie(), kRows);
  const DataBinding slice = DataBinding::ColumnSlice(&col, 1'000, 3'000);
  EXPECT_EQ(len_of(slice).ValueOrDie(), 3'000);

  // A loop bounded by len(src) runs over exactly the slice's rows: a
  // 3,000-row output takes them all, and one row past it would fail.
  Program map = Checked(dsl::MakeMapPipeline(
      TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") + dsl::ConstI(1))));
  std::vector<int64_t> out(3'000);
  Interpreter in(&map);
  ASSERT_TRUE(in.BindData("src", slice).ok());
  ASSERT_TRUE(in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(),
                                                  out.size(), true))
                  .ok());
  ASSERT_TRUE(in.Run().ok());
  for (uint32_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], values[1'000 + i] + 1) << "row " << i;
  }

  Interpreter unbound(&p);
  const Status st = unbound.Run();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("unbound data array src"), std::string::npos)
      << st.ToString();
}

TEST(InterpreterTest, GenAndScatter) {
  Program p = ParseChecked(R"(
data acc : i64 writable
let idx = gen (\j -> j % 4) 16 in
let vals = gen (\j -> j) 16 in
scatter acc idx vals (\o n -> o + n)
)");
  int64_t acc[4] = {0, 0, 0, 0};
  Interpreter in(&p);
  ASSERT_TRUE(
      in.BindData("acc", DataBinding::Raw(TypeId::kI64, acc, 4, true)).ok());
  Status st = in.Run();
  ASSERT_TRUE(st.ok()) << st.ToString();
  // j sums by j%4: group g gets g + g+4 + g+8 + g+12 = 4g + 24.
  for (int g = 0; g < 4; ++g) EXPECT_EQ(acc[g], 4 * g + 24);
}

TEST(InterpreterTest, GatherFromDataArray) {
  Program p = ParseChecked(R"(
data base : f64
data out : f64 writable
let idx = gen (\j -> 9 - j) 10 in
let g = gather base idx in
write out 0 g
)");
  std::vector<double> base(10), out(10);
  for (int i = 0; i < 10; ++i) base[i] = i * 1.5;
  Interpreter in(&p);
  ASSERT_TRUE(
      in.BindData("base", DataBinding::Raw(TypeId::kF64, base.data(), 10))
          .ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kF64, out.data(), 10, true))
          .ok());
  ASSERT_TRUE(in.Run().ok());
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(out[i], base[9 - i]);
}

TEST(InterpreterTest, MergeJoinUnionDiff) {
  Program p = ParseChecked(R"(
data out : i64 writable
let a = gen (\j -> j * 2) 5 in
let b = gen (\j -> j * 3) 5 in
let m = merge_join a b in
write out 0 m
)");
  int64_t out[10] = {0};
  Interpreter in(&p);
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out, 10, true)).ok());
  ASSERT_TRUE(in.Run().ok());
  // a = {0,2,4,6,8}, b = {0,3,6,9,12}; intersection {0, 6}.
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 6);
}

TEST(InterpreterTest, FoldGeneralLambdaFallback) {
  // Non-single-op reduction exercises the scalar fold fallback.
  Program p = ParseChecked(R"(
data out : i64 writable
let v = gen (\j -> j + 1) 5 in
let s = fold (\acc x -> acc * 2 + x) 0 v in
let r = gen (\j -> s) 1 in
write out 0 r
)");
  int64_t out[1] = {0};
  Interpreter in(&p);
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out, 1, true)).ok());
  ASSERT_TRUE(in.Run().ok());
  // ((((0*2+1)*2+2)*2+3)*2+4)*2+5 = 57
  EXPECT_EQ(out[0], 57);
}

TEST(InterpreterTest, CaptureInLambda) {
  Program p = ParseChecked(R"(
data d : i64
data out : i64 writable
mut i
mut scale
i := 0
scale := 7
let v = read i d in
let m = map (\x -> x * scale) v in
write out 0 m
)");
  std::vector<int64_t> d(100), out(100);
  for (int i = 0; i < 100; ++i) d[i] = i;
  Interpreter in(&p);
  ASSERT_TRUE(
      in.BindData("d", DataBinding::Raw(TypeId::kI64, d.data(), 100)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(), 100, true))
          .ok());
  ASSERT_TRUE(in.Run().ok());
  EXPECT_EQ(out[42], 42 * 7);
}

class FilterFlavorTest : public ::testing::TestWithParam<FilterFlavor> {};

TEST_P(FilterFlavorTest, AllFlavorsProduceSameSelection) {
  const int64_t kN = 8192;
  Program p = Checked(dsl::MakeFilterPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Call(dsl::ScalarOp::kLt,
                                   {dsl::Var("x"), dsl::ConstI(30)}))));
  std::vector<int64_t> data(kN), out(kN, -1);
  for (int i = 0; i < kN; ++i) data[i] = i % 100;
  InterpreterOptions opts;
  opts.filter_flavor = GetParam();
  Interpreter in(&p, opts);
  ASSERT_TRUE(
      in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(), kN)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(), kN, true))
          .ok());
  ASSERT_TRUE(in.Run().ok());
  // 30 of each 100 qualify.
  int64_t expect = 0;
  for (int i = 0; i < kN; ++i) expect += (i % 100) < 30 ? 1 : 0;
  auto k = in.GetScalar("k");
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(k.value().AsI64(), expect);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(out[30], 0);  // second input block's first survivor
}

INSTANTIATE_TEST_SUITE_P(Flavors, FilterFlavorTest,
                         ::testing::Values(FilterFlavor::kBranchless,
                                           FilterFlavor::kBranching,
                                           FilterFlavor::kFullCompute,
                                           FilterFlavor::kAdaptive));

TEST(InterpreterTest, ProfilerCollectsPerOpStats) {
  const int64_t kN = 4096;
  Program p = Checked(dsl::MakeFigure2Program());
  std::vector<int64_t> data(kN, 5), v(kN), w(kN);
  Interpreter in(&p);
  ASSERT_TRUE(in.BindData("some_data",
                          DataBinding::Raw(TypeId::kI64, data.data(), kN))
                  .ok());
  ASSERT_TRUE(
      in.BindData("v", DataBinding::Raw(TypeId::kI64, v.data(), kN, true))
          .ok());
  ASSERT_TRUE(
      in.BindData("w", DataBinding::Raw(TypeId::kI64, w.data(), kN, true))
          .ok());
  ASSERT_TRUE(in.Run().ok());
  const Profiler& prof = in.profiler();
  EXPECT_GE(prof.stats().size(), 5u);  // read/map/filter/condense/writes
  uint64_t total_tuples = 0;
  bool saw_filter_selectivity = false;
  for (const auto& [id, s] : prof.stats()) {
    total_tuples += s.tuples;
    if (s.label == "filter") {
      saw_filter_selectivity = true;
      EXPECT_DOUBLE_EQ(s.Selectivity(), 1.0);  // all 5s doubled are positive
    }
  }
  EXPECT_GT(total_tuples, 0u);
  EXPECT_TRUE(saw_filter_selectivity);
  EXPECT_FALSE(prof.ToString().empty());
  EXPECT_FALSE(prof.HotNodes().empty());
}

TEST(InterpreterTest, InjectionReplacesStatements) {
  // Hand-inject a "compiled" trace that computes a = 3*x instead of 2*x;
  // the interpreter must use it and skip the covered statement.
  const int64_t kN = 1024;
  Program p = Checked(dsl::MakeFigure2Program());
  std::vector<int64_t> data(kN, 1), v(kN), w(kN);
  Interpreter in(&p);
  ASSERT_TRUE(in.BindData("some_data",
                          DataBinding::Raw(TypeId::kI64, data.data(), kN))
                  .ok());
  ASSERT_TRUE(
      in.BindData("v", DataBinding::Raw(TypeId::kI64, v.data(), kN, true))
          .ok());
  ASSERT_TRUE(
      in.BindData("w", DataBinding::Raw(TypeId::kI64, w.data(), kN, true))
          .ok());

  // Find the `let a = map ...` statement inside the loop.
  const dsl::Stmt* loop = nullptr;
  for (const auto& s : p.stmts) {
    if (s->kind == dsl::StmtKind::kLoop) loop = s.get();
  }
  ASSERT_NE(loop, nullptr);
  const dsl::Stmt* let_a = loop->body[1].get();
  ASSERT_EQ(let_a->var, "a");

  InjectedTrace tr;
  tr.name = "fake";
  tr.anchor_stmt_id = let_a->id;
  tr.covered_stmt_ids = {let_a->id};
  tr.run = [](Interpreter& it) -> Status {
    AVM_ASSIGN_OR_RETURN(Value input, it.GetVar("input"));
    ArrayPtr out = it.NewArray(TypeId::kI64);
    const int64_t* src = input.array->vec.Data<int64_t>();
    int64_t* dst = out->vec.Data<int64_t>();
    for (uint32_t i = 0; i < input.array->len; ++i) dst[i] = 3 * src[i];
    out->len = input.array->len;
    it.SetVar("a", Value::A(out));
    return Status::OK();
  };
  in.AddInjection(std::move(tr));
  ASSERT_TRUE(in.Run().ok());
  EXPECT_EQ(v[0], 3);  // injected 3*x, not 2*x
  EXPECT_EQ(in.injections()[0].invocations, kN / in.chunk_size());
}

TEST(InterpreterTest, InjectionFallbackWhenNotApplicable) {
  const int64_t kN = 1024;
  Program p = Checked(dsl::MakeFigure2Program());
  std::vector<int64_t> data(kN, 1), v(kN), w(kN);
  Interpreter in(&p);
  ASSERT_TRUE(in.BindData("some_data",
                          DataBinding::Raw(TypeId::kI64, data.data(), kN))
                  .ok());
  ASSERT_TRUE(
      in.BindData("v", DataBinding::Raw(TypeId::kI64, v.data(), kN, true))
          .ok());
  ASSERT_TRUE(
      in.BindData("w", DataBinding::Raw(TypeId::kI64, w.data(), kN, true))
          .ok());
  const dsl::Stmt* loop = nullptr;
  for (const auto& s : p.stmts) {
    if (s->kind == dsl::StmtKind::kLoop) loop = s.get();
  }
  InjectedTrace tr;
  tr.name = "never-applicable";
  tr.anchor_stmt_id = loop->body[1]->id;
  tr.covered_stmt_ids = {loop->body[1]->id};
  tr.run = [](Interpreter&) { return Status::Unavailable("never applies"); };
  in.AddInjection(std::move(tr));
  ASSERT_TRUE(in.Run().ok());
  EXPECT_EQ(v[0], 2);  // interpreted path
  EXPECT_EQ(in.injections()[0].invocations, 0u);
  EXPECT_GT(in.injections()[0].fallbacks, 0u);
}

TEST(InterpreterErrorTest, UnboundDataRejected) {
  Program p = Checked(dsl::MakeFigure2Program());
  Interpreter in(&p);
  EXPECT_TRUE(in.Run().IsInvalidArgument());
}

TEST(InterpreterErrorTest, TypeMismatchedBindingRejected) {
  Program p = Checked(dsl::MakeFigure2Program());
  std::vector<int32_t> wrong(64);
  Interpreter in(&p);
  EXPECT_TRUE(in.BindData("some_data",
                          DataBinding::Raw(TypeId::kI32, wrong.data(), 64))
                  .IsTypeError());
}

TEST(InterpreterErrorTest, WritePastEndRejected) {
  Program p = ParseChecked(R"(
data out : i64 writable
let g = gen (\j -> j) 10 in
write out 5 g
)");
  int64_t out[8];
  Interpreter in(&p);
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out, 8, true)).ok());
  EXPECT_TRUE(in.Run().IsOutOfRange());
}

TEST(InterpreterErrorTest, ScatterBoundsChecked) {
  Program p = ParseChecked(R"(
data acc : i64 writable
let idx = gen (\j -> j + 100) 4 in
let vals = gen (\j -> j) 4 in
scatter acc idx vals (\o n -> o + n)
)");
  int64_t acc[4] = {0};
  Interpreter in(&p);
  ASSERT_TRUE(
      in.BindData("acc", DataBinding::Raw(TypeId::kI64, acc, 4, true)).ok());
  EXPECT_TRUE(in.Run().IsOutOfRange());
}

TEST(InterpreterTest, PartialTailChunk) {
  // Data length not divisible by the chunk size: the final short chunk must
  // process correctly.
  const int64_t kN = 2500;  // 2 full chunks + 452
  Program p = Checked(dsl::MakeMapPipeline(
      TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(5))));
  std::vector<int64_t> data(kN), out(kN);
  for (int i = 0; i < kN; ++i) data[i] = i;
  Interpreter in(&p);
  ASSERT_TRUE(
      in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(), kN)).ok());
  ASSERT_TRUE(
      in.BindData("out", DataBinding::Raw(TypeId::kI64, out.data(), kN, true))
          .ok());
  ASSERT_TRUE(in.Run().ok());
  EXPECT_EQ(out[kN - 1], (kN - 1) * 5);
  EXPECT_EQ(in.loop_iterations(), 3u);
}

}  // namespace
}  // namespace avm::interp
