#include "dsl/parser.h"

#include <gtest/gtest.h>

#include "dsl/builder.h"
#include "dsl/printer.h"
#include "dsl/typecheck.h"

namespace avm::dsl {
namespace {

// The paper's Figure 2, in the surface syntax (plus the data declarations
// the figure implies).
constexpr const char* kFigure2 = R"(
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
  if i >= len(some_data) then
    break
)";

TEST(ParserTest, Figure2ParsesToBuilderProgram) {
  auto parsed = ParseProgram(kFigure2);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program built = MakeFigure2Program();
  EXPECT_TRUE(ProgramEquals(parsed.value(), built))
      << "parsed:\n"
      << PrintProgram(parsed.value()) << "\nbuilt:\n" << PrintProgram(built);
}

TEST(ParserTest, Figure2TypeChecks) {
  auto parsed = ParseProgram(kFigure2);
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  EXPECT_TRUE(TypeCheck(&p).ok());
}

TEST(ParserTest, PrintParseRoundTrip) {
  for (Program original :
       {MakeFigure2Program(), MakeHypotPipeline(),
        MakeSumPipeline(TypeId::kI64),
        MakeFilterPipeline(TypeId::kI32,
                           Lambda({"x"}, Call(ScalarOp::kLt,
                                              {Var("x"), ConstI(7)})))}) {
    std::string text = PrintProgram(original);
    auto reparsed = ParseProgram(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
    EXPECT_TRUE(ProgramEquals(original, reparsed.value())) << text;
  }
}

TEST(ParserTest, ExpressionPrecedence) {
  auto e = ParseExpr("1 + 2 * 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->op, ScalarOp::kAdd);
  EXPECT_EQ(e.value()->args[1]->op, ScalarOp::kMul);

  auto cmp = ParseExpr("a + 1 >= b * 2");
  ASSERT_TRUE(cmp.ok());
  EXPECT_EQ(cmp.value()->op, ScalarOp::kGe);
}

TEST(ParserTest, AndOrPrecedence) {
  auto e = ParseExpr("a < 1 or b < 2 and c < 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->op, ScalarOp::kOr);
  EXPECT_EQ(e.value()->args[1]->op, ScalarOp::kAnd);
}

TEST(ParserTest, LambdaMultiParam) {
  auto e = ParseExpr(R"(map (\a b -> sqrt (a*a + b*b)) xs ys)");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e.value()->skeleton, SkeletonKind::kMap);
  EXPECT_EQ(e.value()->args[0]->params.size(), 2u);
  EXPECT_EQ(e.value()->args[0]->body->op, ScalarOp::kSqrt);
}

TEST(ParserTest, CastSyntax) {
  auto e = ParseExpr("cast_i16 x");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->op, ScalarOp::kCast);
  EXPECT_EQ(e.value()->cast_to, TypeId::kI16);
}

TEST(ParserTest, MergeVariants) {
  auto e = ParseExpr("merge_union a b");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->merge_kind, MergeKind::kUnion);
  EXPECT_EQ(ParseExpr("merge_join a b").value()->merge_kind, MergeKind::kJoin);
  EXPECT_EQ(ParseExpr("merge_diff a b").value()->merge_kind, MergeKind::kDiff);
}

TEST(ParserTest, ParenthesizedCallSyntax) {
  auto e = ParseExpr("len(a)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->skeleton, SkeletonKind::kLen);
  auto f = ParseExpr("min(a, b)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value()->op, ScalarOp::kMin);
}

TEST(ParserTest, NegativeLiterals) {
  auto e = ParseExpr("-5");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->const_i, -5);
  auto f = ParseExpr("-2.5");
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f.value()->const_f, -2.5);
}

TEST(ParserTest, FloatLiterals) {
  auto e = ParseExpr("1.5e3");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.value()->const_is_float);
  EXPECT_DOUBLE_EQ(e.value()->const_f, 1500.0);
}

TEST(ParserTest, CommentsAndBlankLinesIgnored) {
  auto p = ParseProgram(R"(
# a comment
data d : i32   # trailing comment

mut i

i := 0   # set it
)");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p.value().stmts.size(), 2u);
}

TEST(ParserTest, ElseBranch) {
  auto p = ParseProgram(R"(
mut i
i := 0
loop
  if i >= 10 then
    break
  else
    i := i + 1
)");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const Stmt& loop = *p.value().stmts[2];
  ASSERT_EQ(loop.body.size(), 1u);
  EXPECT_EQ(loop.body[0]->kind, StmtKind::kIf);
  EXPECT_EQ(loop.body[0]->else_body.size(), 1u);
}

TEST(ParserErrorTest, InconsistentIndentation) {
  auto p = ParseProgram("loop\n    break\n  break\n");
  EXPECT_FALSE(p.ok());
}

TEST(ParserErrorTest, UnknownCharacter) {
  EXPECT_FALSE(ParseProgram("i := 1 @ 2\n").ok());
}

TEST(ParserErrorTest, MissingThen) {
  EXPECT_FALSE(ParseProgram("mut i\nif i > 0\n  break\n").ok());
}

TEST(ParserErrorTest, LambdaWithoutArrow) {
  EXPECT_FALSE(ParseExpr(R"(map (\x 2*x) v)").ok());
}

TEST(ParserErrorTest, BadDataDecl) {
  EXPECT_FALSE(ParseProgram("data x : notatype\n").ok());
  EXPECT_FALSE(ParseProgram("data : i64\n").ok());
}

TEST(ParserErrorTest, ErrorsCarryLineNumbers) {
  auto p = ParseProgram("mut i\ni := @\n");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("line 2"), std::string::npos);
}

}  // namespace
}  // namespace avm::dsl
