#include "dsl/ast.h"

#include <gtest/gtest.h>

#include "dsl/builder.h"

namespace avm::dsl {
namespace {

TEST(AstTest, ConstBuilders) {
  auto i = ConstI(42);
  EXPECT_EQ(i->kind, ExprKind::kConst);
  EXPECT_EQ(i->const_i, 42);
  EXPECT_FALSE(i->const_is_float);
  auto f = ConstF(2.5);
  EXPECT_TRUE(f->const_is_float);
  EXPECT_DOUBLE_EQ(f->const_f, 2.5);
}

TEST(AstTest, InfixOperatorsBuildCalls) {
  auto e = ConstI(1) + Var("x") * ConstI(3);
  EXPECT_EQ(e->kind, ExprKind::kScalarCall);
  EXPECT_EQ(e->op, ScalarOp::kAdd);
  EXPECT_EQ(e->args[1]->op, ScalarOp::kMul);
}

TEST(AstTest, OpMetadata) {
  EXPECT_EQ(ScalarOpArity(ScalarOp::kSqrt), 1);
  EXPECT_EQ(ScalarOpArity(ScalarOp::kAdd), 2);
  EXPECT_TRUE(ScalarOpIsComparison(ScalarOp::kLe));
  EXPECT_FALSE(ScalarOpIsComparison(ScalarOp::kAdd));
  EXPECT_STREQ(ScalarOpName(ScalarOp::kHash), "hash");
  EXPECT_STREQ(SkeletonName(SkeletonKind::kCondense), "condense");
}

TEST(AstTest, AssignIdsIsDenseAndUnique) {
  Program p = MakeFigure2Program();
  std::set<uint32_t> ids;
  VisitStmts(p, [&](const StmtPtr& s) { ids.insert(s->id); });
  VisitExprs(p, [&](const ExprPtr& e) { ids.insert(e->id); });
  EXPECT_FALSE(ids.contains(0));  // ids start at 1
  // Uniqueness: count nodes == set size.
  size_t count = 0;
  VisitStmts(p, [&](const StmtPtr&) { ++count; });
  VisitExprs(p, [&](const ExprPtr&) { ++count; });
  EXPECT_EQ(ids.size(), count);
}

TEST(AstTest, StructuralEquality) {
  Program a = MakeFigure2Program();
  Program b = MakeFigure2Program();
  EXPECT_TRUE(ProgramEquals(a, b));
  // A Fig. 2 whose loop ends at a constant instead of len(some_data).
  Program c = MakeFigure2Program();
  c.stmts.back()->body.back()->expr->args[1] = ConstI(4096);
  EXPECT_FALSE(ProgramEquals(a, c));
}

TEST(AstTest, ExprEqualityDistinguishesOps) {
  auto x = Call(ScalarOp::kAdd, {Var("a"), Var("b")});
  auto y = Call(ScalarOp::kSub, {Var("a"), Var("b")});
  auto x2 = Call(ScalarOp::kAdd, {Var("a"), Var("b")});
  EXPECT_TRUE(ExprEquals(*x, *x2));
  EXPECT_FALSE(ExprEquals(*x, *y));
  EXPECT_FALSE(ExprEquals(*Cast(TypeId::kI16, Var("a")),
                          *Cast(TypeId::kI32, Var("a"))));
}

TEST(AstTest, FindData) {
  Program p = MakeFigure2Program();
  ASSERT_NE(p.FindData("some_data"), nullptr);
  EXPECT_EQ(p.FindData("some_data")->type, TypeId::kI64);
  EXPECT_FALSE(p.FindData("some_data")->writable);
  ASSERT_NE(p.FindData("v"), nullptr);
  EXPECT_TRUE(p.FindData("v")->writable);
  EXPECT_EQ(p.FindData("nope"), nullptr);
}

TEST(AstTest, MergeCarriesKind) {
  auto m = Merge(MergeKind::kUnion, {Var("a"), Var("b")});
  EXPECT_EQ(m->skeleton, SkeletonKind::kMerge);
  EXPECT_EQ(m->merge_kind, MergeKind::kUnion);
}

}  // namespace
}  // namespace avm::dsl
