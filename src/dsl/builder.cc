#include "dsl/builder.h"

namespace avm::dsl {

namespace {
/// `if i >= len(<data>) then break`.
StmtPtr BreakAtEndOf(const std::string& data) {
  return If(Var("i") >= Skeleton(SkeletonKind::kLen, {Var(data)}), {Break()});
}
}  // namespace

Program MakeFigure2Program() {
  Program p;
  p.data = {{"some_data", TypeId::kI64, false},
            {"v", TypeId::kI64, true},
            {"w", TypeId::kI64, true}};

  auto read = Skeleton(SkeletonKind::kRead, {Var("i"), Var("some_data")});
  auto dbl = Skeleton(SkeletonKind::kMap,
                      {Lambda({"x"}, ConstI(2) * Var("x")), Var("input")});
  auto pos = Skeleton(
      SkeletonKind::kFilter,
      {Lambda({"x"}, Call(ScalarOp::kGt, {Var("x"), ConstI(0)})), Var("a")});
  auto cond = Skeleton(SkeletonKind::kCondense, {Var("t")});

  std::vector<StmtPtr> body;
  body.push_back(Let("input", read));
  body.push_back(Let("a", dbl));
  body.push_back(Let("t", pos));
  body.push_back(Let("b", cond));
  body.push_back(ExprStmt(
      Skeleton(SkeletonKind::kWrite, {Var("v"), Var("i"), Var("a")})));
  body.push_back(ExprStmt(
      Skeleton(SkeletonKind::kWrite, {Var("w"), Var("k"), Var("b")})));
  body.push_back(Assign(
      "i", Var("i") + Skeleton(SkeletonKind::kLen, {Var("a")})));
  body.push_back(Assign(
      "k", Var("k") + Skeleton(SkeletonKind::kLen, {Var("b")})));
  body.push_back(BreakAtEndOf("some_data"));

  p.stmts = {MutDef("i"), MutDef("k"), Assign("i", ConstI(0)),
             Assign("k", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  return p;
}

Program MakeMapPipeline(TypeId type, ExprPtr lambda) {
  Program p;
  p.data = {{"src", type, false}, {"out", type, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("input",
                     Skeleton(SkeletonKind::kRead, {Var("i"), Var("src")})));
  body.push_back(Let("mapped", Skeleton(SkeletonKind::kMap,
                                        {std::move(lambda), Var("input")})));
  body.push_back(ExprStmt(
      Skeleton(SkeletonKind::kWrite, {Var("out"), Var("i"), Var("mapped")})));
  body.push_back(
      Assign("i", Var("i") + Skeleton(SkeletonKind::kLen, {Var("mapped")})));
  body.push_back(BreakAtEndOf("src"));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  return p;
}

Program MakeFilterPipeline(TypeId type, ExprPtr pred) {
  Program p;
  p.data = {{"src", type, false}, {"out", type, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("input",
                     Skeleton(SkeletonKind::kRead, {Var("i"), Var("src")})));
  body.push_back(Let("kept", Skeleton(SkeletonKind::kFilter,
                                      {std::move(pred), Var("input")})));
  body.push_back(Let("dense", Skeleton(SkeletonKind::kCondense, {Var("kept")})));
  body.push_back(ExprStmt(
      Skeleton(SkeletonKind::kWrite, {Var("out"), Var("k"), Var("dense")})));
  body.push_back(
      Assign("i", Var("i") + Skeleton(SkeletonKind::kLen, {Var("input")})));
  body.push_back(
      Assign("k", Var("k") + Skeleton(SkeletonKind::kLen, {Var("dense")})));
  body.push_back(BreakAtEndOf("src"));
  p.stmts = {MutDef("i"), MutDef("k"), Assign("i", ConstI(0)),
             Assign("k", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  return p;
}

Program MakeSumPipeline(TypeId type) {
  Program p;
  p.data = {{"src", type, false}, {"out", TypeId::kI64, true}};
  std::vector<StmtPtr> body;
  body.push_back(Let("input",
                     Skeleton(SkeletonKind::kRead, {Var("i"), Var("src")})));
  body.push_back(Let(
      "s", Skeleton(SkeletonKind::kFold,
                    {Lambda({"acc", "x"}, Var("acc") + Var("x")), ConstI(0),
                     Var("input")})));
  body.push_back(Assign("total", Var("total") + Var("s")));
  body.push_back(
      Assign("i", Var("i") + Skeleton(SkeletonKind::kLen, {Var("input")})));
  body.push_back(BreakAtEndOf("src"));
  std::vector<StmtPtr> tail;
  // Write the final total to out[0] via a 1-element generated array.
  tail.push_back(Let("result", Skeleton(SkeletonKind::kGen,
                                        {Lambda({"j"}, Var("total")),
                                         ConstI(1)})));
  tail.push_back(ExprStmt(Skeleton(SkeletonKind::kWrite,
                                   {Var("out"), ConstI(0), Var("result")})));
  p.stmts = {MutDef("i"),          MutDef("total"),
             Assign("i", ConstI(0)), Assign("total", ConstI(0)),
             Loop(std::move(body))};
  for (auto& s : tail) p.stmts.push_back(std::move(s));
  p.AssignIds();
  return p;
}

Program MakeHypotPipeline() {
  Program p;
  p.data = {{"a", TypeId::kF64, false},
            {"b", TypeId::kF64, false},
            {"out", TypeId::kF64, true}};
  // f(a, b) = sqrt(a*a + b*b) — the §III-A normalization example.
  auto lam = Lambda({"x", "y"},
                    Call(ScalarOp::kSqrt,
                         {Var("x") * Var("x") + Var("y") * Var("y")}));
  std::vector<StmtPtr> body;
  body.push_back(Let("va", Skeleton(SkeletonKind::kRead, {Var("i"), Var("a")})));
  body.push_back(Let("vb", Skeleton(SkeletonKind::kRead, {Var("i"), Var("b")})));
  body.push_back(Let("h", Skeleton(SkeletonKind::kMap,
                                   {std::move(lam), Var("va"), Var("vb")})));
  body.push_back(ExprStmt(
      Skeleton(SkeletonKind::kWrite, {Var("out"), Var("i"), Var("h")})));
  body.push_back(
      Assign("i", Var("i") + Skeleton(SkeletonKind::kLen, {Var("h")})));
  body.push_back(BreakAtEndOf("a"));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  return p;
}

}  // namespace avm::dsl
