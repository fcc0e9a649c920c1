// Abstract syntax of the paper's DSL (Section II).
//
// The language combines data-parallel skeletons (Table I) with expressions,
// control flow (infinite loop, break, if-then-else), mutable variables and
// immutable `let` bindings — enough to express vectorized pipelines such as
// the Fig. 2 example, and to be rewritten between execution strategies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/types.h"

namespace avm::dsl {

// ---------------------------------------------------------------------------
// Scalar builtins usable inside lambdas and scalar expressions.
// ---------------------------------------------------------------------------
enum class ScalarOp : uint8_t {
  // binary arithmetic
  kAdd, kSub, kMul, kDiv, kMod, kMin, kMax,
  // binary comparison (produce bool)
  kEq, kNe, kLt, kLe, kGt, kGe,
  // binary logic
  kAnd, kOr,
  // unary
  kNot, kNeg, kAbs, kSqrt,
  // unary with type parameter
  kCast,
  // hashing (unary) — used by hash join/aggregation pipelines
  kHash,
};

const char* ScalarOpName(ScalarOp op);
int ScalarOpArity(ScalarOp op);
bool ScalarOpIsComparison(ScalarOp op);

// ---------------------------------------------------------------------------
// Data-parallel skeletons (Table I).
// ---------------------------------------------------------------------------
enum class SkeletonKind : uint8_t {
  kMap,       ///< element-wise f over vectors
  kFilter,    ///< predicate -> selection vector (no physical change)
  kFold,      ///< reduce vector with init + reduction fn
  kRead,      ///< consecutive read from position i of a bound data array
  kWrite,     ///< consecutive write of vector v at location i
  kGather,    ///< read from positions ~i
  kScatter,   ///< write to positions ~i, with conflict-handling fn
  kGen,       ///< fill array with f(index)
  kCondense,  ///< materialize selection away
  kExpand,    ///< fan out: counts[i] copies per selected row (offsets, or a
              ///< second argument's values replicated) — hash-join probe
  kMerge,     ///< abstract merge (join/union/diff of sorted inputs)
  kLen,       ///< scalar length of a vector, or the rows bound to a data
              ///< array (flow control helper, Fig. 2)
};

const char* SkeletonName(SkeletonKind k);

/// Variants of the abstract `merge` skeleton.
enum class MergeKind : uint8_t { kJoin, kUnion, kDiff };

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------
struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

enum class ExprKind : uint8_t {
  kConst,     ///< integer or floating literal
  kVarRef,    ///< reference to let-bound / mutable / bound-data variable
  kScalarCall,///< builtin scalar function application
  kLambda,    ///< \x y -> body (only as skeleton argument)
  kSkeleton,  ///< data-parallel skeleton application
};

/// Shape of a value: a scalar, or a (chunk-sized) array. "Scalar values can
/// be seen as arrays with length 1" — we still track the distinction to pick
/// kernels.
enum class Shape : uint8_t { kUnknown = 0, kScalar, kArray };

struct Expr {
  ExprKind kind;
  uint32_t id = 0;  ///< unique within a Program; profiling/trace anchor

  // kConst
  int64_t const_i = 0;
  double const_f = 0;
  bool const_is_float = false;

  // kVarRef
  std::string var;

  // kScalarCall
  ScalarOp op = ScalarOp::kAdd;
  TypeId cast_to = TypeId::kI64;  ///< only for kCast

  // kLambda
  std::vector<std::string> params;
  ExprPtr body;

  // kSkeleton
  SkeletonKind skeleton = SkeletonKind::kMap;
  MergeKind merge_kind = MergeKind::kJoin;

  // kScalarCall/kSkeleton operands
  std::vector<ExprPtr> args;

  // Filled by the type checker.
  Shape shape = Shape::kUnknown;
  TypeId type = TypeId::kI64;
};

ExprPtr ConstI(int64_t v);
ExprPtr ConstF(double v);
ExprPtr Var(const std::string& name);
ExprPtr Call(ScalarOp op, std::vector<ExprPtr> args);
ExprPtr Cast(TypeId to, ExprPtr arg);
ExprPtr Lambda(std::vector<std::string> params, ExprPtr body);
ExprPtr Skeleton(SkeletonKind k, std::vector<ExprPtr> args);
ExprPtr Merge(MergeKind mk, std::vector<ExprPtr> args);

// Convenience infix builders.
inline ExprPtr operator+(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kAdd, {a, b}); }
inline ExprPtr operator-(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kSub, {a, b}); }
inline ExprPtr operator*(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kMul, {a, b}); }
inline ExprPtr operator/(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kDiv, {a, b}); }
inline ExprPtr operator<(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kLt, {a, b}); }
inline ExprPtr operator<=(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kLe, {a, b}); }
inline ExprPtr operator>(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kGt, {a, b}); }
inline ExprPtr operator>=(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kGe, {a, b}); }
// Equality and boolean combination stay NAMED on purpose: overloading
// ==/!=/&&/|| on a shared_ptr alias would hijack pointer comparisons and
// null-checks (`if (a && b)`) into silently-true AST construction. The
// relational operators above accept the same hazard for pointer *ordering*
// (rare in practice) in exchange for readable predicates — never compare
// two ExprPtrs with </<=/>/>= expecting pointer order; use .get().
inline ExprPtr Eq(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kEq, {a, b}); }
inline ExprPtr Ne(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kNe, {a, b}); }
inline ExprPtr And(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kAnd, {a, b}); }
inline ExprPtr Or(ExprPtr a, ExprPtr b) { return Call(ScalarOp::kOr, {a, b}); }

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------
struct Stmt;
using StmtPtr = std::shared_ptr<Stmt>;

enum class StmtKind : uint8_t {
  kMutDef,   ///< mut x        — define a mutable scalar variable
  kAssign,   ///< x := e       — update a mutable variable
  kLet,      ///< let x = e    — immutable binding for the rest of the block
  kLoop,     ///< loop <block> — infinite loop
  kBreak,    ///< break
  kIf,       ///< if e then <block> [else <block>]
  kExpr,     ///< expression for effect (write/scatter)
};

struct Stmt {
  StmtKind kind;
  uint32_t id = 0;

  std::string var;                // kMutDef / kAssign / kLet
  ExprPtr expr;                   // kAssign / kLet / kIf cond / kExpr
  std::vector<StmtPtr> body;      // kLoop / kIf then
  std::vector<StmtPtr> else_body; // kIf else
};

StmtPtr MutDef(const std::string& name);
StmtPtr Assign(const std::string& name, ExprPtr e);
StmtPtr Let(const std::string& name, ExprPtr e);
StmtPtr Loop(std::vector<StmtPtr> body);
StmtPtr Break();
StmtPtr If(ExprPtr cond, std::vector<StmtPtr> then_body,
           std::vector<StmtPtr> else_body = {});
StmtPtr ExprStmt(ExprPtr e);

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

/// Declaration of an external array the program reads or writes
/// ("some_data", "v", "w" in Fig. 2). The host binds storage at run time.
struct DataDecl {
  std::string name;
  TypeId type = TypeId::kI64;
  bool writable = false;
};

struct Program {
  std::vector<DataDecl> data;
  std::vector<StmtPtr> stmts;

  /// Assign fresh ids to every node (pre-order); returns node count.
  uint32_t AssignIds();

  DataDecl* FindData(const std::string& name);
  const DataDecl* FindData(const std::string& name) const;
};

/// Deep structural equality (ignores ids and type annotations).
bool ExprEquals(const Expr& a, const Expr& b);
bool StmtEquals(const Stmt& a, const Stmt& b);
bool ProgramEquals(const Program& a, const Program& b);

/// Visit every expression in the program (pre-order).
void VisitExprs(const Program& p, const std::function<void(const ExprPtr&)>& fn);
void VisitStmts(const Program& p, const std::function<void(const StmtPtr&)>& fn);

}  // namespace avm::dsl
