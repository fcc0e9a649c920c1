#include "interp/interpreter.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "dsl/typecheck.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace avm::interp {

namespace {
/// Safety valve for the infinite `loop` construct.
constexpr uint64_t kMaxLoopIterations = uint64_t{1} << 32;

using dsl::Expr;
using dsl::ExprKind;
using dsl::ScalarOp;
using dsl::SkeletonKind;
using dsl::Stmt;
using dsl::StmtKind;
}  // namespace

Interpreter::Interpreter(const dsl::Program* program,
                         InterpreterOptions options)
    : program_(program),
      options_(options),
      kernels_(&KernelRegistry::ForTier(options.kernel_tier)) {
  prim_exec_.set_registry(kernels_);
}

Status Interpreter::BindData(const std::string& name, DataBinding binding) {
  const dsl::DataDecl* decl = program_->FindData(name);
  if (decl == nullptr) {
    return Status::NotFound("program declares no data array " + name);
  }
  if (decl->type != binding.type) {
    return Status::TypeError(StrFormat(
        "binding for %s has type %s, program declares %s", name.c_str(),
        TypeName(binding.type), TypeName(decl->type)));
  }
  if (decl->writable && !binding.writable) {
    return Status::InvalidArgument("program writes " + name +
                                   " but binding is read-only");
  }
  bindings_[name] = binding;
  // A rebind may point at different storage; drop any stale scan cursor.
  column_cursors_.erase(name);
  return Status::OK();
}

Status Interpreter::Run() {
  for (const auto& d : program_->data) {
    if (!bindings_.contains(d.name)) {
      return Status::InvalidArgument("unbound data array " + d.name);
    }
  }
  Control ctl = Control::kNext;
  return ExecBlock(program_->stmts, &ctl);
}

Result<Value> Interpreter::GetVar(const std::string& name) const {
  auto it = env_.find(name);
  if (it == env_.end()) {
    return Status::NotFound("undefined variable " + name);
  }
  return it->second;
}

void Interpreter::SetVar(const std::string& name, Value v) {
  env_[name] = std::move(v);
}

Result<ScalarValue> Interpreter::GetScalar(const std::string& name) const {
  AVM_ASSIGN_OR_RETURN(Value v, GetVar(name));
  if (!v.is_scalar()) {
    return Status::TypeError(name + " is not a scalar");
  }
  return v.scalar;
}

DataBinding* Interpreter::FindBinding(const std::string& name) {
  auto it = bindings_.find(name);
  return it == bindings_.end() ? nullptr : &it->second;
}

const DataBinding* Interpreter::FindBinding(const std::string& name) const {
  auto it = bindings_.find(name);
  return it == bindings_.end() ? nullptr : &it->second;
}

uint64_t Interpreter::chunks_streamed() const {
  uint64_t n = 0;
  for (const auto& [name, cursor] : column_cursors_) {
    n += cursor.blocks_read();
  }
  return n;
}

ArrayPtr Interpreter::NewArray(TypeId type, uint32_t capacity) {
  auto a = std::make_shared<ArrayValue>();
  a->vec.Reset(type, capacity == 0 ? options_.chunk_size : capacity);
  a->len = 0;
  return a;
}

Scheme Interpreter::LastSchemeOf(const std::string& name) const {
  auto it = last_scheme_.find(name);
  return it == last_scheme_.end() ? Scheme::kPlain : it->second;
}

std::vector<InjectedTrace> Interpreter::AddInjection(InjectedTrace trace) {
  auto overlaps = [&](const InjectedTrace& old) {
    if (old.covered_stmt_ids == trace.covered_stmt_ids) return false;
    for (uint32_t id : old.covered_stmt_ids) {
      if (trace.covered_stmt_ids.contains(id)) return true;
    }
    return false;
  };
  std::vector<InjectedTrace> removed;
  std::vector<InjectedTrace> kept;
  for (auto& old : injections_) {
    (overlaps(old) ? removed : kept).push_back(std::move(old));
  }
  kept.push_back(std::move(trace));
  injections_ = std::move(kept);
  return removed;
}

Result<const ir::PrimProgram*> Interpreter::PreparedLambda(
    const Expr& lambda, const std::vector<TypeId>& input_types) {
  auto it = lambda_cache_.find(lambda.id);
  if (it != lambda_cache_.end()) return &it->second;
  AVM_ASSIGN_OR_RETURN(ir::PrimProgram prog,
                       ir::Normalize(lambda, input_types));
  auto [ins, _] = lambda_cache_.emplace(lambda.id, std::move(prog));
  return &ins->second;
}

CaptureResolver Interpreter::MakeCaptureResolver() {
  return [this](const std::string& name) { return GetScalar(name); };
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Status Interpreter::ExecBlock(const std::vector<dsl::StmtPtr>& stmts,
                              Control* ctl) {
  // This execution's marks take stmts.size() bytes on top of skip_; the
  // stack keeps its capacity, so a block execution allocates nothing.
  const size_t base = skip_.size();
  skip_.resize(base + stmts.size(), 0);
  Status st = ExecStmts(stmts, base, ctl);
  skip_.resize(base);
  return st;
}

Status Interpreter::ExecStmts(const std::vector<dsl::StmtPtr>& stmts,
                              size_t base, Control* ctl) {
  for (size_t i = 0; i < stmts.size(); ++i) {
    if (skip_[base + i] != 0) continue;
    const dsl::Stmt& s = *stmts[i];
    // Injection: the first trace installed at this statement whose `run`
    // accepts the chunk replaces it (and the others it covers) for this
    // iteration. When all decline, the chunk is interpreted and counts one
    // fallback, on the first of them.
    bool injected = false;
    InjectedTrace* declined = nullptr;
    for (auto& tr : injections_) {
      if (tr.anchor_stmt_id != s.id) continue;
      Status st = tr.run(*this);
      if (st.IsUnavailable()) {
        if (declined == nullptr) declined = &tr;
        continue;
      }
      AVM_RETURN_NOT_OK(st);
      ++tr.invocations;
      // The statements after the anchor that the trace covers are done.
      for (size_t j = i + 1; j < stmts.size(); ++j) {
        if (tr.covered_stmt_ids.contains(stmts[j]->id)) skip_[base + j] = 1;
      }
      injected = true;
      break;
    }
    if (injected) continue;
    if (declined != nullptr) ++declined->fallbacks;
    AVM_RETURN_NOT_OK(ExecStmt(s, ctl));
    if (*ctl == Control::kBreak) return Status::OK();
  }
  return Status::OK();
}

Status Interpreter::ExecStmt(const Stmt& s, Control* ctl) {
  switch (s.kind) {
    case StmtKind::kMutDef:
      env_[s.var] = Value::S(ScalarValue::I(0));
      return Status::OK();
    case StmtKind::kAssign: {
      AVM_ASSIGN_OR_RETURN(ScalarValue v, EvalScalarExpr(*s.expr));
      env_[s.var] = Value::S(v);
      return Status::OK();
    }
    case StmtKind::kLet: {
      AVM_ASSIGN_OR_RETURN(Value v, EvalExpr(*s.expr));
      env_[s.var] = std::move(v);
      return Status::OK();
    }
    case StmtKind::kLoop: {
      for (uint64_t iter = 0; iter < kMaxLoopIterations; ++iter) {
        Control inner = Control::kNext;
        AVM_RETURN_NOT_OK(ExecBlock(s.body, &inner));
        ++loop_iterations_;
        if (iteration_hook) {
          AVM_RETURN_NOT_OK(iteration_hook(*this, loop_iterations_));
        }
        if (inner == Control::kBreak) return Status::OK();
      }
      return Status::RuntimeError("loop exceeded max iterations");
    }
    case StmtKind::kBreak:
      *ctl = Control::kBreak;
      return Status::OK();
    case StmtKind::kIf: {
      AVM_ASSIGN_OR_RETURN(ScalarValue c, EvalScalarExpr(*s.expr));
      AVM_RETURN_NOT_OK(ExecBlock(c.AsBool() ? s.body : s.else_body, ctl));
      return Status::OK();
    }
    case StmtKind::kExpr:
      return EvalExpr(*s.expr).status();
  }
  return Status::Internal("unhandled statement kind");
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Result<Value> Interpreter::EvalExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kConst:
      return Value::S(e.const_is_float
                          ? ScalarValue::F(e.const_f)
                          : ScalarValue::I(e.const_i));
    case ExprKind::kVarRef:
      return GetVar(e.var);
    case ExprKind::kScalarCall: {
      AVM_ASSIGN_OR_RETURN(ScalarValue v, EvalScalarExpr(e));
      return Value::S(v);
    }
    case ExprKind::kSkeleton: {
      if (!options_.enable_profiling) return EvalSkeleton(e);
      uint64_t t0 = ReadCycleCounter();
      Result<Value> r = EvalSkeleton(e);
      uint64_t dt = ReadCycleCounter() - t0;
      if (r.ok()) {
        uint64_t in_tuples = 0, out_tuples = 0;
        const Value& v = r.value();
        if (v.is_array()) {
          in_tuples = v.array->len;
          out_tuples = v.array->active_count();
        } else if (e.skeleton == SkeletonKind::kWrite ||
                   e.skeleton == SkeletonKind::kScatter) {
          in_tuples = out_tuples =
              static_cast<uint64_t>(std::max<int64_t>(0, v.scalar.AsI64()));
        }
        profiler_.Record(e.id, dsl::SkeletonName(e.skeleton), dt, in_tuples,
                         out_tuples);
      }
      return r;
    }
    case ExprKind::kLambda:
      return Status::TypeError("lambda cannot be evaluated as a value");
  }
  return Status::Internal("unhandled expression kind");
}

Result<ScalarValue> Interpreter::EvalScalarExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kConst:
      return e.const_is_float ? ScalarValue::F(e.const_f)
                              : ScalarValue::I(e.const_i);
    case ExprKind::kVarRef:
      return GetScalar(e.var);
    case ExprKind::kSkeleton: {
      AVM_ASSIGN_OR_RETURN(Value v, EvalExpr(e));
      if (!v.is_scalar()) {
        return Status::TypeError("expected scalar result");
      }
      return v.scalar;
    }
    case ExprKind::kScalarCall: {
      // Reuse the normalized-primitive scalar evaluator via a fake
      // single-instruction program would be overkill; evaluate recursively.
      std::vector<ScalarValue> args;
      args.reserve(e.args.size());
      for (const auto& a : e.args) {
        AVM_ASSIGN_OR_RETURN(ScalarValue v, EvalScalarExpr(*a));
        args.push_back(v);
      }
      ir::PrimInstr instr;
      instr.op = e.op;
      instr.num_args = static_cast<int>(e.args.size());
      instr.in_type = e.args[0]->type;
      if (instr.num_args == 2) {
        instr.in_type = dsl::PromoteTypes(e.args[0]->type, e.args[1]->type);
      }
      instr.out_type = e.op == ScalarOp::kCast ? e.cast_to : e.type;
      // Delegate to the PrimExecutor's scalar applier through RunScalar on a
      // one-instruction program.
      ir::PrimProgram prog;
      prog.input_types.clear();
      for (size_t i = 0; i < args.size(); ++i) {
        prog.input_types.push_back(args[i].type);
        instr.args[i] = ir::PrimArg::Input(static_cast<int>(i), args[i].type);
      }
      instr.out_reg = 0;
      prog.num_regs = 1;
      prog.result_reg = 0;
      prog.result_type = instr.out_type;
      prog.instrs.push_back(instr);
      return prim_exec_.RunScalar(prog, args, MakeCaptureResolver());
    }
    case ExprKind::kLambda:
      return Status::TypeError("lambda in scalar context");
  }
  return Status::Internal("unhandled scalar expression");
}

Result<Value> Interpreter::EvalSkeleton(const Expr& e) {
  switch (e.skeleton) {
    case SkeletonKind::kRead: return EvalRead(e);
    case SkeletonKind::kWrite: return EvalWrite(e);
    case SkeletonKind::kMap: return EvalMap(e);
    case SkeletonKind::kFilter: return EvalFilter(e);
    case SkeletonKind::kFold: return EvalFold(e);
    case SkeletonKind::kCondense: return EvalCondense(e);
    case SkeletonKind::kGather: return EvalGather(e);
    case SkeletonKind::kScatter: return EvalScatter(e);
    case SkeletonKind::kGen: return EvalGen(e);
    case SkeletonKind::kExpand: return EvalExpand(e);
    case SkeletonKind::kMerge: return EvalMerge(e);
    case SkeletonKind::kLen: {
      // len of a data array is the rows bound to it (a morsel's slice).
      const Expr& arg = *e.args[0];
      if (arg.kind == ExprKind::kVarRef && !env_.contains(arg.var)) {
        if (const DataBinding* b = FindBinding(arg.var)) {
          return Value::S(ScalarValue::I(static_cast<int64_t>(b->len)));
        }
      }
      AVM_ASSIGN_OR_RETURN(Value v, EvalExpr(arg));
      if (!v.is_array()) return Status::TypeError("len of non-array");
      return Value::S(ScalarValue::I(v.array->active_count()));
    }
  }
  return Status::Internal("unhandled skeleton");
}

Result<Value> Interpreter::EvalRead(const Expr& e) {
  AVM_ASSIGN_OR_RETURN(ScalarValue pos_v, EvalScalarExpr(*e.args[0]));
  const std::string& name = e.args[1]->var;
  DataBinding* b = FindBinding(name);
  if (b == nullptr) return Status::NotFound("unbound data array " + name);
  const uint64_t pos = static_cast<uint64_t>(std::max<int64_t>(0, pos_v.AsI64()));
  ArrayPtr out = NewArray(b->type);
  if (pos >= b->len) {
    out->len = 0;
    return Value::A(out);
  }
  const uint32_t take = static_cast<uint32_t>(
      std::min<uint64_t>(options_.chunk_size, b->len - pos));
  if (b->column != nullptr) {
    // Stream through the per-binding cursor, which decodes only this
    // chunk's rows (a Delta or RLE block once, for the reads it serves).
    ColumnChunkCursor& cursor = column_cursors_[name];
    if (cursor.column() != b->column) cursor = ColumnChunkCursor(b->column);
    Scheme s = Scheme::kPlain;
    AVM_RETURN_NOT_OK(
        cursor.ReadAt(b->col_offset + pos, take, out->vec.RawData(), &s));
    last_scheme_[name] = s;
  } else {
    const size_t w = TypeWidth(b->type);
    std::memcpy(out->vec.RawData(),
                static_cast<const uint8_t*>(b->raw) + pos * w,
                static_cast<size_t>(take) * w);
    last_scheme_[name] = Scheme::kPlain;
  }
  out->len = take;
  return Value::A(out);
}

Result<Value> Interpreter::EvalWrite(const Expr& e) {
  const std::string& name = e.args[0]->var;
  DataBinding* b = FindBinding(name);
  if (b == nullptr) return Status::NotFound("unbound data array " + name);
  if (!b->writable || b->raw == nullptr) {
    return Status::InvalidArgument("write to non-writable array " + name);
  }
  AVM_ASSIGN_OR_RETURN(ScalarValue pos_v, EvalScalarExpr(*e.args[1]));
  AVM_ASSIGN_OR_RETURN(Value vv, EvalExpr(*e.args[2]));
  if (!vv.is_array()) return Status::TypeError("write of non-array");
  const ArrayValue& a = *vv.array;
  const uint64_t pos = static_cast<uint64_t>(std::max<int64_t>(0, pos_v.AsI64()));
  const uint32_t count = a.active_count();
  if (pos + count > b->len) {
    return Status::OutOfRange(StrFormat(
        "write [%llu, %llu) past end of %s (%llu)", (unsigned long long)pos,
        (unsigned long long)(pos + count), name.c_str(),
        (unsigned long long)b->len));
  }
  const size_t w = TypeWidth(b->type);
  uint8_t* dst = static_cast<uint8_t*>(b->raw) + pos * w;
  if (a.has_sel()) {
    // Condense on the fly into the destination.
    kernels_->Condense(a.type())(a.vec.RawData(), nullptr, dst, a.sel.Data(),
                                 a.sel.count());
  } else {
    std::memcpy(dst, a.vec.RawData(), static_cast<size_t>(count) * w);
  }
  return Value::S(ScalarValue::I(count));
}

namespace {

// Shared selection context of a set of input arrays: arrays produced within
// one chunk iteration either carry no selection or the same selection.
struct SelContext {
  const sel_t* sel = nullptr;
  uint32_t sel_n = 0;
  uint32_t n = 0;
  const SelectionVector* sv = nullptr;
};

Result<SelContext> CommonSelection(const std::vector<Value>& args) {
  SelContext ctx;
  bool have_array = false;
  for (const auto& v : args) {
    if (!v.is_array()) continue;
    const ArrayValue& a = *v.array;
    if (!have_array) {
      have_array = true;
      ctx.n = a.len;
    } else if (a.len != ctx.n) {
      return Status::InvalidArgument(
          StrFormat("length mismatch between chunk arrays (%u vs %u)", ctx.n,
                    a.len));
    }
    if (a.has_sel()) {
      if (ctx.sel != nullptr && ctx.sel != a.sel.Data()) {
        // Distinct selections: require identical contents.
        if (ctx.sel_n != a.sel.count() ||
            std::memcmp(ctx.sel, a.sel.Data(),
                        sizeof(sel_t) * ctx.sel_n) != 0) {
          return Status::InvalidArgument(
              "arrays with different selections cannot be combined");
        }
        continue;
      }
      ctx.sel = a.sel.Data();
      ctx.sel_n = a.sel.count();
      ctx.sv = &a.sel;
    }
  }
  return ctx;
}

void CopySelection(const SelContext& ctx, ArrayValue* out) {
  if (ctx.sel == nullptr) return;
  out->sel.Reset(std::max(out->vec.capacity(), ctx.sel_n));
  std::memcpy(out->sel.Data(), ctx.sel, sizeof(sel_t) * ctx.sel_n);
  out->sel.set_count(ctx.sel_n);
  out->sel.set_enabled(true);
}

}  // namespace

Result<Value> Interpreter::EvalMap(const Expr& e) {
  std::vector<Value> inputs;
  std::vector<TypeId> input_types;
  inputs.reserve(e.args.size() - 1);
  for (size_t i = 1; i < e.args.size(); ++i) {
    AVM_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.args[i]));
    input_types.push_back(e.args[i]->type);
    inputs.push_back(std::move(v));
  }
  AVM_ASSIGN_OR_RETURN(const ir::PrimProgram* prog,
                       PreparedLambda(*e.args[0], input_types));
  AVM_ASSIGN_OR_RETURN(SelContext ctx, CommonSelection(inputs));
  if (ctx.n == 0 && !inputs.empty() && inputs[0].is_scalar()) {
    ctx.n = 1;  // all-scalar map yields a length-1 array
  }
  ArrayPtr out = NewArray(prog->result_type,
                          std::max(ctx.n, options_.chunk_size));
  AVM_RETURN_NOT_OK(prim_exec_.Run(*prog, inputs, ctx.sel, ctx.sel_n, ctx.n,
                                   &out->vec, MakeCaptureResolver()));
  out->len = ctx.n;
  CopySelection(ctx, out.get());
  return Value::A(out);
}

namespace {

// Adaptive-filter arm layout. Arms 0..2 mirror FilterFlavor on the
// interpreter's own tier; on a SIMD tier two extra arms run the scalar
// tier's filter kernels, letting the chooser discover call sites where
// scalar beats SIMD (e.g. branching scalar at near-zero selectivity).
constexpr size_t kArmFullCompute = 2;
constexpr size_t kFirstScalarArm = 3;
constexpr size_t kNumBaseArms = 3;
constexpr size_t kNumTieredArms = 5;

FilterFlavor ArmFlavor(size_t arm) {
  return arm < kFirstScalarArm
             ? static_cast<FilterFlavor>(arm)
             : static_cast<FilterFlavor>(arm - kFirstScalarArm);
}

}  // namespace

FilterFlavor Interpreter::PreferredFilterFlavor(uint32_t filter_expr_id) const {
  auto it = filter_choosers_.find(filter_expr_id);
  if (it == filter_choosers_.end()) return options_.filter_flavor;
  return ArmFlavor(it->second.Best());
}

KernelTier Interpreter::PreferredFilterTier(uint32_t filter_expr_id) const {
  auto it = filter_choosers_.find(filter_expr_id);
  if (it == filter_choosers_.end() || it->second.Best() < kFirstScalarArm) {
    return kernels_->tier();
  }
  return KernelTier::kScalar;
}

Result<Value> Interpreter::EvalFilter(const Expr& e) {
  AVM_ASSIGN_OR_RETURN(Value in_v, EvalExpr(*e.args[1]));
  if (!in_v.is_array()) return Status::TypeError("filter of non-array");
  const ArrayValue& in = *in_v.array;
  AVM_ASSIGN_OR_RETURN(const ir::PrimProgram* prog,
                       PreparedLambda(*e.args[0], {in.type()}));

  const KernelRegistry* reg = kernels_;
  auto out = std::make_shared<ArrayValue>();
  // Share the underlying data; attach a fresh selection.
  out->vec = Vector(in.type(), in.vec.capacity());
  std::memcpy(out->vec.RawData(), in.vec.RawData(),
              static_cast<size_t>(in.len) * TypeWidth(in.type()));
  out->len = in.len;
  out->sel.Reset(std::max(in.len, uint32_t{1}));

  const sel_t* in_sel = in.has_sel() ? in.sel.Data() : nullptr;
  const uint32_t in_n = in.has_sel() ? in.sel.count() : in.len;

  // Resolve the micro-adaptive flavor (one chooser per filter node). On a
  // SIMD tier the chooser also carries scalar-kernel arms so it can select
  // scalar-vs-SIMD per call site.
  FilterFlavor flavor = options_.filter_flavor;
  MicroAdaptiveChooser* chooser = nullptr;
  size_t arm = 0;
  if (flavor == FilterFlavor::kAdaptive) {
    const size_t num_arms = kernels_->tier() != KernelTier::kScalar
                                ? kNumTieredArms
                                : kNumBaseArms;
    auto [it, _] = filter_choosers_.try_emplace(e.id, num_arms);
    chooser = &it->second;
    arm = chooser->Choose();
    flavor = ArmFlavor(arm);
    if (arm >= kFirstScalarArm) {
      reg = &KernelRegistry::ForTier(KernelTier::kScalar);
    }
  }
  const uint64_t t0 = chooser != nullptr ? ReadCycleCounter() : 0;

  // Fast path: single-comparison predicates map straight onto a filter
  // kernel producing the selection vector.
  uint32_t count = 0;
  bool done = false;
  if (flavor != FilterFlavor::kFullCompute && prog->instrs.size() == 1 &&
      dsl::ScalarOpIsComparison(prog->instrs[0].op)) {
    const ir::PrimInstr& instr = prog->instrs[0];
    const ir::PrimArg& lhs = instr.args[0];
    const ir::PrimArg& rhs = instr.args[1];
    if (lhs.kind == ir::ArgKind::kInput) {
      alignas(8) uint8_t rhs_buf[8] = {0};  // kernels read it as typed scalar
      const void* rhs_ptr = nullptr;
      switch (rhs.kind) {
        case ir::ArgKind::kConstI:
          ScalarValue::I(rhs.const_i).CastTo(instr.in_type).Store(rhs_buf);
          rhs_ptr = rhs_buf;
          break;
        case ir::ArgKind::kConstF:
          ScalarValue::F(rhs.const_f).CastTo(instr.in_type).Store(rhs_buf);
          rhs_ptr = rhs_buf;
          break;
        case ir::ArgKind::kCapture: {
          AVM_ASSIGN_OR_RETURN(ScalarValue sv, GetScalar(rhs.name));
          sv.CastTo(instr.in_type).Store(rhs_buf);
          rhs_ptr = rhs_buf;
          break;
        }
        default:
          rhs_ptr = nullptr;
      }
      if (rhs_ptr != nullptr && instr.in_type == in.type()) {
        FilterVariant variant = flavor == FilterFlavor::kBranching
                                    ? FilterVariant::kBranching
                                    : FilterVariant::kBranchless;
        FilterKernelFn fn = reg->Filter(instr.op, in.type(),
                                        /*rhs_scalar=*/true, in_sel != nullptr,
                                        variant);
        if (fn != nullptr) {
          count = fn(in.vec.RawData(), rhs_ptr, in_sel, in_n, out->sel.Data());
          done = true;
        }
      }
    }
  }
  if (!done) {
    // Full-compute flavor / general predicate: evaluate the predicate as a
    // bool vector (over all rows unless an input selection exists), then
    // convert to a selection vector.
    Vector bools;
    std::vector<Value> inputs{in_v};
    AVM_RETURN_NOT_OK(prim_exec_.Run(*prog, inputs, in_sel, in_n, in.len,
                                     &bools, MakeCaptureResolver()));
    count = reg->BoolToSel(in_sel != nullptr)(bools.RawData(), nullptr, in_sel,
                                              in_n, out->sel.Data());
  }
  if (chooser != nullptr && in_n > 0) {
    const uint64_t dt = ReadCycleCounter() - t0;
    chooser->Observe(arm, static_cast<double>(dt) / in_n);
  }
  out->sel.set_count(count);
  out->sel.set_enabled(true);
  return Value::A(out);
}

Result<Value> Interpreter::EvalFold(const Expr& e) {
  AVM_ASSIGN_OR_RETURN(ScalarValue init, EvalScalarExpr(*e.args[1]));
  AVM_ASSIGN_OR_RETURN(Value in_v, EvalExpr(*e.args[2]));
  if (!in_v.is_array()) return Status::TypeError("fold of non-array");
  const ArrayValue& in = *in_v.array;
  const TypeId acc_t = dsl::PromoteTypes(init.type, in.type());
  AVM_ASSIGN_OR_RETURN(const ir::PrimProgram* prog,
                       PreparedLambda(*e.args[0], {acc_t, in.type()}));

  const sel_t* sel = in.has_sel() ? in.sel.Data() : nullptr;
  const uint32_t n = in.has_sel() ? in.sel.count() : in.len;

  // Fast path: single commutative primitive (add/min/max/mul) directly over
  // the input vector in acc type.
  if (prog->instrs.size() == 1) {
    const ir::PrimInstr& instr = prog->instrs[0];
    bool inputs_only =
        instr.num_args == 2 &&
        instr.args[0].kind == ir::ArgKind::kInput &&
        instr.args[1].kind == ir::ArgKind::kInput &&
        instr.args[0].index != instr.args[1].index;
    if (inputs_only && kernels_->Fold(instr.op, acc_t) != nullptr) {
      FoldKernelFn fn = kernels_->Fold(instr.op, acc_t);
      alignas(8) uint8_t acc_buf[8];  // fold kernels read it as typed scalar
      init.CastTo(acc_t).Store(acc_buf);
      if (in.type() == acc_t) {
        fn(in.vec.RawData(), sel, n, acc_buf);
      } else {
        // Widen input to acc type first.
        Vector widened(acc_t, in.len);
        PrimKernelFn cast =
            kernels_->Cast(in.type(), acc_t, sel != nullptr);
        cast(in.vec.RawData(), nullptr, widened.RawData(), sel, n);
        fn(widened.RawData(), sel, n, acc_buf);
      }
      return Value::S(ScalarValue::Load(acc_t, acc_buf));
    }
  }

  // General fold: scalar loop over the normalized program.
  ScalarValue acc = init.CastTo(acc_t);
  auto resolver = MakeCaptureResolver();
  for (uint32_t j = 0; j < n; ++j) {
    const uint32_t i = sel != nullptr ? sel[j] : j;
    ScalarValue x = ScalarValue::Load(
        in.type(), static_cast<const uint8_t*>(in.vec.RawData()) +
                       static_cast<size_t>(i) * TypeWidth(in.type()));
    AVM_ASSIGN_OR_RETURN(acc, prim_exec_.RunScalar(*prog, {acc, x}, resolver));
  }
  return Value::S(acc);
}

Result<Value> Interpreter::EvalCondense(const Expr& e) {
  AVM_ASSIGN_OR_RETURN(Value in_v, EvalExpr(*e.args[0]));
  if (!in_v.is_array()) return Status::TypeError("condense of non-array");
  const ArrayValue& in = *in_v.array;
  if (!in.has_sel()) return in_v;  // nothing to do
  ArrayPtr out = NewArray(in.type(), std::max(in.len, uint32_t{1}));
  kernels_->Condense(in.type())(
      in.vec.RawData(), nullptr, out->vec.RawData(), in.sel.Data(),
      in.sel.count());
  out->len = in.sel.count();
  return Value::A(out);
}

Result<Value> Interpreter::EvalGather(const Expr& e) {
  AVM_ASSIGN_OR_RETURN(Value idx_v, EvalExpr(*e.args[1]));
  if (!idx_v.is_array()) return Status::TypeError("gather needs index array");
  const ArrayValue& idx = *idx_v.array;

  // The base is either a data-array reference or a chunk array value.
  const void* base = nullptr;
  TypeId base_t = TypeId::kI64;
  Value base_v;  // keeps a chunk base alive across the kernel call
  DataBinding* binding = e.args[0]->kind == ExprKind::kVarRef
                             ? FindBinding(e.args[0]->var)
                             : nullptr;
  uint64_t base_len = 0;
  if (binding != nullptr) {
    if (binding->raw == nullptr) {
      return Status::NotImplemented(
          "gather from compressed column (decompress first)");
    }
    base = binding->raw;
    base_t = binding->type;
    base_len = binding->len;
  } else {
    AVM_ASSIGN_OR_RETURN(base_v, EvalExpr(*e.args[0]));
    if (!base_v.is_array()) {
      return Status::TypeError("gather base must be an array");
    }
    base = base_v.array->vec.RawData();
    base_t = base_v.array->type();
    base_len = base_v.array->len;
  }

  // Indices must be i64 for the gather kernels; widen when needed.
  const sel_t* sel = idx.has_sel() ? idx.sel.Data() : nullptr;
  const uint32_t n = idx.has_sel() ? idx.sel.count() : idx.len;
  Vector idx64;
  const void* idx_ptr = idx.vec.RawData();
  if (idx.type() != TypeId::kI64) {
    idx64.Reset(TypeId::kI64, idx.len);
    kernels_->Cast(idx.type(), TypeId::kI64, sel != nullptr)(
        idx.vec.RawData(), nullptr, idx64.RawData(), sel, n);
    idx_ptr = idx64.RawData();
  }
  // Bounds check (gather reads host memory; never trust indices — same
  // policy as scatter).
  {
    const int64_t* pi = static_cast<const int64_t*>(idx_ptr);
    for (uint32_t j = 0; j < n; ++j) {
      const uint32_t i = sel != nullptr ? sel[j] : j;
      if (pi[i] < 0 || static_cast<uint64_t>(pi[i]) >= base_len) {
        return Status::OutOfRange(
            StrFormat("gather index %lld out of [0, %llu)",
                      (long long)pi[i], (unsigned long long)base_len));
      }
    }
  }
  ArrayPtr out = NewArray(base_t, std::max(idx.len, uint32_t{1}));
  kernels_->GatherI64Idx(base_t, sel != nullptr)(
      base, idx_ptr, out->vec.RawData(), sel, n);
  out->len = idx.len;
  if (idx.has_sel()) {
    out->sel.Reset(idx.sel.count());
    std::memcpy(out->sel.Data(), idx.sel.Data(),
                sizeof(sel_t) * idx.sel.count());
    out->sel.set_count(idx.sel.count());
    out->sel.set_enabled(true);
  }
  return Value::A(out);
}

Result<Value> Interpreter::EvalScatter(const Expr& e) {
  const std::string& name = e.args[0]->var;
  DataBinding* b = FindBinding(name);
  if (b == nullptr) return Status::NotFound("unbound data array " + name);
  if (!b->writable || b->raw == nullptr) {
    return Status::InvalidArgument("scatter to non-writable array " + name);
  }
  AVM_ASSIGN_OR_RETURN(Value idx_v, EvalExpr(*e.args[1]));
  AVM_ASSIGN_OR_RETURN(Value val_v, EvalExpr(*e.args[2]));
  if (!idx_v.is_array() || !val_v.is_array()) {
    return Status::TypeError("scatter needs index and value arrays");
  }
  const ArrayValue& idx = *idx_v.array;
  const ArrayValue& vals = *val_v.array;

  // Conflict-handling function: a single binary primitive (add/min/max) or
  // plain overwrite when omitted.
  ScalarOp combine = ScalarOp::kCast;  // sentinel: overwrite
  if (e.args.size() == 4) {
    AVM_ASSIGN_OR_RETURN(const ir::PrimProgram* prog,
                         PreparedLambda(*e.args[3], {b->type, vals.type()}));
    if (prog->instrs.size() != 1 ||
        kernels_->Scatter(prog->instrs[0].op, b->type) ==
            nullptr) {
      return Status::NotImplemented(
          "scatter conflict function must be a single add/min/max primitive");
    }
    combine = prog->instrs[0].op;
  }

  const sel_t* sel = idx.has_sel() ? idx.sel.Data() : nullptr;
  const uint32_t n = idx.has_sel() ? idx.sel.count() : idx.len;

  // Bounds check (scatter writes host memory; never trust indices).
  {
    const int64_t* pi = idx.vec.Data<int64_t>();
    Vector idx64;
    if (idx.type() != TypeId::kI64) {
      idx64.Reset(TypeId::kI64, idx.len);
      kernels_->Cast(idx.type(), TypeId::kI64, sel != nullptr)(
          idx.vec.RawData(), nullptr, idx64.RawData(), sel, n);
      pi = idx64.Data<int64_t>();
    }
    for (uint32_t j = 0; j < n; ++j) {
      const uint32_t i = sel != nullptr ? sel[j] : j;
      if (pi[i] < 0 || static_cast<uint64_t>(pi[i]) >= b->len) {
        return Status::OutOfRange(
            StrFormat("scatter index %lld out of [0, %llu)",
                      (long long)pi[i], (unsigned long long)b->len));
      }
    }
    // Values must match destination type.
    Vector widened;
    const void* vptr = vals.vec.RawData();
    if (vals.type() != b->type) {
      widened.Reset(b->type, vals.len);
      kernels_->Cast(vals.type(), b->type, sel != nullptr)(
          vals.vec.RawData(), nullptr, widened.RawData(), sel, n);
      vptr = widened.RawData();
    }
    kernels_->Scatter(combine, b->type)(pi, vptr, b->raw, sel, n);
  }
  return Value::S(ScalarValue::I(n));
}

Result<Value> Interpreter::EvalGen(const Expr& e) {
  AVM_ASSIGN_OR_RETURN(ScalarValue n_v, EvalScalarExpr(*e.args[1]));
  const int64_t n_signed = n_v.AsI64();
  if (n_signed < 0) return Status::InvalidArgument("gen length < 0");
  const uint32_t n = static_cast<uint32_t>(n_signed);
  if (n > options_.chunk_size) {
    return Status::InvalidArgument(
        StrFormat("gen length %u exceeds chunk size %u", n,
                  options_.chunk_size));
  }
  AVM_ASSIGN_OR_RETURN(const ir::PrimProgram* prog,
                       PreparedLambda(*e.args[0], {TypeId::kI64}));
  // Materialize the index vector 0..n-1.
  auto idx = std::make_shared<ArrayValue>();
  idx->vec.Reset(TypeId::kI64, std::max(n, uint32_t{1}));
  int64_t* pi = idx->vec.Data<int64_t>();
  for (uint32_t i = 0; i < n; ++i) pi[i] = i;
  idx->len = n;
  ArrayPtr out = NewArray(prog->result_type, std::max(n, uint32_t{1}));
  std::vector<Value> inputs{Value::A(idx)};
  AVM_RETURN_NOT_OK(prim_exec_.Run(*prog, inputs, nullptr, 0, n, &out->vec,
                                   MakeCaptureResolver()));
  out->len = n;
  return Value::A(out);
}

Result<Value> Interpreter::EvalExpand(const Expr& e) {
  // expand counts [values]: each SELECTED row i of `counts` fans out into
  // counts[i] output rows — within-run offsets 0..counts[i]-1 without
  // `values`, or values[i] replicated counts[i] times with it. Output rows
  // are emitted in selection order, densely packed, and carry NO selection:
  // the result lives in a fresh fan-out row domain (the hash-join pair
  // domain), not the input chunk's. Its length may exceed the chunk size.
  AVM_ASSIGN_OR_RETURN(Value cnt_v, EvalExpr(*e.args[0]));
  if (!cnt_v.is_array()) {
    return Status::TypeError("expand counts must be an array");
  }
  const bool have_values = e.args.size() == 2;
  Value val_v;
  if (have_values) {
    AVM_ASSIGN_OR_RETURN(val_v, EvalExpr(*e.args[1]));
    if (!val_v.is_array()) {
      return Status::TypeError("expand values must be an array");
    }
  }
  std::vector<Value> ins{cnt_v};
  if (have_values) ins.push_back(val_v);
  AVM_ASSIGN_OR_RETURN(SelContext ctx, CommonSelection(ins));
  const ArrayValue& cnt = *cnt_v.array;

  // Widen counts to i64 (the type checker guarantees an integer type).
  Vector cnt64;
  const int64_t* pc = cnt.vec.Data<int64_t>();
  const uint32_t m = ctx.sel != nullptr ? ctx.sel_n : ctx.n;
  if (cnt.type() != TypeId::kI64) {
    cnt64.Reset(TypeId::kI64, std::max(cnt.len, uint32_t{1}));
    kernels_->Cast(cnt.type(), TypeId::kI64, ctx.sel != nullptr)(
        cnt.vec.RawData(), nullptr, cnt64.RawData(), ctx.sel, m);
    pc = cnt64.Data<int64_t>();
  }

  // Pass 1: validate counts and size the output.
  uint64_t total = 0;
  for (uint32_t j = 0; j < m; ++j) {
    const uint32_t i = ctx.sel != nullptr ? ctx.sel[j] : j;
    const int64_t c = pc[i];
    if (c < 0) {
      return Status::InvalidArgument(
          StrFormat("expand count %lld < 0", (long long)c));
    }
    total += static_cast<uint64_t>(c);
  }
  if (total > std::numeric_limits<uint32_t>::max()) {
    return Status::ResourceExhausted(
        StrFormat("expand output of %llu rows exceeds the vector limit",
                  (unsigned long long)total));
  }

  const TypeId out_t = have_values ? val_v.array->type() : TypeId::kI64;
  ArrayPtr out =
      NewArray(out_t, std::max<uint32_t>(static_cast<uint32_t>(total), 1));
  if (!have_values) {
    int64_t* po = out->vec.Data<int64_t>();
    uint64_t o = 0;
    for (uint32_t j = 0; j < m; ++j) {
      const uint32_t i = ctx.sel != nullptr ? ctx.sel[j] : j;
      for (int64_t k = 0; k < pc[i]; ++k) po[o++] = k;
    }
  } else {
    const size_t w = TypeWidth(out_t);
    const uint8_t* pv =
        static_cast<const uint8_t*>(val_v.array->vec.RawData());
    uint8_t* po = static_cast<uint8_t*>(out->vec.RawData());
    uint64_t o = 0;
    for (uint32_t j = 0; j < m; ++j) {
      const uint32_t i = ctx.sel != nullptr ? ctx.sel[j] : j;
      for (int64_t k = 0; k < pc[i]; ++k, ++o) {
        std::memcpy(po + o * w, pv + static_cast<size_t>(i) * w, w);
      }
    }
  }
  out->len = static_cast<uint32_t>(total);
  return Value::A(out);
}

Result<Value> Interpreter::EvalMerge(const Expr& e) {
  AVM_ASSIGN_OR_RETURN(Value av, EvalExpr(*e.args[0]));
  AVM_ASSIGN_OR_RETURN(Value bv, EvalExpr(*e.args[1]));
  if (!av.is_array() || !bv.is_array()) {
    return Status::TypeError("merge needs arrays");
  }
  if (av.array->has_sel() || bv.array->has_sel()) {
    return Status::InvalidArgument("merge inputs must be condensed");
  }
  const ArrayValue& a = *av.array;
  const ArrayValue& b = *bv.array;
  ArrayPtr out = NewArray(a.type(), a.len + b.len + 1);
  uint32_t count = 0;
  DispatchType(a.type(), [&]<typename Raw>() {
    using T = std::conditional_t<std::is_same_v<Raw, bool>, uint8_t, Raw>;
    const T* pa = reinterpret_cast<const T*>(a.vec.RawData());
    const T* pb = reinterpret_cast<const T*>(b.vec.RawData());
    T* po = reinterpret_cast<T*>(out->vec.RawData());
    uint32_t i = 0, j = 0;
    switch (e.merge_kind) {
      case dsl::MergeKind::kJoin:
        // Sorted intersection (MergeJoin on unique keys).
        while (i < a.len && j < b.len) {
          if (pa[i] < pb[j]) ++i;
          else if (pb[j] < pa[i]) ++j;
          else { po[count++] = pa[i]; ++i; ++j; }
        }
        break;
      case dsl::MergeKind::kUnion:
        while (i < a.len && j < b.len) {
          if (pa[i] < pb[j]) po[count++] = pa[i++];
          else if (pb[j] < pa[i]) po[count++] = pb[j++];
          else { po[count++] = pa[i]; ++i; ++j; }
        }
        while (i < a.len) po[count++] = pa[i++];
        while (j < b.len) po[count++] = pb[j++];
        break;
      case dsl::MergeKind::kDiff:
        while (i < a.len && j < b.len) {
          if (pa[i] < pb[j]) po[count++] = pa[i++];
          else if (pb[j] < pa[i]) ++j;
          else { ++i; ++j; }
        }
        while (i < a.len) po[count++] = pa[i++];
        break;
    }
  });
  out->len = count;
  return Value::A(out);
}

}  // namespace avm::interp
