#include "jit/codegen.h"

#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "dsl/printer.h"
#include "ir/prim.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace avm::jit {

Result<PosRef> PosRef::From(const dsl::Expr& e) {
  PosRef p;
  if (e.kind == dsl::ExprKind::kConst) {
    p.kind = Kind::kConst;
    p.const_i = e.const_i;
    return p;
  }
  if (e.kind == dsl::ExprKind::kVarRef) {
    p.kind = Kind::kVar;
    p.var = e.var;
    return p;
  }
  return Status::Internal(
      "position is neither a variable nor a constant (rule pos-not-affine)");
}

namespace {

using dsl::Expr;
using dsl::ExprKind;
using dsl::ScalarOp;
using dsl::SkeletonKind;
using ir::ArgKind;
using ir::DepGraph;
using ir::DepNode;
using ir::PrimArg;
using ir::PrimProgram;
using ir::Trace;

// C type used in generated code (bool buffers are uint8).
const char* CType(TypeId t) {
  return t == TypeId::kBool ? "unsigned char" : TypeCName(t);
}

// ir::Normalize of a lambda the verifier already normalized (rule
// prim-normalize): a failure here is an internal error, not a decline.
Result<PrimProgram> NormalizeVerified(const Expr& lambda,
                                      const std::vector<TypeId>& in_types) {
  Result<PrimProgram> prog = ir::Normalize(lambda, in_types);
  if (!prog.ok()) {
    return Status::Internal("verified lambda does not normalize: " +
                            prog.status().message());
  }
  return prog;
}

// Every name the statements a trace does not cover refer to. Those
// statements run interpreted and read values from the environment by name,
// so a trace value they name must be published.
std::unordered_set<std::string> NamesOutside(
    const dsl::Program& program, const std::vector<uint32_t>& covered) {
  const std::unordered_set<uint32_t> skip(covered.begin(), covered.end());
  std::unordered_set<std::string> names;
  std::function<void(const Expr&)> walk_expr = [&](const Expr& e) {
    if (e.kind == ExprKind::kVarRef) names.insert(e.var);
    for (const auto& a : e.args) walk_expr(*a);
    if (e.body) walk_expr(*e.body);
  };
  std::function<void(const std::vector<dsl::StmtPtr>&)> walk_stmts =
      [&](const std::vector<dsl::StmtPtr>& stmts) {
        for (const auto& s : stmts) {
          if (skip.contains(s->id)) continue;
          if (s->expr) walk_expr(*s->expr);
          walk_stmts(s->body);
          walk_stmts(s->else_body);
        }
      };
  walk_stmts(program.stmts);
  return names;
}

// The scalar helper library every generated translation unit carries,
// followed by a textual copy of the trace ABI structs. The struct
// definitions MUST stay layout-identical to src/jit/trace_abi.h — the
// generated code is compiled standalone and cannot include it.
//
// The only header is <cstdint>: parsing <cmath>, <limits> and
// <type_traits> took longer than a whole header-free -O2 compile of a
// trace does (docs/TRACE_CACHE.md §1). So sqrt, fmod and fabs are compiler
// builtins, and avm_num spells out what the helpers need to know of each
// type CType emits. A type without an avm_num entry fails to compile
// rather than taking the wrong branch (on LP64, int64_t is long, not long
// long). The helpers match src/interp/kernel_ops.h bit for bit.
const char* kPreamble = R"(#include <cstdint>

namespace {
template <class T> struct avm_num;
template <class T, class UT, T kLo> struct avm_int {
  static constexpr bool kInt = true;
  static constexpr T kMin = kLo;  // 0 exactly for unsigned types
  using U = UT;
};
struct avm_flt { static constexpr bool kInt = false; };
template <> struct avm_num<int8_t> : avm_int<int8_t, uint8_t, INT8_MIN> {};
template <> struct avm_num<int16_t> : avm_int<int16_t, uint16_t, INT16_MIN> {};
template <> struct avm_num<int32_t> : avm_int<int32_t, uint32_t, INT32_MIN> {};
template <> struct avm_num<int64_t> : avm_int<int64_t, uint64_t, INT64_MIN> {};
template <> struct avm_num<uint8_t> : avm_int<uint8_t, uint8_t, 0> {};
template <> struct avm_num<float> : avm_flt {};
template <> struct avm_num<double> : avm_flt {};

inline float avm_fmod(float a, float b) { return __builtin_fmodf(a, b); }
inline double avm_fmod(double a, double b) { return __builtin_fmod(a, b); }
inline float avm_fabs(float a) { return __builtin_fabsf(a); }
inline double avm_fabs(double a) { return __builtin_fabs(a); }

template <class T> inline T avm_addw(T a, T b) {
  if constexpr (avm_num<T>::kInt) {
    using U = typename avm_num<T>::U;
    return T(U(a) + U(b));
  } else { return a + b; }
}
template <class T> inline T avm_subw(T a, T b) {
  if constexpr (avm_num<T>::kInt) {
    using U = typename avm_num<T>::U;
    return T(U(a) - U(b));
  } else { return a - b; }
}
template <class T> inline T avm_mulw(T a, T b) {
  if constexpr (avm_num<T>::kInt) {
    using U = typename avm_num<T>::U;
    return T(U(a) * U(b));
  } else { return a * b; }
}
template <class T> inline T avm_div(T a, T b) {
  if constexpr (avm_num<T>::kInt) {
    if (b == 0) return T(0);
    if constexpr (avm_num<T>::kMin != 0) {
      if (b == T(-1)) {
        return a == avm_num<T>::kMin ? a : T(-a);
      }
    }
    return T(a / b);
  } else { return a / b; }
}
template <class T> inline T avm_mod(T a, T b) {
  if constexpr (avm_num<T>::kInt) {
    if (b == 0) return T(0);
    if constexpr (avm_num<T>::kMin != 0) { if (b == T(-1)) return T(0); }
    return T(a % b);
  } else { return T(avm_fmod(a, b)); }
}
template <class T> inline T avm_neg(T a) {
  if constexpr (avm_num<T>::kInt) {
    using U = typename avm_num<T>::U;
    return T(U(0) - U(a));
  } else { return -a; }
}
template <class T> inline T avm_abs(T a) {
  if constexpr (avm_num<T>::kInt) {
    return a < T(0) ? avm_neg(a) : a;
  } else { return avm_fabs(a); }
}
inline long long avm_hash(long long k0) {
  unsigned long long k = (unsigned long long)k0;
  k ^= k >> 33; k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33; k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return (long long)k;
}

// Mirror of avm::jit::TraceFault / TraceCallArgs (src/jit/trace_abi.h).
struct TraceFault { int64_t index; uint64_t bound; };
struct TraceCallArgs {
  const void* const* in;
  const uint64_t* in_lens;
  void* const* out;
  const uint64_t* out_lens;
  const int64_t* ci;
  const double* cf;
  uint32_t n;
  const uint32_t* sel;
  uint32_t sel_n;
  uint32_t* out_counts;
  int64_t* scalars;
  TraceFault* fault;
};
}  // namespace
)";

// ---------------------------------------------------------------------------
// Emission context
// ---------------------------------------------------------------------------

/// Emits one verified trace. Every structural fact comes from the
/// verifier (analysis::TraceFacts); a shape that verification rules
/// out is an Internal error here, never a decline.
class TraceEmitter {
 public:
  TraceEmitter(const dsl::Program& program, const DepGraph& graph,
               const Trace& trace, const analysis::TraceFacts& facts,
               const CodegenOptions& options)
      : program_(program), graph_(graph), trace_(trace), facts_(facts),
        options_(options), sel_mode_(!facts.sel_inputs.empty()) {}

  Result<GeneratedTrace> Run();

 private:
  Status AssignInputsOutputs();
  Status EmitNodes();
  Result<std::string> ValueOf(uint32_t node_id);
  Result<std::string> EmitNodeValue(const DepNode& node);
  Result<std::string> ResolveValueArg(const Expr& arg);
  Result<std::string> EmitPrim(const PrimProgram& prog,
                               const std::vector<std::string>& input_exprs);
  Result<std::string> EmitCaptureRef(const std::string& name, TypeId t);
  std::string NewTemp() { return StrFormat("t%d", temp_counter_++); }

  bool InTrace(uint32_t node_id) const {
    return trace_node_set_.contains(node_id);
  }
  bool DependsOnFilter(uint32_t node_id) const {
    return facts_.filter_dependent.contains(node_id);
  }
  bool SelDependent(uint32_t node_id) const {
    return facts_.sel_dependent.contains(node_id);
  }
  /// True when `node_id`'s work belongs in the positional pass: the trace is
  /// selection-specialized but the node is independent of every
  /// selection-carrying input, so interpretation computes it over ALL rows.
  bool InPositionalPass(uint32_t node_id) const {
    return sel_mode_ && !SelDependent(node_id);
  }

  /// Stream new statements go to: the positional pass, or the pre/post
  /// guard section of the main (guarded / selected) loop.
  std::ostringstream& Body() {
    if (in_pos_loop_) return posloop_;
    return post_filter_mode_ ? post_ : pre_;
  }
  /// Per-loop cache of node id -> emitted C value expression. Values are
  /// re-emitted (recomputed) when a selected-pass node consumes a
  /// positional-pass value — scalar recomputation is cheaper than spilling.
  std::unordered_map<uint32_t, std::string>& Values() {
    return in_pos_loop_ ? node_value_pos_ : node_value_;
  }

  const dsl::Program& program_;
  const DepGraph& graph_;
  const Trace& trace_;
  const analysis::TraceFacts& facts_;
  const CodegenOptions& options_;
  const bool sel_mode_;  ///< selection-carrying variant

  GeneratedTrace out_;
  std::unordered_set<uint32_t> trace_node_set_;
  std::unordered_map<const Expr*, uint32_t> expr_to_node_;
  std::unordered_map<std::string, size_t> input_slot_;  // spec name key -> idx
  std::unordered_map<uint32_t, size_t> node_out_slot_;  // write/scatter node
  std::unordered_map<uint32_t, std::string> node_value_;      // guarded loop
  std::unordered_map<uint32_t, std::string> node_value_pos_;  // positional
  std::unordered_map<std::string, size_t> cap_i_slot_, cap_f_slot_;
  bool post_filter_mode_ = false;
  bool in_pos_loop_ = false;
  std::ostringstream decls_;    // pre-loop declarations
  std::ostringstream posloop_;  // positional pass body (sel mode only)
  std::ostringstream pre_;      // main loop body before the filter guard
  std::ostringstream guard_;    // the filter guard
  std::ostringstream post_;     // main loop body after the guard
  std::ostringstream counts_;   // out_counts / scalars assignments
  std::ostringstream tail_;     // post-loop stores
  int temp_counter_ = 0;
};

Status TraceEmitter::AssignInputsOutputs() {
  auto add_input = [&](TraceInputSpec spec) -> size_t {
    std::string key = StrFormat("%d:%s", static_cast<int>(spec.kind),
                                spec.name.c_str());
    if (spec.pos.valid()) {
      key += ":" + spec.pos.ToString();
    }
    auto it = input_slot_.find(key);
    if (it != input_slot_.end()) return it->second;
    out_.inputs.push_back(std::move(spec));
    input_slot_[key] = out_.inputs.size() - 1;
    return out_.inputs.size() - 1;
  };

  // Chunk-variable inputs: names in trace_.inputs that are not data arrays
  // (those become read windows below).
  for (const auto& name : trace_.inputs) {
    if (program_.FindData(name) != nullptr) continue;
    auto it = facts_.let_types.find(name);
    if (it == facts_.let_types.end()) {
      return Status::Internal("unknown trace input " + name +
                              " (rule input-unknown)");
    }
    add_input({TraceInputSpec::Kind::kChunkVar, name, it->second, PosRef{}});
  }

  // Read/gather inputs.
  for (uint32_t id : trace_.node_ids) {
    const DepNode& n = graph_.nodes()[id];
    if (n.kind == SkeletonKind::kRead) {
      AVM_ASSIGN_OR_RETURN(PosRef pos, PosRef::From(*n.expr->args[0]));
      const std::string& data = n.expr->args[1]->var;
      auto spec_it = options_.scheme_specialization.find(data);
      if (spec_it != options_.scheme_specialization.end() &&
          spec_it->second == Scheme::kFor) {
        add_input({TraceInputSpec::Kind::kForDeltas, data, TypeId::kI32,
                   pos});
        out_.scheme_requirements[data] = Scheme::kFor;
      } else {
        add_input({TraceInputSpec::Kind::kDataRead, data,
                   program_.FindData(data)->type, pos});
      }
    } else if (n.kind == SkeletonKind::kGather) {
      const Expr& base = *n.expr->args[0];
      add_input({TraceInputSpec::Kind::kDataWhole, base.var,
                 program_.FindData(base.var)->type, PosRef{}});
    }
  }

  // The scalar result of a let-bound write/scatter (the program consumes
  // the written count — condensing-output cursors).
  auto result_var_of = [&](uint32_t id) -> std::string {
    std::string name = graph_.OutputNameOf(id);
    return facts_.let_types.contains(name) ? name : std::string();
  };

  // Outputs: data writes/scatters + escaping values + fold scalars.
  const std::unordered_set<std::string> named_outside =
      NamesOutside(program_, facts_.covered_stmt_ids);
  for (uint32_t id : trace_.node_ids) {
    const DepNode& n = graph_.nodes()[id];
    if (n.kind == SkeletonKind::kWrite) {
      AVM_ASSIGN_OR_RETURN(PosRef pos, PosRef::From(*n.expr->args[1]));
      // A write condenses when its value carries a selection: from the
      // in-trace filter, from an explicit condense, or from a
      // selection-carrying input (the interpreter's write condenses
      // selection-carrying values on the fly).
      bool condensed = false;
      if (!n.inputs.empty() && DependsOnFilter(n.inputs[0])) condensed = true;
      if (!n.inputs.empty() &&
          graph_.nodes()[n.inputs[0]].kind == SkeletonKind::kCondense) {
        condensed = true;
      }
      if (SelDependent(id)) condensed = true;
      TraceOutputSpec spec;
      spec.kind = TraceOutputSpec::Kind::kDataWrite;
      spec.name = n.expr->args[0]->var;
      spec.type = program_.FindData(n.expr->args[0]->var)->type;
      spec.condensed = condensed;
      spec.pos = pos;
      spec.sel_dependent = SelDependent(id);
      spec.result_var = result_var_of(id);
      node_out_slot_[id] = out_.outputs.size();
      out_.outputs.push_back(std::move(spec));
      continue;
    }
    if (n.kind == SkeletonKind::kScatter) {
      TraceOutputSpec spec;
      spec.kind = TraceOutputSpec::Kind::kDataScatter;
      spec.name = n.expr->args[0]->var;
      spec.type = program_.FindData(n.expr->args[0]->var)->type;
      spec.sel_dependent = SelDependent(id);
      spec.result_var = result_var_of(id);
      node_out_slot_[id] = out_.outputs.size();
      out_.outputs.push_back(std::move(spec));
      continue;
    }
    if (n.kind == SkeletonKind::kFold) {
      std::string name = graph_.OutputNameOf(id);
      TraceOutputSpec spec;
      spec.kind = TraceOutputSpec::Kind::kFoldScalar;
      spec.name = name;
      spec.type = n.expr->type;
      spec.sel_dependent = SelDependent(id);
      node_out_slot_[id] = out_.outputs.size();
      out_.outputs.push_back(std::move(spec));
      continue;
    }
    // Escaping array value? A graph consumer outside the trace reads it, or
    // a statement the trace does not cover names it (e.g. `len(a)`); every
    // other value lives only inside the fused loop and is not published.
    std::string name = graph_.OutputNameOf(id);
    bool is_traced_output = false;
    for (const auto& o : trace_.outputs) {
      if (o == name) is_traced_output = true;
    }
    bool consumed_outside = false;
    for (uint32_t c : n.consumers) {
      if (!InTrace(c)) consumed_outside = true;
    }
    if (is_traced_output || consumed_outside ||
        named_outside.contains(name)) {
      bool condensed = n.kind == SkeletonKind::kCondense;
      TraceOutputSpec spec;
      spec.kind = TraceOutputSpec::Kind::kArrayVar;
      spec.name = name;
      spec.type = n.expr->type;
      spec.condensed = condensed;
      spec.sel_dependent = SelDependent(id);
      node_out_slot_[id] = out_.outputs.size();
      out_.outputs.push_back(std::move(spec));
    }
  }
  return Status::OK();
}

Result<std::string> TraceEmitter::EmitCaptureRef(const std::string& name,
                                                 TypeId t) {
  if (IsFloatType(t)) {
    auto it = cap_f_slot_.find(name);
    size_t slot;
    if (it == cap_f_slot_.end()) {
      out_.captures_f.emplace_back(name, t);
      slot = out_.captures_f.size() - 1;
      cap_f_slot_[name] = slot;
    } else {
      slot = it->second;
    }
    return StrFormat("((%s)cf[%zu])", CType(t), slot);
  }
  auto it = cap_i_slot_.find(name);
  size_t slot;
  if (it == cap_i_slot_.end()) {
    out_.captures_i.emplace_back(name, t);
    slot = out_.captures_i.size() - 1;
    cap_i_slot_[name] = slot;
  } else {
    slot = it->second;
  }
  return StrFormat("((%s)ci[%zu])", CType(t), slot);
}

Result<std::string> TraceEmitter::EmitPrim(
    const PrimProgram& prog, const std::vector<std::string>& input_exprs) {
  if (prog.result_is_input >= 0) {
    return input_exprs[static_cast<size_t>(prog.result_is_input)];
  }
  std::vector<std::string> reg_names(static_cast<size_t>(prog.num_regs));
  for (const auto& instr : prog.instrs) {
    auto operand = [&](const PrimArg& a) -> Result<std::string> {
      switch (a.kind) {
        case ArgKind::kInput:
          return StrFormat("((%s)(%s))", CType(instr.in_type),
                           input_exprs[static_cast<size_t>(a.index)].c_str());
        case ArgKind::kReg:
          return StrFormat("((%s)%s)", CType(instr.in_type),
                           reg_names[static_cast<size_t>(a.index)].c_str());
        case ArgKind::kConstI:
          return StrFormat("((%s)%lldLL)", CType(instr.in_type),
                           (long long)a.const_i);
        case ArgKind::kConstF:
          return StrFormat("((%s)%.17g)", CType(instr.in_type), a.const_f);
        case ArgKind::kCapture: {
          AVM_ASSIGN_OR_RETURN(std::string ref,
                               EmitCaptureRef(a.name, a.type));
          return StrFormat("((%s)%s)", CType(instr.in_type), ref.c_str());
        }
      }
      return Status::Internal("bad arg");
    };
    AVM_ASSIGN_OR_RETURN(std::string a, operand(instr.args[0]));
    std::string b;
    if (instr.num_args == 2) {
      AVM_ASSIGN_OR_RETURN(b, operand(instr.args[1]));
    }
    const char* it = CType(instr.in_type);
    const char* ot = CType(instr.out_type);
    std::string expr;
    switch (instr.op) {
      case ScalarOp::kAdd: expr = StrFormat("avm_addw<%s>(%s, %s)", it, a.c_str(), b.c_str()); break;
      case ScalarOp::kSub: expr = StrFormat("avm_subw<%s>(%s, %s)", it, a.c_str(), b.c_str()); break;
      case ScalarOp::kMul: expr = StrFormat("avm_mulw<%s>(%s, %s)", it, a.c_str(), b.c_str()); break;
      case ScalarOp::kDiv: expr = StrFormat("avm_div<%s>(%s, %s)", it, a.c_str(), b.c_str()); break;
      case ScalarOp::kMod: expr = StrFormat("avm_mod<%s>(%s, %s)", it, a.c_str(), b.c_str()); break;
      case ScalarOp::kMin: expr = StrFormat("(%s < %s ? %s : %s)", a.c_str(), b.c_str(), a.c_str(), b.c_str()); break;
      case ScalarOp::kMax: expr = StrFormat("(%s > %s ? %s : %s)", a.c_str(), b.c_str(), a.c_str(), b.c_str()); break;
      case ScalarOp::kEq: expr = StrFormat("(%s == %s)", a.c_str(), b.c_str()); break;
      case ScalarOp::kNe: expr = StrFormat("(%s != %s)", a.c_str(), b.c_str()); break;
      case ScalarOp::kLt: expr = StrFormat("(%s < %s)", a.c_str(), b.c_str()); break;
      case ScalarOp::kLe: expr = StrFormat("(%s <= %s)", a.c_str(), b.c_str()); break;
      case ScalarOp::kGt: expr = StrFormat("(%s > %s)", a.c_str(), b.c_str()); break;
      case ScalarOp::kGe: expr = StrFormat("(%s >= %s)", a.c_str(), b.c_str()); break;
      case ScalarOp::kAnd: expr = StrFormat("(%s && %s)", a.c_str(), b.c_str()); break;
      case ScalarOp::kOr: expr = StrFormat("(%s || %s)", a.c_str(), b.c_str()); break;
      case ScalarOp::kNot: expr = StrFormat("(!%s)", a.c_str()); break;
      case ScalarOp::kNeg: expr = StrFormat("avm_neg<%s>(%s)", it, a.c_str()); break;
      case ScalarOp::kAbs: expr = StrFormat("avm_abs<%s>(%s)", it, a.c_str()); break;
      case ScalarOp::kSqrt:
        expr = instr.out_type == TypeId::kF32
                   ? StrFormat("__builtin_sqrtf((float)%s)", a.c_str())
                   : StrFormat("__builtin_sqrt((double)%s)", a.c_str());
        break;
      case ScalarOp::kCast: expr = a; break;
      case ScalarOp::kHash:
        expr = StrFormat("avm_hash((long long)%s)", a.c_str());
        break;
    }
    std::string tmp = NewTemp();
    Body() << StrFormat("      const %s %s = (%s)(%s);\n", ot, tmp.c_str(), ot,
                        expr.c_str());
    reg_names[static_cast<size_t>(instr.out_reg)] = tmp;
  }
  return reg_names[static_cast<size_t>(prog.result_reg)];
}

Result<std::string> TraceEmitter::ResolveValueArg(const Expr& arg) {
  if (arg.kind == ExprKind::kConst) {
    return arg.const_is_float
               ? StrFormat("%.17g", arg.const_f)
               : StrFormat("%lldLL", (long long)arg.const_i);
  }
  if (arg.kind == ExprKind::kSkeleton) {
    auto it = expr_to_node_.find(&arg);
    if (it != expr_to_node_.end() && InTrace(it->second)) {
      return ValueOf(it->second);
    }
    return Status::Internal(
        "nested skeleton outside trace (rule nested-skeleton-outside)");
  }
  if (arg.kind == ExprKind::kVarRef) {
    if (arg.shape == dsl::Shape::kScalar) {
      return EmitCaptureRef(arg.var, arg.type);
    }
    // Array variable: produced in-trace or a chunk input.
    int prod = graph_.ProducerOf(arg.var);
    if (prod >= 0 && InTrace(static_cast<uint32_t>(prod))) {
      return ValueOf(static_cast<uint32_t>(prod));
    }
    std::string key = StrFormat("%d:%s",
                                static_cast<int>(TraceInputSpec::Kind::kChunkVar),
                                arg.var.c_str());
    auto slot = input_slot_.find(key);
    if (slot == input_slot_.end()) {
      return Status::Internal("unresolved trace value " + arg.var +
                              " (rule value-unresolved)");
    }
    return StrFormat("((const %s*)in[%zu])[i]", CType(arg.type),
                     slot->second);
  }
  return Status::Internal("unsupported argument expression (rule "
                          "arg-unsupported)");
}

Result<std::string> TraceEmitter::ValueOf(uint32_t node_id) {
  auto it = Values().find(node_id);
  if (it != Values().end()) return it->second;
  AVM_ASSIGN_OR_RETURN(std::string v, EmitNodeValue(graph_.nodes()[node_id]));
  Values()[node_id] = v;
  return v;
}

Result<std::string> TraceEmitter::EmitNodeValue(const DepNode& node) {
  const Expr& e = *node.expr;
  switch (node.kind) {
    case SkeletonKind::kRead: {
      const std::string& data = e.args[1]->var;
      auto spec_it = options_.scheme_specialization.find(data);
      if (spec_it != options_.scheme_specialization.end() &&
          spec_it->second == Scheme::kFor) {
        std::string key =
            StrFormat("%d:%s:%s",
                      static_cast<int>(TraceInputSpec::Kind::kForDeltas),
                      data.c_str(), dsl::PrintExpr(*e.args[0]).c_str());
        size_t slot = input_slot_.at(key);
        AVM_ASSIGN_OR_RETURN(std::string ref,
                             EmitCaptureRef("__for_ref_" + data, TypeId::kI64));
        // value = reference + narrow delta (compressed execution).
        std::string tmp = NewTemp();
        Body() << StrFormat(
            "      const %s %s = (%s)(%s + (int64_t)((const uint32_t*)in[%zu])[i]);\n",
            CType(e.type), tmp.c_str(), CType(e.type), ref.c_str(), slot);
        return tmp;
      }
      std::string key = StrFormat(
          "%d:%s:%s", static_cast<int>(TraceInputSpec::Kind::kDataRead),
          data.c_str(), dsl::PrintExpr(*e.args[0]).c_str());
      size_t slot = input_slot_.at(key);
      return StrFormat("((const %s*)in[%zu])[i]", CType(e.type), slot);
    }
    case SkeletonKind::kMap: {
      std::vector<std::string> inputs;
      std::vector<TypeId> input_types;
      for (size_t i = 1; i < e.args.size(); ++i) {
        AVM_ASSIGN_OR_RETURN(std::string v, ResolveValueArg(*e.args[i]));
        inputs.push_back(std::move(v));
        input_types.push_back(e.args[i]->type);
      }
      AVM_ASSIGN_OR_RETURN(PrimProgram prog,
                           NormalizeVerified(*e.args[0], input_types));
      return EmitPrim(prog, inputs);
    }
    case SkeletonKind::kFilter: {
      if (in_pos_loop_) {
        return Status::Internal("filter emitted in the positional pass");
      }
      AVM_ASSIGN_OR_RETURN(std::string in_v, ResolveValueArg(*e.args[1]));
      AVM_ASSIGN_OR_RETURN(PrimProgram prog,
                           NormalizeVerified(*e.args[0], {e.args[1]->type}));
      // The predicate's temporaries belong before the guard.
      post_filter_mode_ = false;
      AVM_ASSIGN_OR_RETURN(std::string p, EmitPrim(prog, {in_v}));
      guard_ << StrFormat("      if (!(%s)) continue;\n", p.c_str());
      // The filter's value is its input's value (selection semantics).
      return in_v;
    }
    case SkeletonKind::kCondense:
      // Resolve through the argument expression, not the graph edge: the
      // input may be a boundary chunk var (selection-carrying condense
      // whose producer stayed outside the trace) — walking the edge would
      // emit out-of-trace nodes.
      return ResolveValueArg(*e.args[0]);
    case SkeletonKind::kGather: {
      const Expr& base = *e.args[0];
      AVM_ASSIGN_OR_RETURN(std::string idx, ResolveValueArg(*e.args[1]));
      std::string key = StrFormat(
          "%d:%s", static_cast<int>(TraceInputSpec::Kind::kDataWhole),
          base.var.c_str());
      size_t slot = input_slot_.at(key);
      // Bounds-checked gather: a stray index reports a TraceFault with the
      // same index/bound the interpreter's check would have raised.
      std::string ti = NewTemp();
      std::string tv = NewTemp();
      Body() << StrFormat("      const long long %s = (long long)(%s);\n",
                          ti.c_str(), idx.c_str());
      Body() << StrFormat(
          "      if (%s < 0 || (unsigned long long)%s >= in_lens[%zu]) {\n"
          "        args->fault->index = %s; args->fault->bound = "
          "in_lens[%zu];\n"
          "        return 1;\n      }\n",
          ti.c_str(), ti.c_str(), slot, ti.c_str(), slot);
      Body() << StrFormat("      const %s %s = ((const %s*)in[%zu])[%s];\n",
                          CType(e.type), tv.c_str(), CType(e.type), slot,
                          ti.c_str());
      return tv;
    }
    case SkeletonKind::kWrite:
    case SkeletonKind::kScatter:
    case SkeletonKind::kFold:
      return Status::Internal("handled by EmitNodes");
    default:
      return Status::Internal(
          StrFormat("skeleton %s in trace (rule skeleton-unsupported)",
                    dsl::SkeletonName(node.kind)));
  }
}

Status TraceEmitter::EmitNodes() {
  // `cnt` counts guard-surviving rows: condensed outputs append at it, and
  // filter-dependent scatters report it as their processed count.
  bool needs_cnt = false;
  for (const auto& o : out_.outputs) needs_cnt |= o.condensed;
  for (uint32_t id : trace_.node_ids) {
    if (graph_.nodes()[id].kind == SkeletonKind::kScatter &&
        DependsOnFilter(id)) {
      needs_cnt = true;
    }
  }
  if (needs_cnt) decls_ << "  uint32_t cnt = 0;\n";

  // Order: pre-filter nodes, then filter, then the rest (topologically).
  const int filter = facts_.filter_node;
  std::vector<uint32_t> order;
  for (uint32_t id : trace_.node_ids) {
    if (!DependsOnFilter(id) && static_cast<int>(id) != filter) {
      order.push_back(id);
    }
  }
  if (filter >= 0) order.push_back(static_cast<uint32_t>(filter));
  for (uint32_t id : trace_.node_ids) {
    if (DependsOnFilter(id)) order.push_back(id);
  }

  // Tuple count an output produced: appended (cnt), every selected row
  // (sel_n), or every chunk row (n).
  auto count_expr = [&](const TraceOutputSpec& spec,
                        uint32_t node_id) -> const char* {
    if (spec.condensed || DependsOnFilter(node_id)) return "cnt";
    if (SelDependent(node_id)) return "sel_n";
    return "n";
  };

  int fold_counter = 0;
  for (uint32_t id : order) {
    const DepNode& node = graph_.nodes()[id];
    in_pos_loop_ = InPositionalPass(id);
    post_filter_mode_ = !in_pos_loop_ && (DependsOnFilter(id) ||
                                          static_cast<int>(id) == filter);

    if (node.kind == SkeletonKind::kWrite) {
      const Expr& e = *node.expr;
      AVM_ASSIGN_OR_RETURN(std::string v, ResolveValueArg(*e.args[2]));
      const size_t slot = node_out_slot_.at(id);
      const TraceOutputSpec& spec = out_.outputs[slot];
      post_filter_mode_ = !in_pos_loop_ && (spec.condensed || post_filter_mode_);
      Body() << StrFormat("      ((%s*)out[%zu])[%s] = (%s)(%s);\n",
                          CType(spec.type), slot,
                          spec.condensed ? "cnt" : "i", CType(spec.type),
                          v.c_str());
      counts_ << StrFormat("  out_counts[%zu] = %s;\n", slot,
                           spec.condensed ? "cnt" : "n");
      counts_ << StrFormat("  scalars[%zu] = (int64_t)(%s);\n", slot,
                           spec.condensed ? "cnt" : "n");
      continue;
    }
    if (node.kind == SkeletonKind::kScatter) {
      const Expr& e = *node.expr;
      AVM_ASSIGN_OR_RETURN(std::string idx, ResolveValueArg(*e.args[1]));
      AVM_ASSIGN_OR_RETURN(std::string val, ResolveValueArg(*e.args[2]));
      const size_t slot = node_out_slot_.at(id);
      const TraceOutputSpec& spec = out_.outputs[slot];
      const char* dt = CType(spec.type);
      // Conflict op: overwrite, or the add/min/max the verifier vetted.
      auto combine_it = facts_.scatter_combine.find(id);
      if (combine_it == facts_.scatter_combine.end()) {
        return Status::Internal("scatter without a verified combine op");
      }
      const ScalarOp combine = combine_it->second;
      std::string ti = NewTemp();
      std::string td = NewTemp();
      Body() << StrFormat("      const long long %s = (long long)(%s);\n",
                          ti.c_str(), idx.c_str());
      Body() << StrFormat(
          "      if (%s < 0 || (unsigned long long)%s >= out_lens[%zu]) {\n"
          "        args->fault->index = %s; args->fault->bound = "
          "out_lens[%zu];\n"
          "        return 2;\n      }\n",
          ti.c_str(), ti.c_str(), slot, ti.c_str(), slot);
      Body() << StrFormat("      %s* %s = (%s*)out[%zu];\n", dt, td.c_str(),
                          dt, slot);
      std::string casted = StrFormat("((%s)(%s))", dt, val.c_str());
      std::string combined;
      switch (combine) {
        case ScalarOp::kAdd:
          combined = StrFormat("avm_addw<%s>(%s[%s], %s)", dt, td.c_str(),
                               ti.c_str(), casted.c_str());
          break;
        case ScalarOp::kMin:
          combined = StrFormat("(%s[%s] < %s ? %s[%s] : %s)", td.c_str(),
                               ti.c_str(), casted.c_str(), td.c_str(),
                               ti.c_str(), casted.c_str());
          break;
        case ScalarOp::kMax:
          combined = StrFormat("(%s[%s] > %s ? %s[%s] : %s)", td.c_str(),
                               ti.c_str(), casted.c_str(), td.c_str(),
                               ti.c_str(), casted.c_str());
          break;
        default:
          combined = casted;
      }
      Body() << StrFormat("      %s[%s] = %s;\n", td.c_str(), ti.c_str(),
                          combined.c_str());
      counts_ << StrFormat("  out_counts[%zu] = %s;\n", slot,
                           count_expr(spec, id));
      counts_ << StrFormat("  scalars[%zu] = (int64_t)(%s);\n", slot,
                           count_expr(spec, id));
      continue;
    }
    if (node.kind == SkeletonKind::kFold) {
      const Expr& e = *node.expr;
      // init
      const Expr& init = *e.args[1];
      std::string init_expr;
      if (init.kind == ExprKind::kConst) {
        init_expr = init.const_is_float
                        ? StrFormat("%.17g", init.const_f)
                        : StrFormat("%lldLL", (long long)init.const_i);
      } else if (init.kind == ExprKind::kVarRef) {
        AVM_ASSIGN_OR_RETURN(init_expr, EmitCaptureRef(init.var, init.type));
      } else {
        return Status::Internal(
            "fold init is neither const nor variable (rule fold-init-shape)");
      }
      AVM_ASSIGN_OR_RETURN(std::string v, ResolveValueArg(*e.args[2]));
      std::string acc = StrFormat("acc%d", fold_counter++);
      decls_ << StrFormat("  %s %s = (%s)(%s);\n", CType(e.type), acc.c_str(),
                          CType(e.type), init_expr.c_str());
      AVM_ASSIGN_OR_RETURN(
          PrimProgram prog,
          NormalizeVerified(*e.args[0], {e.type, e.args[2]->type}));
      AVM_ASSIGN_OR_RETURN(std::string r, EmitPrim(prog, {acc, v}));
      Body() << StrFormat("      %s = (%s)(%s);\n", acc.c_str(),
                          CType(e.type), r.c_str());
      const size_t slot = node_out_slot_.at(id);
      tail_ << StrFormat("  *(%s*)out[%zu] = %s;\n", CType(e.type), slot,
                         acc.c_str());
      tail_ << StrFormat("  out_counts[%zu] = 1;\n", slot);
      continue;
    }

    AVM_ASSIGN_OR_RETURN(std::string v, ValueOf(id));

    // Escaping value store.
    auto slot_it = node_out_slot_.find(id);
    if (slot_it != node_out_slot_.end()) {
      const size_t slot = slot_it->second;
      const TraceOutputSpec& spec = out_.outputs[slot];
      post_filter_mode_ =
          !in_pos_loop_ && (DependsOnFilter(id) ||
                            node.kind == SkeletonKind::kCondense);
      Body() << StrFormat("      ((%s*)out[%zu])[%s] = (%s)(%s);\n",
                          CType(spec.type), slot,
                          spec.condensed ? "cnt" : "i", CType(spec.type),
                          v.c_str());
      counts_ << StrFormat("  out_counts[%zu] = %s;\n", slot,
                           spec.condensed ? "cnt" : "n");
    }
  }
  in_pos_loop_ = false;

  // Count bump at the very end of the selected path.
  if (needs_cnt) post_ << "      ++cnt;\n";
  return Status::OK();
}

Result<GeneratedTrace> TraceEmitter::Run() {
  for (uint32_t id : trace_.node_ids) trace_node_set_.insert(id);
  for (const auto& n : graph_.nodes()) expr_to_node_[n.expr] = n.id;
  out_.covered_stmt_ids = facts_.covered_stmt_ids;
  out_.anchor_stmt_id = facts_.anchor_stmt_id;
  out_.sel_inputs.assign(facts_.sel_inputs.begin(), facts_.sel_inputs.end());
  AVM_RETURN_NOT_OK(AssignInputsOutputs());
  AVM_RETURN_NOT_OK(EmitNodes());

  // Derive the symbol from the generated content: identical traces (same
  // nodes, same specialization) produce identical translation units, so the
  // source-JIT cache deduplicates compilations across VM instances.
  uint64_t h = HashString(decls_.str());
  h = HashCombine(h, HashString(posloop_.str()));
  h = HashCombine(h, HashString(pre_.str()));
  h = HashCombine(h, HashString(guard_.str()));
  h = HashCombine(h, HashString(post_.str()));
  h = HashCombine(h, HashString(counts_.str()));
  h = HashCombine(h, HashString(tail_.str()));
  for (const auto& in : out_.inputs) {
    h = HashCombine(h, HashString(in.name));
    h = HashCombine(h, static_cast<uint64_t>(in.kind));
  }
  for (const auto& o : out_.outputs) {
    h = HashCombine(h, HashString(o.name));
    h = HashCombine(h, static_cast<uint64_t>(o.kind));
    h = HashCombine(h, static_cast<uint64_t>(o.condensed));
    h = HashCombine(h, static_cast<uint64_t>(o.sel_dependent));
    h = HashCombine(h, HashString(o.result_var));
  }
  for (const auto& s : out_.sel_inputs) h = HashCombine(h, HashString(s));
  out_.symbol = StrFormat("avm_trace_%016llx", (unsigned long long)h);
  out_.name = StrFormat("trace_%llx[", (unsigned long long)(h >> 40));
  for (uint32_t id : trace_.node_ids) {
    out_.name += graph_.nodes()[id].label + ";";
  }
  if (sel_mode_) out_.name += "|sel";
  out_.name += "]";

  std::ostringstream src;
  src << kPreamble << "// trace: " << out_.name << "\n";
  src << "extern \"C\" int32_t " << out_.symbol
      << "(const TraceCallArgs* args) {\n"
      << "  const void* const* in = args->in; (void)in;\n"
      << "  void* const* out = args->out; (void)out;\n"
      << "  const int64_t* ci = args->ci; (void)ci;\n"
      << "  const double* cf = args->cf; (void)cf;\n"
      << "  const uint64_t* in_lens = args->in_lens; (void)in_lens;\n"
      << "  const uint64_t* out_lens = args->out_lens; (void)out_lens;\n"
      << "  const uint32_t n = args->n; (void)n;\n"
      << "  const uint32_t sel_n = args->sel_n; (void)sel_n;\n"
      << "  uint32_t* out_counts = args->out_counts; (void)out_counts;\n"
      << "  int64_t* scalars = args->scalars; (void)scalars;\n"
      << decls_.str();
  if (!sel_mode_) {
    // Positional variant: one fused loop over every chunk row.
    src << "  for (uint32_t i = 0; i < n; ++i) {\n"
        << pre_.str() << guard_.str() << post_.str()
        << "  }\n";
  } else {
    // Selection-carrying variant: a positional pass over all rows for
    // selection-independent work, then the selected pass `i = sel[j]`.
    if (!posloop_.str().empty()) {
      src << "  for (uint32_t i = 0; i < n; ++i) {\n"
          << posloop_.str()
          << "  }\n";
    }
    src << "  for (uint32_t j = 0; j < sel_n; ++j) {\n"
        << "    const uint32_t i = args->sel[j]; (void)i;\n"
        << pre_.str() << guard_.str() << post_.str()
        << "  }\n";
  }
  src << counts_.str();
  src << tail_.str();
  src << "  return 0;\n}\n";
  out_.source = src.str();
  return std::move(out_);
}

}  // namespace

Result<GeneratedTrace> GenerateTrace(
    const dsl::Program& program, const ir::DepGraph& graph,
    const ir::Trace& trace, const analysis::TraceVerification& verified,
    const CodegenOptions& options) {
  if (!verified.clean()) {
    return Status::Internal("GenerateTrace needs a clean verification: " +
                            verified.diagnostics.front().ToString());
  }
  return TraceEmitter(program, graph, trace, verified.facts, options).Run();
}

}  // namespace avm::jit
