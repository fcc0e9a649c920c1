#include "analysis/verify_trace.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/prim.h"
#include "util/string_util.h"

namespace avm::analysis {
namespace {

using dsl::Expr;
using dsl::ExprKind;
using dsl::ScalarOp;
using dsl::SkeletonKind;
using dsl::StmtKind;
using dsl::StmtPtr;
using ir::ArgKind;
using ir::DepGraph;
using ir::DepNode;
using ir::Trace;

/// Runs every compilability rule over one trace, emitting a rule-id'd
/// Diagnostic per violation and recording the facts code generation emits
/// from (TraceFacts). Passes run in a fixed order — statements, selection
/// dependence, per-node shape, boundary, value arguments — so the FIRST
/// diagnostic is the decline the VM reports.
class TraceVerifier {
 public:
  TraceVerifier(const dsl::Program& program, const DepGraph& graph,
                const Trace& trace, const TraceContext& ctx,
                TraceVerification* out)
      : program_(program), graph_(graph), trace_(trace), ctx_(ctx),
        out_(out), facts_(out->facts) {}

  void Run() {
    AnalyzeStatements();
    ComputeSelDependence();
    Validate();
    CheckInputsOutputs();
    CheckValueArgs();
  }

 private:
  void Add(std::string rule, std::string message, std::string hint,
           int node_id = -1) {
    Diagnostic d;
    d.rule_id = std::move(rule);
    d.message = std::move(message);
    d.fix_hint = std::move(hint);
    d.node_id = node_id;
    if (node_id >= 0) {
      d.stmt_index =
          static_cast<int>(graph_.nodes()[static_cast<size_t>(node_id)]
                               .stmt_index);
    }
    out_->diagnostics.push_back(std::move(d));
  }

  bool InTrace(uint32_t id) const { return trace_node_set_.contains(id); }
  bool SelDependent(uint32_t id) const {
    return facts_.sel_dependent.contains(id);
  }
  /// Whether `node_id` consumes the filter found so far, directly or
  /// through in-trace nodes.
  bool DependsOnFilter(uint32_t node_id) const {
    const int filter = facts_.filter_node;
    if (filter < 0) return false;
    if (node_id == static_cast<uint32_t>(filter)) return false;
    std::vector<uint32_t> stack{node_id};
    std::set<uint32_t> seen;
    while (!stack.empty()) {
      uint32_t id = stack.back();
      stack.pop_back();
      for (uint32_t in : graph_.nodes()[id].inputs) {
        if (in == static_cast<uint32_t>(filter)) return true;
        if (seen.insert(in).second && InTrace(in)) stack.push_back(in);
      }
    }
    return false;
  }

  void AnalyzeStatements();
  void ComputeSelDependence();
  void Validate();
  void CheckInputsOutputs();
  void CheckValueArgs();
  void CheckValueArg(const DepNode& node, const Expr& arg);

  const dsl::Program& program_;
  const DepGraph& graph_;
  const Trace& trace_;
  const TraceContext& ctx_;
  TraceVerification* out_;
  TraceFacts& facts_;

  std::unordered_set<uint32_t> trace_node_set_;
  std::unordered_map<const Expr*, uint32_t> expr_to_node_;
  /// (body-statement ordinal, var) of every scalar assignment in the loop
  /// body — the capture-freshness rules.
  std::vector<std::pair<uint32_t, std::string>> body_assigns_;
  bool sel_mode_ = false;
};

void TraceVerifier::AnalyzeStatements() {
  for (uint32_t id : trace_.node_ids) trace_node_set_.insert(id);
  for (const auto& n : graph_.nodes()) expr_to_node_[n.expr] = n.id;

  const std::vector<StmtPtr>* body = &program_.stmts;
  for (const auto& s : program_.stmts) {
    if (s->kind == StmtKind::kLoop) {
      body = &s->body;
      break;
    }
  }

  std::function<void(const std::vector<StmtPtr>&)> collect =
      [&](const std::vector<StmtPtr>& stmts) {
        for (const auto& s : stmts) {
          if (s->kind == StmtKind::kLet && s->expr) {
            facts_.let_types[s->var] = s->expr->type;
          }
          collect(s->body);
          collect(s->else_body);
        }
      };
  collect(program_.stmts);

  uint32_t ord = 0;
  for (const auto& s : *body) {
    std::function<void(const dsl::Stmt&)> scan = [&](const dsl::Stmt& st) {
      if (st.kind == StmtKind::kAssign || st.kind == StmtKind::kMutDef) {
        body_assigns_.emplace_back(ord, st.var);
      }
      for (const auto& c : st.body) scan(*c);
      for (const auto& c : st.else_body) scan(*c);
    };
    scan(*s);
    ++ord;
  }

  // Statement coverage: a trace must cover every skeleton node of each
  // statement it touches, and at least one statement overall. The first
  // covered statement anchors the injection.
  for (const auto& s : *body) {
    if (s->expr == nullptr) continue;
    std::vector<uint32_t> stmt_nodes;
    std::function<void(const Expr&)> walk = [&](const Expr& e) {
      auto it = expr_to_node_.find(&e);
      if (it != expr_to_node_.end()) stmt_nodes.push_back(it->second);
      for (const auto& a : e.args) walk(*a);
      if (e.body) walk(*e.body);
    };
    walk(*s->expr);
    if (stmt_nodes.empty()) continue;
    size_t inside = 0;
    for (uint32_t id : stmt_nodes) {
      if (InTrace(id)) ++inside;
    }
    if (inside == 0) continue;
    if (facts_.covered_stmt_ids.empty()) facts_.anchor_stmt_id = s->id;
    facts_.covered_stmt_ids.push_back(s->id);
    if (inside != stmt_nodes.size()) {
      Add("trace-stmt-alignment",
          "trace does not align with statement boundaries (a statement's "
          "skeleton nodes are only partially covered)",
          "extend or shrink the region to whole statements",
          static_cast<int>(stmt_nodes.front()));
    }
  }
  if (facts_.covered_stmt_ids.empty()) {
    Add("trace-empty", "trace covers no statements",
        "a compilable trace must cover at least one loop-body statement");
  }
}

void TraceVerifier::ComputeSelDependence() {
  // The selection-carrying inputs this trace actually consumes: chunk-var
  // inputs (non-data boundary names) the VM observed a selection on.
  for (const auto& name : trace_.inputs) {
    if (program_.FindData(name) != nullptr) continue;
    if (ctx_.sel_inputs.contains(name)) facts_.sel_inputs.insert(name);
  }
  sel_mode_ = !facts_.sel_inputs.empty();
  if (!sel_mode_) return;

  // A node is selection-dependent when it references a selection-carrying
  // chunk input or consumes an in-trace node that is. trace_.node_ids is in
  // topological order, so one pass suffices.
  for (uint32_t id : trace_.node_ids) {
    const DepNode& n = graph_.nodes()[id];
    bool dep = false;
    std::function<void(const Expr&)> walk = [&](const Expr& e) {
      if (e.kind == ExprKind::kVarRef && facts_.sel_inputs.contains(e.var)) {
        dep = true;
      }
      for (const auto& a : e.args) {
        if (a->kind != ExprKind::kLambda) walk(*a);
      }
    };
    walk(*n.expr);
    for (uint32_t in : n.inputs) {
      if (InTrace(in) && SelDependent(in)) dep = true;
    }
    if (dep) facts_.sel_dependent.insert(id);
  }
}

void TraceVerifier::Validate() {
  // Statement convexity (the stale-selection miscompile family): the trace
  // runs all at once at its anchor statement, so every value entering it
  // must be produced before that statement. The partitioner keeps its
  // regions convex with the same helper; this rule covers every trace.
  const int violation = ir::StmtConvexityViolation(graph_, trace_.node_ids);
  if (violation >= 0) {
    Add("trace-not-convex",
        StrFormat("trace is not statement-convex: it conflicts with '%s' "
                  "across its statement span (stale-value hazard)",
                  graph_.nodes()[static_cast<size_t>(violation)]
                      .label.c_str()),
        "include the conflicting statement in the trace or split the trace",
        violation);
  }

  // Capture freshness (the stale-cursor miscompile family): the harness
  // resolves captured scalars BEFORE the call, so a capture produced or
  // reassigned inside the covered span would be one iteration stale. One
  // produced or assigned AFTER the span is loop-carried: interpretation
  // reads the previous iteration's value at the covered statements too.
  uint32_t anchor = UINT32_MAX, last = 0;
  for (uint32_t id : trace_.node_ids) {
    anchor = std::min(anchor, graph_.nodes()[id].stmt_index);
    last = std::max(last, graph_.nodes()[id].stmt_index);
  }
  std::set<std::string> captures;
  std::function<void(const Expr&, std::set<std::string>&)> walk =
      [&](const Expr& e, std::set<std::string>& bound) {
        if (e.kind == ExprKind::kVarRef) {
          if (e.shape == dsl::Shape::kScalar && !bound.contains(e.var)) {
            captures.insert(e.var);
          }
          return;
        }
        if (e.kind == ExprKind::kLambda) {
          std::set<std::string> inner = bound;
          for (const auto& p : e.params) inner.insert(p);
          if (e.body) walk(*e.body, inner);
          return;
        }
        for (const auto& a : e.args) walk(*a, bound);
        if (e.body) walk(*e.body, bound);
      };
  std::set<std::string> no_bound;
  for (uint32_t id : trace_.node_ids) {
    walk(*graph_.nodes()[id].expr, no_bound);
  }
  for (const std::string& name : captures) {
    const int prod = graph_.ProducerOf(name);
    if (prod >= 0 &&
        graph_.nodes()[static_cast<size_t>(prod)].stmt_index >= anchor &&
        graph_.nodes()[static_cast<size_t>(prod)].stmt_index <= last) {
      Add("capture-stale-produced",
          StrFormat("captured scalar '%s' is produced inside the trace's "
                    "statement span (the capture would be one iteration "
                    "stale)",
                    name.c_str()),
          "exclude the producing statement or the capturing one", prod);
    }
    for (const auto& [ord, var] : body_assigns_) {
      if (var == name && ord >= anchor && ord <= last) {
        Add("capture-stale-reassigned",
            StrFormat("captured scalar '%s' is reassigned inside the "
                      "trace's statement span (the capture would be stale)",
                      name.c_str()),
            "shrink the trace to end before the reassignment");
      }
    }
  }

  // Per-node shape rules, in trace order. The filter node is recorded when
  // the walk reaches it; in the partitioner's topological order, nodes
  // before it cannot depend on it.
  int filters = 0;
  for (uint32_t id : trace_.node_ids) {
    const DepNode& n = graph_.nodes()[id];
    switch (n.kind) {
      case SkeletonKind::kRead:
      case SkeletonKind::kMap:
      case SkeletonKind::kFold:
      case SkeletonKind::kWrite:
        break;
      case SkeletonKind::kGather: {
        // Compiled gathers bounds-check each index against the base length
        // in the frame; a chunk-array base's length is not in the frame.
        const Expr& base = *n.expr->args[0];
        if (base.kind != ExprKind::kVarRef ||
            program_.FindData(base.var) == nullptr) {
          Add("gather-base-not-data",
              "gather base must be a data array (chunk-array bases stay "
              "interpreted)",
              "gathers over chunk values are not compilable; leave the "
              "node out of the trace",
              static_cast<int>(id));
        }
        break;
      }
      case SkeletonKind::kScatter: {
        const Expr& dest = *n.expr->args[0];
        if (dest.kind != ExprKind::kVarRef ||
            program_.FindData(dest.var) == nullptr) {
          Add("scatter-dest-not-data",
              "scatter destination must be a data array",
              "scatters into chunk values stay interpreted",
              static_cast<int>(id));
          break;
        }
        // The conflict function (none = overwrite) must normalize to one
        // add/min/max of (old, new) — the interpreter's kernel restriction.
        ScalarOp combine = ScalarOp::kCast;
        if (n.expr->args.size() == 4) {
          auto prog = ir::Normalize(*n.expr->args[3],
                                    {program_.FindData(dest.var)->type,
                                     n.expr->args[2]->type});
          const bool ok =
              prog.ok() && prog.ValueOrDie().instrs.size() == 1 &&
              prog.ValueOrDie().result_is_input < 0 &&
              (prog.ValueOrDie().instrs[0].op == ScalarOp::kAdd ||
               prog.ValueOrDie().instrs[0].op == ScalarOp::kMin ||
               prog.ValueOrDie().instrs[0].op == ScalarOp::kMax) &&
              prog.ValueOrDie().instrs[0].num_args == 2 &&
              prog.ValueOrDie().instrs[0].args[0].kind == ArgKind::kInput &&
              prog.ValueOrDie().instrs[0].args[0].index == 0 &&
              prog.ValueOrDie().instrs[0].args[1].kind == ArgKind::kInput &&
              prog.ValueOrDie().instrs[0].args[1].index == 1;
          if (ok) {
            combine = prog.ValueOrDie().instrs[0].op;
          } else {
            Add("scatter-conflict-fn",
                "scatter conflict function must be a single add/min/max of "
                "(old, new)",
                "rewrite the conflict lambda as old+new, min, or max",
                static_cast<int>(id));
          }
        }
        facts_.scatter_combine[id] = combine;
        // Index-domain agreement (the scatter index-domain miscompile
        // family): the interpreter iterates the INDEX's selection, the
        // compiled loop iterates the node's restriction — they must match.
        auto restriction = [&](const Expr& a) -> int {
          int prod = -1;
          if (a.kind == ExprKind::kVarRef) {
            if (facts_.sel_inputs.contains(a.var)) return 1;
            prod = graph_.ProducerOf(a.var);
          } else if (a.kind == ExprKind::kSkeleton) {
            auto it = expr_to_node_.find(&a);
            if (it != expr_to_node_.end()) {
              prod = static_cast<int>(it->second);
            }
          }
          if (prod < 0 || !InTrace(static_cast<uint32_t>(prod))) return 0;
          const uint32_t p = static_cast<uint32_t>(prod);
          if (DependsOnFilter(p)) return 2;
          return SelDependent(p) ? 1 : 0;
        };
        const int node_level = DependsOnFilter(id) ? 2
                               : SelDependent(id) ? 1
                                                  : 0;
        if (restriction(*n.expr->args[1]) != node_level) {
          Add("scatter-index-domain",
              "scatter index selection must match the scatter's iteration "
              "domain (the interpreter iterates the index's selection)",
              "derive the index from the same filtered/selected stream as "
              "the scatter's value",
              static_cast<int>(id));
        }
        break;
      }
      case SkeletonKind::kFilter:
        ++filters;
        facts_.filter_node = static_cast<int>(id);
        for (uint32_t c : n.consumers) {
          if (!InTrace(c)) {
            Add("filter-sel-escape", "filter output escapes the trace",
                "selection vectors do not cross the compiled-code "
                "boundary; include every consumer in the trace",
                static_cast<int>(id));
            break;
          }
        }
        if (sel_mode_ && !SelDependent(id)) {
          Add("filter-positional-in-sel-trace",
              "filter over a positional input cannot join a "
              "selection-carrying trace",
              "the filter would mint a selection unrelated to the incoming "
              "one; split it into its own trace",
              static_cast<int>(id));
        }
        break;
      case SkeletonKind::kCondense: {
        const bool from_filter =
            n.inputs.size() == 1 && InTrace(n.inputs[0]) &&
            graph_.nodes()[n.inputs[0]].kind == SkeletonKind::kFilter;
        if (!from_filter && !(sel_mode_ && SelDependent(id))) {
          Add("condense-no-source",
              "condense without its filter (or a selection-carrying "
              "input) in the same trace",
              "keep the condense and its selection producer in one trace",
              static_cast<int>(id));
        }
        break;
      }
      case SkeletonKind::kExpand:
        Add("expand-in-trace",
            "expand fan-out has a data-dependent output length (hash-join "
            "probe stays interpreted)",
            "the fixed-width trace ABI cannot carry fan-out; leave expand "
            "interpreted",
            static_cast<int>(id));
        break;
      default:
        Add("skeleton-unsupported",
            StrFormat("skeleton %s not supported in compiled traces",
                      dsl::SkeletonName(n.kind)),
            "gen/merge/len nodes stay interpreted", static_cast<int>(id));
        break;
    }
  }
  if (filters > 1) {
    Add("filter-multiple", "more than one filter per trace",
        "the fused loop carries a single guard; split the trace at the "
        "second filter");
  }
  for (uint32_t id : trace_.node_ids) {
    if (DependsOnFilter(id)) facts_.filter_dependent.insert(id);
  }
  if (sel_mode_ && facts_.filter_node >= 0) {
    // The sel-republish-bypass miscompile family: with an in-trace filter,
    // condensed stores share the guard — a selection-carrying write or
    // condense that bypasses the filter would store only guard survivors
    // where interpretation stores every selected row.
    for (uint32_t id : trace_.node_ids) {
      const DepNode& n = graph_.nodes()[id];
      if ((n.kind == SkeletonKind::kWrite ||
           n.kind == SkeletonKind::kCondense) &&
          SelDependent(id) && !facts_.filter_dependent.contains(id)) {
        Add("condense-bypass",
            "write/condense of a selection-carrying value that bypasses "
            "the in-trace filter",
            "route the value through the filter or split the trace",
            static_cast<int>(id));
      }
    }
  }
  // Escaping post-filter values must be condense nodes.
  for (uint32_t id : trace_.node_ids) {
    const DepNode& n = graph_.nodes()[id];
    if (n.kind == SkeletonKind::kWrite || n.kind == SkeletonKind::kScatter) {
      continue;
    }
    bool escapes = false;
    for (uint32_t c : n.consumers) {
      if (!InTrace(c)) escapes = true;
    }
    std::string name = graph_.OutputNameOf(id);
    for (const auto& o : trace_.outputs) {
      if (o == name) escapes = true;
    }
    if (escapes && facts_.filter_dependent.contains(id) &&
        n.kind != SkeletonKind::kCondense) {
      Add("postfilter-escape-no-condense",
          "post-filter value escapes the trace without condense",
          "condense the survivors before they leave the trace",
          static_cast<int>(id));
    }
  }
}

void TraceVerifier::CheckInputsOutputs() {
  // Chunk-variable inputs must be let-bound (known element type).
  for (const auto& name : trace_.inputs) {
    if (program_.FindData(name) != nullptr) continue;
    if (!facts_.let_types.contains(name)) {
      Add("input-unknown",
          StrFormat("unknown trace input '%s' (not a data array, not "
                    "let-bound)",
                    name.c_str()),
          "every chunk-variable input needs a let binding for its type");
    }
  }
  // Read positions and write positions must be affine (const or variable).
  for (uint32_t id : trace_.node_ids) {
    const DepNode& n = graph_.nodes()[id];
    const Expr* pos = nullptr;
    if (n.kind == SkeletonKind::kRead && !n.expr->args.empty()) {
      pos = n.expr->args[0].get();
    } else if (n.kind == SkeletonKind::kWrite && n.expr->args.size() >= 2) {
      pos = n.expr->args[1].get();
    }
    if (pos != nullptr && pos->kind != ExprKind::kConst &&
        pos->kind != ExprKind::kVarRef) {
      Add("pos-not-affine",
          "read/write position must be a variable or constant for "
          "compilation",
          "hoist the position computation into a scalar let",
          static_cast<int>(id));
    }
  }
}

void TraceVerifier::CheckValueArg(const DepNode& node, const Expr& arg) {
  switch (arg.kind) {
    case ExprKind::kConst:
      return;
    case ExprKind::kSkeleton: {
      auto it = expr_to_node_.find(&arg);
      if (it == expr_to_node_.end() || !InTrace(it->second)) {
        Add("nested-skeleton-outside",
            "nested skeleton argument resolves outside the trace",
            "cover the producing node or bind it through a let",
            static_cast<int>(node.id));
      }
      return;
    }
    case ExprKind::kVarRef: {
      if (arg.shape == dsl::Shape::kScalar) return;  // capture
      const int prod = graph_.ProducerOf(arg.var);
      if (prod >= 0 && InTrace(static_cast<uint32_t>(prod))) return;
      // Must be a chunk-variable boundary input.
      for (const auto& in : trace_.inputs) {
        if (in == arg.var && program_.FindData(arg.var) == nullptr) return;
      }
      Add("value-unresolved",
          StrFormat("unresolved trace value '%s' (not produced in-trace, "
                    "not a boundary input)",
                    arg.var.c_str()),
          "the partitioner must list the value as a trace input",
          static_cast<int>(node.id));
      return;
    }
    default:
      Add("arg-unsupported", "unsupported argument expression",
          "value arguments must be constants, variables, or skeletons",
          static_cast<int>(node.id));
  }
}

void TraceVerifier::CheckValueArgs() {
  for (uint32_t id : trace_.node_ids) {
    const DepNode& n = graph_.nodes()[id];
    const Expr& e = *n.expr;
    auto normalize = [&](const Expr& lambda, std::vector<TypeId> in_types,
                         const char* what) {
      auto r = ir::Normalize(lambda, in_types);
      if (!r.ok()) {
        Add("prim-normalize",
            StrFormat("%s lambda does not normalize: %s", what,
                      r.status().message().c_str()),
            "restrict the lambda to the supported scalar-op forms",
            static_cast<int>(id));
      }
    };
    switch (n.kind) {
      case SkeletonKind::kMap: {
        std::vector<TypeId> in_types;
        for (size_t i = 1; i < e.args.size(); ++i) {
          CheckValueArg(n, *e.args[i]);
          in_types.push_back(e.args[i]->type);
        }
        if (!e.args.empty()) normalize(*e.args[0], in_types, "map");
        break;
      }
      case SkeletonKind::kFilter:
        if (e.args.size() >= 2) {
          CheckValueArg(n, *e.args[1]);
          normalize(*e.args[0], {e.args[1]->type}, "filter");
        }
        break;
      case SkeletonKind::kCondense:
        if (!e.args.empty()) CheckValueArg(n, *e.args[0]);
        break;
      case SkeletonKind::kGather:
        if (e.args.size() >= 2) CheckValueArg(n, *e.args[1]);
        break;
      case SkeletonKind::kWrite:
        if (e.args.size() >= 3) CheckValueArg(n, *e.args[2]);
        break;
      case SkeletonKind::kScatter:
        if (e.args.size() >= 3) {
          CheckValueArg(n, *e.args[1]);
          CheckValueArg(n, *e.args[2]);
        }
        break;
      case SkeletonKind::kFold:
        if (e.args.size() >= 3) {
          const Expr& init = *e.args[1];
          if (init.kind != ExprKind::kConst &&
              init.kind != ExprKind::kVarRef) {
            Add("fold-init-shape", "fold init must be const or variable",
                "hoist the init expression into a scalar let",
                static_cast<int>(id));
          }
          CheckValueArg(n, *e.args[2]);
          normalize(*e.args[0], {e.type, e.args[2]->type}, "fold");
        }
        break;
      default:
        break;
    }
  }
}

}  // namespace

Status TraceVerification::AsStatus() const {
  if (clean()) return Status::OK();
  return Status::NotImplemented(diagnostics.front().ToString());
}

TraceVerification VerifyTrace(const dsl::Program& program,
                              const DepGraph& graph, const Trace& trace,
                              const TraceContext& ctx) {
  TraceVerification result;
  TraceVerifier(program, graph, trace, ctx, &result).Run();
  return result;
}

}  // namespace avm::analysis
