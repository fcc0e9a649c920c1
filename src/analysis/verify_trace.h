// Level-2 static verifier: trace compilability (docs/VERIFIER.md).
//
// VerifyTrace is the JIT's only gate: every rule deciding whether a
// candidate trace region compiles is written here, once — statement
// coverage and convexity (via ir::StmtConvexityViolation), capture
// staleness, the single-filter/condense selection discipline, scatter
// index-domain and conflict-function restrictions, affine read/write
// positions, gather and scatter base shapes, and value-argument
// resolvability. Each rule carries a stable rule id; the rule table in
// docs/VERIFIER.md lists them with the reason each shape stays interpreted.
//
// A clean verification also carries the facts its passes established
// (TraceFacts). jit::GenerateTrace accepts only a clean verification and
// emits from those facts without re-deriving any rule.
// AdaptiveVm::InstallTrace runs the gate once per candidate trace; a
// reject's first diagnostic, rule id included, is the decline the VM
// reports (VmReport::jit_declined).
#pragma once

#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/diagnostic.h"
#include "dsl/ast.h"
#include "ir/depgraph.h"
#include "util/status.h"

namespace avm::analysis {

/// The part of the trace's situation that affects compilability: which
/// chunk-variable inputs arrive carrying a selection vector (compression
/// schemes only change how inputs are read, never whether a trace
/// compiles).
struct TraceContext {
  /// Chunk-variable inputs observed to carry a selection vector.
  std::set<std::string> sel_inputs;
};

/// What the verifier's passes establish about a trace: everything code
/// generation needs beyond the graph itself. Meaningful only for a clean
/// verification.
struct TraceFacts {
  /// Ids of the loop-body statements the trace covers, in body order.
  std::vector<uint32_t> covered_stmt_ids;
  /// The first covered statement, where the injection runs.
  uint32_t anchor_stmt_id = 0;
  /// The TraceContext::sel_inputs this trace consumes as chunk-variable
  /// inputs; non-empty selects the selection-carrying variant.
  std::set<std::string> sel_inputs;
  /// Trace nodes that depend on a selection-carrying input.
  std::unordered_set<uint32_t> sel_dependent;
  /// The trace's filter node, -1 when it has none.
  int filter_node = -1;
  /// Trace nodes downstream of filter_node (defined only at survivors).
  std::unordered_set<uint32_t> filter_dependent;
  /// Conflict op of every scatter node: kAdd/kMin/kMax, or kCast for a
  /// plain overwrite (no conflict function).
  std::unordered_map<uint32_t, dsl::ScalarOp> scatter_combine;
  /// Element type of every let-bound value of the program.
  std::unordered_map<std::string, TypeId> let_types;
};

/// VerifyTrace's result: every diagnostic, plus the facts code generation
/// emits from.
struct TraceVerification : VerifyResult {
  TraceFacts facts;

  /// The gate's verdict: OK when clean, otherwise the decline —
  /// NotImplemented carrying the first diagnostic, rule id included
  /// ("[gather-base-not-data] gather base must be ...").
  Status AsStatus() const;
};

/// Verify that `trace` (a region of `graph`, built from `program`) is
/// compilable under `ctx`, collecting every violated rule.
TraceVerification VerifyTrace(const dsl::Program& program,
                              const ir::DepGraph& graph,
                              const ir::Trace& trace,
                              const TraceContext& ctx = {});

}  // namespace avm::analysis
