// C++ code generation for traces (Section III-B "partial compilation").
//
// A trace — a connected region of the dependency graph selected by the
// greedy partitioner — is compiled into one fused loop: reads become pointer
// dereferences, maps become inlined scalar expressions (deforestation: no
// intermediate arrays), at most one filter becomes a branch, condensed
// outputs append under a running count, folds become loop-carried
// accumulators. The generated function uses a stable C ABI so the VM can
// inject it into the interpreter ("Inject functions" in Fig. 1).
//
// Code generation only emits: whether a trace compiles is decided by
// analysis::VerifyTrace alone, and GenerateTrace consumes its verdict.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/verify_trace.h"
#include "dsl/ast.h"
#include "ir/depgraph.h"
#include "jit/trace_abi.h"
#include "storage/compression.h"
#include "util/status.h"

namespace avm::jit {

/// Self-contained read/write position: a scalar variable of the environment
/// or a constant. Deliberately NOT a pointer into the program AST — a
/// compiled trace is self-contained data that a query's vm::TracePlan hands
/// to every morsel VM of its program.
struct PosRef {
  enum class Kind : uint8_t { kNone = 0, kConst, kVar };
  Kind kind = Kind::kNone;
  int64_t const_i = 0;
  std::string var;

  bool valid() const { return kind != Kind::kNone; }
  std::string ToString() const {
    if (kind == Kind::kConst) return std::to_string(const_i);
    return kind == Kind::kVar ? var : "<none>";
  }
  /// From a position expression verification proved affine (variable or
  /// constant); anything else is an Internal error.
  static Result<PosRef> From(const dsl::Expr& e);
};

/// How an input pointer must be produced by the run-time harness.
struct TraceInputSpec {
  enum class Kind : uint8_t {
    kChunkVar,   ///< a let-bound chunk array from the environment
    kDataRead,   ///< window of a data array at a read node's position
    kForDeltas,  ///< FOR-compressed deltas (uint32) of a data array window
    kDataWhole,  ///< entire raw data array (gather base)
  };
  Kind kind = Kind::kChunkVar;
  std::string name;                      ///< variable or data array name
  TypeId type = TypeId::kI64;            ///< element type seen by the code
  PosRef pos;                            ///< position (kDataRead/kForDeltas)
};

/// How an output buffer must be interpreted after the call.
struct TraceOutputSpec {
  enum class Kind : uint8_t {
    kArrayVar,     ///< escaping chunk value: bind `name` to the buffer
    kDataWrite,    ///< window of a writable data array at a position
    kDataScatter,  ///< whole writable data array, scattered into by index
    kFoldScalar,   ///< 8-byte scalar accumulator: bind `name`
  };
  Kind kind = Kind::kArrayVar;
  std::string name;                      ///< produced variable / data array
  TypeId type = TypeId::kI64;
  bool condensed = false;                ///< count comes from out_counts
  PosRef pos;                            ///< kDataWrite position
  /// True when the producing node depends (transitively) on a
  /// selection-carrying chunk input: the harness republishes the incoming
  /// selection onto this output (non-condensed array outputs only), exactly
  /// as vectorized interpretation would.
  bool sel_dependent = false;
  /// Let-bound scalar result name (kDataWrite/kDataScatter): the written /
  /// processed tuple count the program binds (condensing-output cursors).
  /// The harness publishes `scalars[k]` into the environment under this
  /// name after a successful call. Empty = the count is not consumed.
  std::string result_var;
};

/// One emitted trace: the C++ translation unit and its entry symbol, plus
/// the frame layout (inputs, outputs, captures) and the situation
/// (schemes, selection-carrying inputs) the injection harness needs to call
/// it and to check it still applies.
struct GeneratedTrace {
  std::string source;   ///< complete C++ translation unit
  std::string symbol;   ///< extern "C" entry point
  std::vector<TraceInputSpec> inputs;
  std::vector<TraceOutputSpec> outputs;
  /// Captured scalar environment variables, with their widened slot.
  std::vector<std::pair<std::string, TypeId>> captures_i;
  std::vector<std::pair<std::string, TypeId>> captures_f;
  /// FOR-specialized reads: data name -> expected scheme (applicability).
  std::map<std::string, Scheme> scheme_requirements;
  /// Chunk-variable inputs this trace was specialized to receive WITH a
  /// selection vector (sorted). Non-empty = the selection-carrying variant:
  /// the harness must pass the (shared) selection of these inputs as
  /// sel/sel_n, and applicability requires exactly these inputs (and no
  /// others) to carry one. Empty = the positional variant: applicability
  /// requires every chunk input to be selection-free.
  std::vector<std::string> sel_inputs;
  /// Statement ids of the loop body this trace covers.
  std::vector<uint32_t> covered_stmt_ids;
  uint32_t anchor_stmt_id = 0;
  std::string name;  ///< diagnostic label
};

/// Emission choices that never change whether a trace compiles. The
/// selection-carrying specialization is a verification input instead
/// (analysis::TraceContext), since it changes which rules apply.
struct CodegenOptions {
  /// Specialize reads of these data arrays for a compression scheme
  /// (currently kFor: operate on narrow deltas + reference; paper §III-C
  /// compressed execution). Missing entries decode to plain values.
  std::map<std::string, Scheme> scheme_specialization;
};

/// Generate the source of a verified trace. `verified` must be the clean
/// result of analysis::VerifyTrace for this very program, graph and trace:
/// its facts (covered statements, selection dependence, filter node,
/// scatter combine ops, let types) drive emission, and no rule is checked
/// again here. A dirty verification, or a shape that verification rules
/// out, returns Status::Internal — never a decline. Gathers and scatters
/// compile with generated bounds checks reporting through TraceFault;
/// let-bound write counts publish through the scalar-state slots. The
/// program must be type-checked.
Result<GeneratedTrace> GenerateTrace(
    const dsl::Program& program, const ir::DepGraph& graph,
    const ir::Trace& trace, const analysis::TraceVerification& verified,
    const CodegenOptions& options = {});

}  // namespace avm::jit
