// The vectorized DSL interpreter (Section III-A).
//
// Programs are executed chunk-at-a-time: `read` produces chunk-sized arrays,
// skeletons dispatch to pre-compiled kernels, filters attach selection
// vectors, and profiling information (cycles, calls, tuples, selectivities)
// is collected per operation so the VM can decide what to compile.
//
// Compiled traces are *injected* through AddInjection(): before executing a
// covered statement the interpreter calls the trace instead — this is the
// "Inject functions" edge of the Fig. 1 state machine.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "dsl/ast.h"
#include "interp/micro_adaptive.h"
#include "interp/prim_exec.h"
#include "interp/profiler.h"
#include "interp/value.h"
#include "ir/prim.h"
#include "storage/column.h"
#include "util/status.h"

namespace avm::interp {

/// Host storage bound to a program's `data` declaration: either a raw
/// in-memory array or a (compressed, read-only) column.
///
/// A binding may expose only a row *slice* of its backing storage — this is
/// how the engine layer hands each morsel worker its own row range. Raw
/// slices simply pre-offset the pointer; column slices carry `col_offset`,
/// which every column access adds to the program-visible position.
struct DataBinding {
  TypeId type = TypeId::kI64;
  bool writable = false;
  // Raw array binding:
  void* raw = nullptr;
  uint64_t len = 0;
  // Column binding (read-only):
  const Column* column = nullptr;
  /// First backing-column row this binding exposes (column bindings only).
  uint64_t col_offset = 0;

  static DataBinding Raw(TypeId t, void* data, uint64_t n,
                         bool writable = false) {
    DataBinding b;
    b.type = t;
    b.writable = writable;
    b.raw = data;
    b.len = n;
    return b;
  }
  static DataBinding FromColumn(const Column* col) {
    DataBinding b;
    b.type = col->type();
    b.writable = false;
    b.column = col;
    b.len = col->num_rows();
    return b;
  }
  /// Rows [offset, offset + n) of `col` as positions [0, n).
  static DataBinding ColumnSlice(const Column* col, uint64_t offset,
                                 uint64_t n) {
    DataBinding b = FromColumn(col);
    b.col_offset = offset;
    b.len = n;
    return b;
  }
};

class Interpreter;

/// A compiled trace injected into the interpreter. When the interpreter is
/// about to execute the statement with id `anchor_stmt_id`, it calls `run`,
/// which computes the bindings the covered statements would have produced,
/// and skips every statement in `covered_stmt_ids`. `run` is the trace's
/// one applicability check: it returns StatusCode::kUnavailable *before
/// producing any side effect* when the trace does not apply to the current
/// chunk, and the interpreter then tries the next trace installed at the
/// anchor. When every one declines, the covered statements are interpreted
/// and the chunk counts one fallback, on the first trace installed there.
/// Any other error fails the run.
struct InjectedTrace {
  std::string name;
  uint32_t anchor_stmt_id = 0;
  std::unordered_set<uint32_t> covered_stmt_ids;
  std::function<Status(Interpreter&)> run;
  /// Chunks this trace ran.
  uint64_t invocations = 0;
  /// Chunks interpreted while this was the first trace installed at its
  /// anchor: every trace there declined (the VM's
  /// fallback-to-interpretation counter).
  uint64_t fallbacks = 0;
};

/// Implementation flavor of the filter skeleton (micro-adaptivity, §III-C).
enum class FilterFlavor : uint8_t {
  kBranchless = 0,  ///< branch-free selection-vector append
  kBranching,       ///< branching append (predictable predicates)
  kFullCompute,     ///< bool map over all rows, then bool→selvec
  kAdaptive,        ///< per-filter-node micro-adaptive choice among the above
};

/// Settings of one Interpreter: its chunk size (rows per `read`), whether
/// it profiles each operation for the VM, its filter flavor and its
/// kernel tier.
struct InterpreterOptions {
  uint32_t chunk_size = kDefaultChunkSize;
  bool enable_profiling = true;
  FilterFlavor filter_flavor = FilterFlavor::kAdaptive;
  /// Kernel tier this interpreter dispatches to. kAuto resolves to the
  /// process-wide active tier (AVM_KERNEL_TIER override, else best
  /// supported); explicit requests clamp to what host + build can run.
  KernelTier kernel_tier = KernelTier::kAuto;
};

/// Executes one type-checked DSL program chunk at a time over the data
/// bound to it (file comment above). Installed traces run in place of the
/// statements they cover, each chunk for which their `run` accepts it
/// (InjectedTrace). Single-threaded: one interpreter per morsel VM.
class Interpreter {
 public:
  /// `program` must be type-checked and outlive the interpreter.
  Interpreter(const dsl::Program* program, InterpreterOptions options = {});

  /// Bind host storage to a `data` declaration.
  Status BindData(const std::string& name, DataBinding binding);

  /// Execute the whole program.
  Status Run();

  // --- environment access (also used by injected traces) -------------------
  Result<Value> GetVar(const std::string& name) const;
  void SetVar(const std::string& name, Value v);
  Result<ScalarValue> GetScalar(const std::string& name) const;
  DataBinding* FindBinding(const std::string& name);
  /// Const view of a binding (engine task hooks read per-task scratch
  /// windows through the interpreter after it finished).
  const DataBinding* FindBinding(const std::string& name) const;

  /// Allocate a chunk-sized array of `type` (len set by caller).
  ArrayPtr NewArray(TypeId type, uint32_t capacity = 0);

  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }
  const dsl::Program& program() const { return *program_; }
  uint32_t chunk_size() const { return options_.chunk_size; }
  uint64_t loop_iterations() const { return loop_iterations_; }

  /// Compression scheme observed by the most recent `read` of `name`
  /// (kPlain for raw bindings).
  Scheme LastSchemeOf(const std::string& name) const;

  /// Compressed column blocks this interpreter's streaming scan cursors
  /// read from — each `read` of a column binding goes through a
  /// per-binding ColumnChunkCursor that decodes only the rows it reads
  /// (scheme changes still flow through LastSchemeOf re-specialization).
  /// Summed into ExecReport::chunks_streamed.
  uint64_t chunks_streamed() const;

  // --- adaptivity hooks -----------------------------------------------------
  /// Install `trace`. Installed injections cover equal statement sets
  /// (variants of one region, told apart by their `run`) or disjoint
  /// ones: a trace publishes only the values that statements outside its
  /// own coverage name, so a trace anchored in another's statement span
  /// that shares statements with it could read a value the other left
  /// stale. Every installed injection whose covered statements intersect
  /// `trace`'s without being the same set is therefore removed first;
  /// the removed injections are returned with their counters.
  std::vector<InjectedTrace> AddInjection(InjectedTrace trace);
  const std::vector<InjectedTrace>& injections() const { return injections_; }

  /// Called after every loop iteration — the VM state machine's heartbeat.
  std::function<Status(Interpreter&, uint64_t iteration)> iteration_hook;

  /// Normalized lambda cache (shared with trace codegen).
  Result<const ir::PrimProgram*> PreparedLambda(
      const dsl::Expr& lambda, const std::vector<TypeId>& input_types);

  /// Flavor the adaptive chooser currently prefers for a filter node
  /// (observability for tests/benchmarks).
  FilterFlavor PreferredFilterFlavor(uint32_t filter_expr_id) const;

  /// Kernel tier the adaptive chooser currently prefers for a filter node:
  /// the interpreter's tier, or kScalar when a scalar fallback arm is
  /// winning (branching scalar can beat SIMD at very low selectivity).
  KernelTier PreferredFilterTier(uint32_t filter_expr_id) const;

  /// The kernel registry this interpreter dispatches to (resolved tier).
  const KernelRegistry& kernels() const { return *kernels_; }

 private:
  enum class Control : uint8_t { kNext, kBreak };

  Status ExecBlock(const std::vector<dsl::StmtPtr>& stmts, Control* ctl);
  /// ExecBlock's loop; stmts[i] is skipped when skip_[base + i] is set.
  Status ExecStmts(const std::vector<dsl::StmtPtr>& stmts, size_t base,
                   Control* ctl);
  Status ExecStmt(const dsl::Stmt& s, Control* ctl);
  Result<Value> EvalExpr(const dsl::Expr& e);
  Result<ScalarValue> EvalScalarExpr(const dsl::Expr& e);
  Result<Value> EvalSkeleton(const dsl::Expr& e);

  Result<Value> EvalRead(const dsl::Expr& e);
  Result<Value> EvalWrite(const dsl::Expr& e);
  Result<Value> EvalMap(const dsl::Expr& e);
  Result<Value> EvalFilter(const dsl::Expr& e);
  Result<Value> EvalFold(const dsl::Expr& e);
  Result<Value> EvalCondense(const dsl::Expr& e);
  Result<Value> EvalGather(const dsl::Expr& e);
  Result<Value> EvalScatter(const dsl::Expr& e);
  Result<Value> EvalGen(const dsl::Expr& e);
  Result<Value> EvalExpand(const dsl::Expr& e);
  Result<Value> EvalMerge(const dsl::Expr& e);

  CaptureResolver MakeCaptureResolver();

  const dsl::Program* program_;
  InterpreterOptions options_;
  std::unordered_map<std::string, Value> env_;
  std::unordered_map<std::string, DataBinding> bindings_;
  /// Streaming decode cursors for column bindings, keyed by binding name;
  /// (re)created lazily by EvalRead, invalidated by BindData.
  std::unordered_map<std::string, ColumnChunkCursor> column_cursors_;
  std::unordered_map<std::string, Scheme> last_scheme_;
  std::unordered_map<uint32_t, ir::PrimProgram> lambda_cache_;
  std::vector<InjectedTrace> injections_;
  /// One byte per statement of each block being executed, nested blocks
  /// on top: set when a trace that ran in that block execution covers the
  /// statement. A trace's anchor is the first statement it covers
  /// (analysis::VerifyTrace), and installed traces cover equal or disjoint
  /// sets (AddInjection), so each statement after an anchor is tested
  /// against the one trace that ran there.
  std::vector<uint8_t> skip_;
  std::unordered_map<uint32_t, MicroAdaptiveChooser> filter_choosers_;
  const KernelRegistry* kernels_;
  PrimExecutor prim_exec_;
  Profiler profiler_;
  uint64_t loop_iterations_ = 0;
};

}  // namespace avm::interp
