// Query execution vocabulary shared by engine::Session (session.h), the
// one entry point that runs queries: a type-checked dsl::Program plus data
// bindings go in (ExecContext), per-query knobs ride along (QueryOptions),
// and a unified ExecReport comes out. QueryOptions::strategy picks the
// execution machinery:
//
//   kInterpret    pure vectorized interpretation (paper §III-A, JIT off)
//   kAdaptiveJit  the Fig. 1 adaptive VM: interpret + profile, partition,
//                 JIT, inject, re-specialize on situation change
//   kGpuOffload   adaptive CPU/GPU placement for offloadable map fragments
//                 (simulated device; falls back to kAdaptiveJit otherwise)
//
// A one-shot run is `engine::Session({.num_workers = 1}).Run(ctx, qo)`;
// callers that want compiled traces reused across queries keep the Session
// alive and submit every query to it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/verify_program.h"
#include "engine/memory_tracker.h"
#include "engine/morsel.h"
#include "util/status.h"
#include "vm/adaptive_vm.h"

namespace avm::engine {

/// Which execution machinery serves a query (see the file comment):
/// pure vectorized interpretation, the adaptive interpret+profile+JIT
/// loop, or adaptive CPU/GPU placement for offloadable fragments.
enum class ExecutionStrategy : uint8_t {
  kInterpret = 0,
  kAdaptiveJit,
  kGpuOffload,
};

/// Human-readable strategy name ("interpret", "adaptive-jit", ...).
const char* StrategyName(ExecutionStrategy s);

/// Per-query knobs: how one submitted query executes. The worker count is
/// a session-level concern (SessionOptions); morsels are sized
/// automatically (~4 per worker, chunk-aligned; see PartitionRows).
struct QueryOptions {
  ExecutionStrategy strategy = ExecutionStrategy::kAdaptiveJit;
  /// Tuning knobs of the underlying VM/interpreter. `vm.enable_jit` is
  /// overridden by the strategy (kInterpret forces it off).
  vm::VmOptions vm;
  /// Per-query memory budget in bytes, accounted by engine::MemoryTracker
  /// (docs/SPILL.md): join build tables, ORDER BY output windows, and
  /// per-task scratch charge against it; ORDER BY spills sorted runs to
  /// disk when the budget trips. 0 = use the session-wide AVM_MEMORY_BUDGET
  /// tracker if set, else unlimited.
  uint64_t memory_budget = 0;
};

/// Unified result of one engine run: the adaptive-VM counters of every
/// task (inherited from vm::VmReport, summed across the query's tasks),
/// plus parallelism, device and out-of-core info.
struct ExecReport : vm::VmReport {
  /// The first morsel's VM: its Fig. 1 state timeline
  /// (vm::StateMachine::Timeline) and its interpreter's operator profile
  /// (interp::Profiler::ToString); empty when no morsel-0 VM ran (a
  /// GPU-offloaded query).
  std::string state_timeline;
  std::string profile;

  ExecutionStrategy strategy = ExecutionStrategy::kAdaptiveJit;
  std::string device = "cpu";  ///< "cpu" or "gpu-sim"
  /// SIMD kernel tier the query's interpreters dispatched to ("scalar",
  /// "sse2", "avx2"): the detected-best tier unless overridden per query
  /// (VmOptions) or process-wide (AVM_KERNEL_TIER).
  std::string kernel_tier = "scalar";
  size_t workers = 1;
  size_t morsels = 1;
  uint64_t rows = 0;
  double wall_seconds = 0;

  /// Non-empty when parallel execution was requested (workers > 1) but the
  /// query ran serially anyway; says why (a loop bound that is not len of
  /// an input, condensing pipeline, single morsel, ...), instead of
  /// silently dropping the request on the floor.
  std::string ran_serial_reason;

  /// Simulated device seconds consumed (kGpuOffload only).
  double gpu_sim_seconds = 0;

  /// Out-of-core counters (docs/SPILL.md). bytes_spilled / spill_runs:
  /// sorted-run payload the query wrote to its storage::SpillFile (0 when
  /// everything fit in budget). peak_tracked_bytes: high-water mark of the
  /// query's MemoryTracker — may exceed the budget by the documented
  /// transient-scratch overshoot.
  uint64_t bytes_spilled = 0;
  uint64_t spill_runs = 0;
  uint64_t peak_tracked_bytes = 0;
  /// Key-range parts the row-output merge ran in parallel (at least 1 for
  /// a query with row output, 0 without).
  uint64_t merge_parts = 0;

  std::string ToString() const;
};

/// How a bound array participates in a morsel-parallel run; the verifier's
/// enum, so the binding table needs no translation (see
/// analysis::BindingRole for each role).
using BindRole = analysis::BindingRole;

/// Memory context the engine hands a query's prepare hook: the tracker its
/// persistent charges go to, how many workers may run tasks concurrently
/// (bounds the transient overshoot), and the chunk size morsel boundaries
/// align to (spill-mode morsel caps must stay chunk-aligned).
struct MemoryPlan {
  /// Never null when the hook runs; shared so query-owned state (which can
  /// outlive the engine-side QueryState) releases charges safely.
  std::shared_ptr<MemoryTracker> tracker;
  size_t workers = 1;
  uint32_t chunk_size = 1;
};

/// What a prepare hook decided; the engine folds it into scheduling.
struct PrepareOutcome {
  /// >0 = spill mode: cap morsels to this many rows (already chunk-aligned
  /// by the hook) and run morsel-wise — per-task scratch windows — even on
  /// a single worker, so sealed runs stay budget-sized.
  uint64_t max_morsel_rows = 0;
};

/// Spill and merge activity a query's hooks accumulate for the ExecReport
/// (see its fields of the same names).
struct SpillStats {
  uint64_t bytes_spilled = 0;
  uint64_t spill_runs = 0;
  uint64_t merge_parts = 0;
};

/// A type-checked program plus its data bindings, ready for the engine.
///
/// Every task of the query runs the context's one program. A loop that
/// exits at `if <pos> >= len(<input>) then break` for a kInput binding runs
/// over a morsel's row slice (`len` of a data array is the rows bound to
/// it), so the engine may partition the query; the context's rows are that
/// binding's length. Any other program owns its loop bound and runs as one
/// task over the whole arrays.
///
/// The context also owns the program's vm::TracePlan: what its JIT
/// submissions decided (partitions, verified and compiled situations)
/// serves every later submission, whose morsel VMs install those traces
/// before their first chunk. Binding an input or shared array, or
/// submitting under VmOptions that decide differently (vm::SameDecisions),
/// starts a fresh plan.
///
/// A context describes ONE in-flight query: it (and everything it binds)
/// must stay alive until the query's handle reports completion, and the
/// same context must not be submitted again while still running.
class ExecContext {
 public:
  /// Runs fn(i) for every i in [0, n) on the Session's workers and returns
  /// when all calls are done; the calling worker runs indexes too.
  using ParallelFor =
      std::function<void(size_t n, const std::function<void(size_t)>& fn)>;

  /// `program` must be type-checked; the engine runs it as given.
  explicit ExecContext(dsl::Program program);

  /// The program every task of the query runs.
  const dsl::Program& program() const { return program_; }

  // Each Bind* call adds a binding, or replaces the binding of its name.

  /// Read-only input, partitioned by rows across morsels.
  ExecContext& BindInput(const std::string& name, interp::DataBinding b);
  ExecContext& BindInputColumn(const std::string& name, const Column* col);
  /// Read-only array visible in full to every worker (dimension tables,
  /// lookup arrays).
  ExecContext& BindShared(const std::string& name, interp::DataBinding b);
  /// Writable output, partitioned by rows: each worker writes only its
  /// slice. Only valid for programs whose output position tracks the input
  /// position (maps); condensing programs must run serially.
  ExecContext& BindOutput(const std::string& name, interp::DataBinding b);
  /// Writable accumulator: each task aggregates into a private zeroed
  /// copy, summed element-wise into the master when the task succeeds
  /// (additive aggregates: sums, counts).
  ExecContext& BindAccumulator(const std::string& name, TypeId type,
                               void* data, uint64_t len);
  /// Writable per-morsel window (see BindRole::kPartialOutput): worker w
  /// writes a data-dependent prefix of its row slice. Pair with a task hook
  /// that reads the written count and a finalize hook that merges the runs.
  ///
  /// `row_scale` widens the window per input row: a morsel over input rows
  /// [begin, end) owns window rows [begin*row_scale, end*row_scale). Queries
  /// whose pipelines fan out (many-to-many hash joins) size their windows at
  /// input_rows x worst-case fan-out and pass that factor here so morsel
  /// slicing and validation stay consistent.
  /// The prepare hook rebinds these per submission (in-memory or scratch
  /// windows).
  ExecContext& BindPartialOutput(const std::string& name,
                                 interp::DataBinding b,
                                 uint64_t row_scale = 1);
  /// Like BindPartialOutput, but bound by name and shape only: the engine
  /// allocates a fresh `rows x row_scale x width` window per TASK instead
  /// of slicing one query-lifetime array — the spill-mode form, where each
  /// morsel's sorted run is sealed to disk by the task hook and the window
  /// is discarded.
  ExecContext& BindPartialOutputScratch(const std::string& name, TypeId type,
                                        uint64_t row_scale = 1);

  /// Per-task hook: called after each task's interpreter finishes, before
  /// accumulator merge, with the row range the task covered (serial runs
  /// see one task spanning every row). The hooks of one query run
  /// concurrently, each on its task's worker and outside any engine lock:
  /// a body that touches state shared across tasks locks it itself. Failed
  /// tasks skip it, and so does every task that finishes after the query
  /// was cancelled. Queries with kPartialOutput windows use it to read the
  /// per-morsel written count and sort their window on the task's own
  /// worker; tests and examples use it to read adaptive
  /// interpreter state (e.g. the preferred filter flavor). A context with
  /// a task hook never runs on the kGpuOffload device path, which has no
  /// interpreter to hand it. The hook may probe this query's handle
  /// (done()/TryGetReport()), but must not Wait() on it or submit queries
  /// back into the engine — the calling worker would wait on itself.
  ExecContext& set_task_hook(
      std::function<Status(const interp::Interpreter&, const Morsel&)> fn) {
    task_hook_ = std::move(fn);
    return *this;
  }

  /// Barrier hook: called exactly once, after the last task completed
  /// successfully (all accumulator merges and task hooks done) and before
  /// the query's handle reports completion. A returned error fails the
  /// query. Not called for cancelled or failed queries. It receives a
  /// parallel-for over the Session's own workers: the calling worker takes
  /// parts too, and runs every part itself when no other worker is free.
  /// Queries with ordered/materialized output use it to merge per-morsel
  /// sorted runs in key-range parts.
  ExecContext& set_finalize_hook(
      std::function<Status(const ParallelFor&)> fn) {
    finalize_hook_ = std::move(fn);
    return *this;
  }

  /// Memory-plan hook: called once per submission, before partitioning,
  /// with the query's MemoryPlan. The hook charges its persistent
  /// allocations (join build tables, output windows) against plan.tracker
  /// and either keeps in-memory windows or switches to scratch windows +
  /// spilling, reporting a morsel cap through PrepareOutcome. An error
  /// (e.g. kResourceExhausted when even one morsel cannot fit) fails the
  /// query cleanly. Contexts without the hook run exactly as before.
  ExecContext& set_prepare_hook(
      std::function<Status(const MemoryPlan&, PrepareOutcome*)> fn) {
    prepare_hook_ = std::move(fn);
    return *this;
  }

  /// Terminal hook: called exactly once per submission after the query
  /// reaches ANY terminal state — success, failure, cancellation, skip —
  /// never under engine locks. Queries use it to release persistent
  /// tracker charges and close (unlink) spill files. Must be idempotent:
  /// defensive paths may invoke it again.
  ExecContext& set_cleanup_hook(std::function<void()> fn) {
    cleanup_hook_ = std::move(fn);
    return *this;
  }

  /// Spill and merge counters the query's hooks accumulate (task hooks run
  /// concurrently, so a hook updating them locks them itself); the engine
  /// copies them into the ExecReport at finalize.
  SpillStats& spill_stats() { return spill_stats_; }

  /// Every binding's (name, role, row_scale), in bind order: the table
  /// analysis::VerifyProgram checks a program against.
  std::vector<analysis::BindingInfo> BindingTable() const;

 private:
  friend class Session;

  struct Bound {
    std::string name;
    BindRole role;
    interp::DataBinding binding;  ///< full-extent binding
    /// kPartialOutput only: window rows per input row (fan-out factor).
    uint64_t row_scale = 1;
    /// kPartialOutput only: engine-allocated per-task scratch window
    /// (binding carries type/shape, not storage) — the spill-mode form.
    bool scratch = false;
  };

  /// Adds `b`, or replaces the binding of its name.
  ExecContext& Bind(Bound b);

  dsl::Program program_;
  std::vector<Bound> bound_;
  /// The program's trace plan, and the options it decides under; null
  /// until a JIT submission, and after a binding that invalidates it. Held
  /// by pointer, so its address outlives moves of the context.
  std::unique_ptr<vm::TracePlan> plan_;
  vm::VmOptions plan_options_;
  std::function<Status(const interp::Interpreter&, const Morsel&)> task_hook_;
  std::function<Status(const ParallelFor&)> finalize_hook_;
  std::function<Status(const MemoryPlan&, PrepareOutcome*)> prepare_hook_;
  std::function<void()> cleanup_hook_;
  SpillStats spill_stats_;
};

}  // namespace avm::engine
