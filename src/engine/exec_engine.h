// Unified execution facade.
//
// Every consumer of the framework (the relational layer, examples,
// benchmarks) enters through the engine layer: a type-checked dsl::Program
// plus data bindings go in, a unified ExecReport comes out. The engine picks
// the execution machinery from an ExecutionStrategy:
//
//   kInterpret    pure vectorized interpretation (paper §III-A, JIT off)
//   kAdaptiveJit  the Fig. 1 adaptive VM: interpret + profile, partition,
//                 JIT, inject, re-specialize on situation change
//   kGpuOffload   adaptive CPU/GPU placement for offloadable map fragments
//                 (simulated device; falls back to kAdaptiveJit otherwise)
//
// Since the Session redesign the engine is a *service*, not a function: the
// primary surface is engine::Session (session.h), whose Submit() returns a
// future-like QueryHandle and whose fair morsel scheduler interleaves N
// in-flight queries over M workers sharing one TraceCache. The blocking
// ExecEngine::Run / ExecEngine::Execute entry points below are thin
// Submit+Wait wrappers kept so every pre-Session consumer keeps working.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/memory_tracker.h"
#include "engine/morsel.h"
#include "jit/trace_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "vm/adaptive_vm.h"

namespace avm::engine {

class Session;

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

/// Per-query knobs: how one submitted query executes. Worker count and
/// pools are session-level concerns (SessionOptions).
struct QueryOptions {
  ExecutionStrategy strategy = ExecutionStrategy::kAdaptiveJit;
  /// Tuning knobs of the underlying VM/interpreter. `vm.enable_jit` is
  /// overridden by the strategy (kInterpret forces it off).
  vm::VmOptions vm;
  /// Rows per morsel; 0 = auto (~4 morsels per worker, chunk-aligned).
  uint64_t morsel_rows = 0;
  /// Per-query memory budget in bytes, accounted by engine::MemoryTracker
  /// (docs/SPILL.md): join build tables, ORDER BY output windows, and
  /// per-task scratch charge against it; ORDER BY spills sorted runs to
  /// disk when the budget trips. 0 = use the session-wide AVM_MEMORY_BUDGET
  /// tracker if set, else unlimited.
  uint64_t memory_budget = 0;
};

/// Options of the compatibility facade: per-query knobs plus the session
/// parameters ExecEngine forwards to its embedded Session. The first three
/// fields mirror QueryOptions (kept flat for source compatibility with
/// pre-Session callers); the ExecEngine constructor is the single mapping
/// point — a field added to QueryOptions must be forwarded there.
struct EngineOptions {
  ExecutionStrategy strategy = ExecutionStrategy::kAdaptiveJit;
  /// Tuning knobs of the underlying VM/interpreter. `vm.enable_jit` is
  /// overridden by the strategy (kInterpret forces it off).
  vm::VmOptions vm;
  /// Number of morsel workers; 1 = serial, 0 = hardware concurrency.
  size_t num_workers = 1;
  /// Rows per morsel; 0 = auto (~4 morsels per worker, chunk-aligned).
  uint64_t morsel_rows = 0;
  /// Auxiliary pool for the simulated GPU device (SM-level parallelism);
  /// nullptr = the process-wide ThreadPool::Global(). Morsel workers run on
  /// the session's own worker pool, not on this one — the old `pool` field
  /// was renamed so pre-Session code that routed morsel work through it
  /// fails to compile instead of silently changing thread placement.
  ThreadPool* device_pool = nullptr;
  /// Per-query memory budget in bytes (mirrors QueryOptions::memory_budget;
  /// 0 = AVM_MEMORY_BUDGET if set, else unlimited).
  uint64_t memory_budget = 0;
};

/// Unified result of one engine run — the merger of the old ad-hoc
/// VmReport / profiler-string plumbing, plus parallelism and device info.
struct ExecReport {
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
  /// query ran serially anyway; says why (fixed program, condensing
  /// pipeline, single morsel, ...), instead of silently dropping the
  /// request on the floor.
  std::string ran_serial_reason;

  // Merged adaptive-VM counters (summed across workers).
  uint64_t iterations = 0;
  uint64_t traces_compiled = 0;
  uint64_t traces_reused = 0;
  uint64_t injection_runs = 0;
  uint64_t injection_fallbacks = 0;
  double compile_seconds = 0;

  /// JIT tier policy the query's VMs compiled under ("tiered", "fast",
  /// "opt"): AVM_JIT_TIER / VmOptions::jit_tier_policy resolved.
  std::string jit_tier;
  /// Per-tier split of traces_compiled with backend wall time: fast (-O0)
  /// first-execution compiles vs optimized (-O2) compiles.
  uint64_t fast_compiles = 0;
  uint64_t opt_compiles = 0;
  double fast_compile_seconds = 0;
  double opt_compile_seconds = 0;
  /// Persistent trace-cache traffic (AVM_TRACE_CACHE_DIR): situations whose
  /// machine code loaded from disk instead of compiling — disk hits do NOT
  /// count into traces_compiled, which is exactly the warm-restart
  /// guarantee (`traces_compiled == 0 && disk_cache_hits > 0` after a
  /// restart) — plus probed-but-absent misses and corrupt entries detected,
  /// deleted and recompiled.
  uint64_t disk_cache_hits = 0;
  uint64_t disk_cache_misses = 0;
  uint64_t disk_cache_corrupt = 0;
  /// Hotness-triggered background fast→optimized tier upgrades: requested
  /// by this query's injections; completed = re-published by report time.
  uint64_t tier_upgrades_requested = 0;
  uint64_t tier_upgrades = 0;

  /// Non-empty when the adaptive VM considered a hot trace but declined to
  /// compile it (first reason observed). A shape decline is the JIT gate's
  /// first diagnostic, rule id included ("[expand-in-trace] ..."); the rule
  /// table in docs/VERIFIER.md lists the genuinely unsupported shapes
  /// (merge/gen skeletons, chunk-array gather bases, multi-filter traces,
  /// exotic scatter conflict functions, non-affine positions, ...). The
  /// query still completes — uncompiled fragments run
  /// vectorized-interpreted — but the decline is reported instead of
  /// silently looking like "nothing was hot".
  std::string jit_declined;

  /// Candidate traces the JIT gate (analysis::VerifyTrace) checked,
  /// summed across workers.
  uint64_t verifier_checked = 0;

  /// Fig. 1 state-machine timeline and profiler dump of the worker that
  /// executed the first morsel (representative; per-worker dumps would be
  /// near-identical).
  std::string state_timeline;
  std::string profile;

  /// Simulated device seconds consumed (kGpuOffload only).
  double gpu_sim_seconds = 0;

  /// Out-of-core counters (docs/SPILL.md). bytes_spilled / spill_runs:
  /// sorted-run payload the query wrote to its storage::SpillFile (0 when
  /// everything fit in budget). peak_tracked_bytes: high-water mark of the
  /// query's MemoryTracker — may exceed the budget by the documented
  /// transient-scratch overshoot. chunks_streamed: compressed column blocks
  /// decoded one super-chunk at a time by streaming scan cursors.
  uint64_t bytes_spilled = 0;
  uint64_t spill_runs = 0;
  uint64_t peak_tracked_bytes = 0;
  uint64_t chunks_streamed = 0;

  std::string ToString() const;
};

/// How a bound array participates in a morsel-parallel run.
enum class BindRole : uint8_t {
  kInput,        ///< read-only, row-partitioned: worker w sees its slice
  kShared,       ///< read-only, replicated: every worker sees the whole array
  kOutput,       ///< writable, row-partitioned: worker w writes its slice
  kAccumulator,  ///< writable, privatized: zeroed per-worker copy, merged
  /// Writable, row-partitioned *window*: each morsel owns its slice but may
  /// write any data-dependent PREFIX of it (condensing writes). The engine
  /// does not stitch the prefixes together; the query's task hook records
  /// each morsel's written count and its finalize hook merges the runs at
  /// the barrier — this is how condensing/materializing pipelines (ORDER BY,
  /// row output) run morsel-parallel instead of falling back to serial.
  kPartialOutput,
};

/// Merges one worker's accumulator partial into the master array.
using MergeFn = std::function<void(TypeId type, void* master,
                                   const void* partial, uint64_t len)>;

/// Element-wise sum — correct for additive aggregates (sums, counts), which
/// is what kScatter/kFold accumulator programs produce.
void SumMerge(TypeId type, void* master, const void* partial, uint64_t len);

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

/// Spill activity a query's hooks accumulate for the ExecReport.
struct SpillStats {
  uint64_t bytes_spilled = 0;
  uint64_t spill_runs = 0;
};

/// A program shape plus data bindings, ready for the engine.
///
/// Programs loop over their input with a baked-in row limit, so a parallel
/// run needs one program instance per morsel: the context is constructed
/// with a *factory* `make_program(rows)` that the engine invokes per morsel
/// (and once with the total row count for serial runs). Programs whose row
/// count is fixed can use the single-program constructor; those contexts
/// always run serially.
///
/// A context describes ONE in-flight query: it (and everything it binds)
/// must stay alive until the query's handle reports completion, and the
/// same context must not be submitted again while still running.
class ExecContext {
 public:
  using ProgramFactory = std::function<Result<dsl::Program>(int64_t rows)>;

  /// Row-parameterized program over `total_rows` input rows; this is the
  /// parallelizable form. The factory's result is type-checked by the
  /// engine.
  ExecContext(ProgramFactory make_program, uint64_t total_rows);

  /// Fixed, already type-checked program (must outlive the context). Runs
  /// serially regardless of the session's worker count.
  explicit ExecContext(const dsl::Program* program);

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
  /// Writable accumulator: each worker aggregates into a private zeroed
  /// copy; partials are merged into the master at the barrier (default:
  /// element-wise sum).
  ExecContext& BindAccumulator(const std::string& name, TypeId type,
                               void* data, uint64_t len,
                               MergeFn merge = SumMerge);
  /// Writable per-morsel window (see BindRole::kPartialOutput): worker w
  /// writes a data-dependent prefix of its row slice. Pair with a task hook
  /// that reads the written count and a finalize hook that merges the runs.
  ///
  /// `row_scale` widens the window per input row: a morsel over input rows
  /// [begin, end) owns window rows [begin*row_scale, end*row_scale). Queries
  /// whose pipelines fan out (many-to-many hash joins) size their windows at
  /// input_rows x worst-case fan-out and pass that factor here so morsel
  /// slicing and validation stay consistent.
  ///
  /// Rebinding an existing kPartialOutput name replaces it in place (the
  /// prepare hook re-decides in-memory vs scratch windows per submission).
  ExecContext& BindPartialOutput(const std::string& name,
                                 interp::DataBinding b,
                                 uint64_t row_scale = 1);
  /// Like BindPartialOutput, but bound by name and shape only: the engine
  /// allocates a fresh `rows x row_scale x width` window per TASK instead
  /// of slicing one query-lifetime array — the spill-mode form, where each
  /// morsel's sorted run is sealed to disk by the task hook and the window
  /// is discarded. Replaces any existing binding of the same name.
  ExecContext& BindPartialOutputScratch(const std::string& name, TypeId type,
                                        uint64_t row_scale = 1);

  /// Optional observability hook: called (serially) with each worker's
  /// interpreter after it finishes, before accumulator merge. Tests and
  /// examples use it to read adaptive state (e.g. preferred filter flavor).
  /// Not invoked when kGpuOffload executes the fragment on the simulated
  /// device — there is no interpreter state to observe on that path. May
  /// probe this query's handle (done()/TryGetReport()), but must not
  /// Wait() on it or submit queries back into the engine — the calling
  /// worker would wait on itself.
  ExecContext& set_inspector(
      std::function<void(const interp::Interpreter&)> fn) {
    inspector_ = std::move(fn);
    return *this;
  }

  /// Per-task hook: called after each task's interpreter finishes, with the
  /// row range the task covered (serial runs see one task spanning every
  /// row). Parallel runs call it under the query's merge mutex, so bodies
  /// may mutate query-owned state without extra locking; cancelled or
  /// failed tasks skip it. Queries with kPartialOutput windows use it to
  /// read the per-morsel written count and partial-sort their window.
  ExecContext& set_task_hook(
      std::function<Status(const interp::Interpreter&, const Morsel&)> fn) {
    task_hook_ = std::move(fn);
    return *this;
  }

  /// Barrier hook: called exactly once, after the last task completed
  /// successfully (all accumulator merges and task hooks done) and before
  /// the query's handle reports completion. A returned error fails the
  /// query. Not called for cancelled or failed queries. Queries with
  /// ordered/materialized output use it to merge per-morsel sorted runs.
  ExecContext& set_finalize_hook(std::function<Status()> fn) {
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

  /// Spill counters the query's hooks accumulate (task hooks run under the
  /// query's merge serialization); the engine copies them into the
  /// ExecReport at finalize.
  SpillStats& spill_stats() { return spill_stats_; }

  uint64_t total_rows() const { return total_rows_; }
  bool parallelizable() const { return make_program_ != nullptr; }

 private:
  friend class Session;

  struct Bound {
    std::string name;
    BindRole role;
    interp::DataBinding binding;  ///< full-extent binding
    MergeFn merge;                ///< kAccumulator only
    /// kPartialOutput only: window rows per input row (fan-out factor).
    uint64_t row_scale = 1;
    /// kPartialOutput only: engine-allocated per-task scratch window
    /// (binding carries type/shape, not storage) — the spill-mode form.
    bool scratch = false;
  };

  ProgramFactory make_program_;         // null for fixed-program contexts
  const dsl::Program* fixed_program_ = nullptr;
  uint64_t total_rows_ = 0;
  std::vector<Bound> bound_;
  std::function<void(const interp::Interpreter&)> inspector_;
  std::function<Status(const interp::Interpreter&, const Morsel&)> task_hook_;
  std::function<Status()> finalize_hook_;
  std::function<Status(const MemoryPlan&, PrepareOutcome*)> prepare_hook_;
  std::function<void()> cleanup_hook_;
  SpillStats spill_stats_;
};

/// The blocking compatibility facade over engine::Session. One engine
/// instance embeds one long-lived Session; the session's TraceCache
/// persists across runs, so repeated queries of the same shape reuse
/// compiled traces instead of recompiling.
class ExecEngine {
 public:
  explicit ExecEngine(EngineOptions options = {});
  ~ExecEngine();

  /// Execute `ctx` under the configured strategy and worker count. A thin
  /// Submit + Wait over the embedded session.
  Result<ExecReport> Run(ExecContext& ctx);

  /// The embedded session, for callers that want the async surface
  /// (Submit returning a QueryHandle) on the same cache and workers.
  Session& session() { return *session_; }

  const EngineOptions& options() const { return options_; }
  const jit::TraceCache& trace_cache() const;

  /// Convenience: run a context once with the given options.
  static Result<ExecReport> Execute(ExecContext& ctx,
                                    EngineOptions options = {});

 private:
  EngineOptions options_;
  std::unique_ptr<Session> session_;
};

}  // namespace avm::engine
