// engine::Session — the engine as a long-lived, shared service.
//
// The adaptive VM amortizes profiling and JIT cost across queries, which
// only pays off when the engine outlives a single call: a Session owns a
// crew of M morsel workers and an admission queue, and serves N concurrent
// clients:
//
//   engine::Session session({.num_workers = 8});
//   engine::QueryHandle h = session.Submit(ctx);   // returns immediately
//   ... build and submit more queries ...
//   Result<ExecReport> r = h.Wait();               // block for this one
//
// Scheduling model (the "N clients × M workers" step of the roadmap):
//
//  - Submit() classifies the query (serial / morsel-parallel / GPU
//    fragment), partitions it into row-range morsels (a serial query is
//    one morsel spanning every row), and appends it to the run queue; when `max_active_queries` queries are
//    already in flight it parks in the admission queue instead.
//  - The session's M workers pull tasks from the run queue ROUND-ROBIN
//    ACROSS QUERIES (one morsel from query A, one from B, ...), so a long
//    scan cannot starve a short aggregate: in-flight queries interleave
//    their morsels fairly over the shared worker pool.
//  - The morsel VMs of one query share its context's vm::TracePlan: a
//    partition or trace decision one of them made serves the others, so
//    each situation is verified and requested once per context. When the
//    context is submitted again, each morsel VM installs the traces the
//    plan decided before its first chunk and runs no profiling pass; a
//    compile that failed is requested again. Machine code is shared by
//    source across every query and Session of the process through
//    jit::CodeCache, single-flight under contention.
//  - The session owns one compiler thread. A query that misses the code
//    cache queues the compile there and keeps interpreting; each morsel
//    VM installs the trace at the first chunk boundary after the machine
//    code lands, so no worker waits for a compiler run. Compiles run one
//    at a time, in the order they were requested, so they take at most
//    one CPU from the workers. A code-cache or disk-cache hit installs at
//    the VM's optimize pass. A context may be submitted to several
//    Sessions in turn: each queues on its own compiler thread.
//  - Per-query accumulators are privatized per morsel and summed into the
//    caller's arrays, exactly as in a single-query parallel run — a
//    concurrent run stays bit-identical to its serial baseline.
//
// Cancel() drops a query's unclaimed morsels; tasks already running finish
// but skip their merge, so a cancelled query's result arrays are undefined
// (see QueryHandle::Cancel). A cancelled query does not wait for its
// pending compiles. Destroying the session drains all submitted queries
// first, then finishes every queued compile and joins the compiler thread:
// no compiler process outlives its Session, and a Session created later
// finds every machine code the destroyed one requested.
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "engine/exec_engine.h"
#include "util/thread_annotations.h"

namespace avm::gpu {
class SimGpuDevice;
class GpuBackend;
class AdaptivePlacer;
}  // namespace avm::gpu

namespace avm::engine {

namespace internal {
struct QueryState;
struct Scheduler;
}  // namespace internal

/// Session-level knobs, fixed for the session's lifetime: how many morsel
/// workers every query shares and how many queries run at once. Per-query
/// knobs travel with each submission (QueryOptions).
struct SessionOptions {
  /// Morsel workers shared by all in-flight queries; 1 = serial, 0 =
  /// hardware concurrency. The session owns its worker pool.
  size_t num_workers = 0;
  /// Queries executing concurrently; later submissions wait in the
  /// admission queue. 0 = 2 × workers.
  size_t max_active_queries = 0;
};

/// Future-like handle to one submitted query. Cheap to copy; outlives the
/// session (a drained session leaves every handle completed).
class QueryHandle {
 public:
  QueryHandle();
  ~QueryHandle();
  QueryHandle(const QueryHandle&);
  QueryHandle& operator=(const QueryHandle&);
  QueryHandle(QueryHandle&&) noexcept;
  QueryHandle& operator=(QueryHandle&&) noexcept;

  bool valid() const { return state_ != nullptr; }

  /// Block until the query completes; returns its report (or error).
  /// Repeated calls return the same result. (Condition-variable wait via
  /// std::unique_lock, which the thread-safety analysis does not model.)
  Result<ExecReport> Wait() AVM_NO_THREAD_SAFETY_ANALYSIS;

  /// Non-blocking probe: the result if the query already completed.
  std::optional<Result<ExecReport>> TryGetReport();

  /// True once the report is available.
  bool done() const;

  /// Request cancellation: a query still parked in the admission queue
  /// completes with Cancelled immediately; otherwise its unclaimed work is
  /// dropped and it completes with Cancelled once in-flight tasks drain
  /// (a query that already completed stays completed). Tasks running at
  /// cancel time finish but skip their merge. After a cancelled (or failed)
  /// multi-morsel query the caller's bound output/accumulator arrays are
  /// UNDEFINED, partially merged — reset them (Query::ResetAggregates)
  /// before reusing. A one-task query merges nothing, so its accumulators
  /// are untouched (arrays it writes in place may be partly written).
  void Cancel();

 private:
  friend class Session;
  explicit QueryHandle(std::shared_ptr<internal::QueryState> state);
  std::shared_ptr<internal::QueryState> state_;
};

/// The engine's one entry point: a long-lived query service owning the
/// morsel workers and the admission queue (see the file comment). Every
/// query runs through Submit or Run.
class Session {
 public:
  explicit Session(SessionOptions options = {});
  // Drains: blocks until every submitted query completed (condition-variable
  // wait via std::unique_lock, unmodeled by the thread-safety analysis),
  // then until every queued compile finished.
  ~Session() AVM_NO_THREAD_SAFETY_ANALYSIS;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Enqueue one query. `ctx` (and everything it binds) must stay alive
  /// until the handle reports completion; a context describes one in-flight
  /// query and must not be re-submitted while running. Never blocks on
  /// execution or admission (back-pressure parks the query; classification
  /// errors surface through the handle) — classification itself (the
  /// memory-plan hook and the morsel cuts) does run synchronously on the
  /// submitting thread.
  QueryHandle Submit(ExecContext& ctx, const QueryOptions& options = {});

  /// Convenience: Submit + Wait. Must not be called from inside an engine
  /// hook (task or finalize hook): the calling worker would wait on
  /// itself.
  Result<ExecReport> Run(ExecContext& ctx, const QueryOptions& options = {});

  size_t num_workers() const;
  const SessionOptions& options() const { return options_; }

  /// Lifetime counters (monotonic), and the compiler thread's queue.
  struct Stats {
    uint64_t submitted = 0;
    uint64_t completed = 0;  ///< includes failed and cancelled
    uint64_t cancelled = 0;
    /// Compiles queued or running on the Session's compiler thread now.
    uint64_t compiles_pending = 0;
    /// Compiler runs the thread finished, failed ones included, whichever
    /// query requested them and whether or not it was still running.
    uint64_t traces_compiled = 0;
    /// Their summed wall time: the Session's whole compile time, which
    /// ExecReport::compile_seconds counts only for code that landed while
    /// its query ran.
    double compile_seconds = 0;
  };
  Stats stats() const;

 private:
  Status Classify(internal::QueryState& q);
  Status ClassifyCpu(internal::QueryState& q);
  Status ProbeGpuOffload(internal::QueryState& q, bool* offload);
  void PumpLoop();
  // The *Locked helpers run with a mutex of the (here-incomplete)
  // internal::Scheduler / internal::QueryState already held by the caller;
  // an AVM_REQUIRES expression cannot name a member of an incomplete type,
  // so they opt out of the analysis instead.
  void SpawnPumpsLocked() AVM_NO_THREAD_SAFETY_ANALYSIS;
  void MarkSkipped(const std::shared_ptr<internal::QueryState>& q, size_t n);
  void RunTask(const std::shared_ptr<internal::QueryState>& q, size_t index);
  Status RunGpuTask(internal::QueryState& q);
  Status RunMorselTask(internal::QueryState& q, const Morsel& m);
  void FinalizeLocked(internal::QueryState& q) AVM_NO_THREAD_SAFETY_ANALYSIS;
  void OnQueryDone(const std::shared_ptr<internal::QueryState>& q);

  SessionOptions options_;
  /// Session-wide memory budget from AVM_MEMORY_BUDGET (docs/SPILL.md):
  /// shared by every query submitted without its own
  /// QueryOptions::memory_budget. Null when the variable is unset — those
  /// queries get a private unlimited tracker instead.
  std::shared_ptr<MemoryTracker> env_tracker_;
  /// Shared (not unique): handles hold a weak_ptr so Cancel() can pull a
  /// still-parked query out of the admission queue promptly.
  std::shared_ptr<internal::Scheduler> sched_;

  // Lazily created simulated-GPU machinery (kGpuOffload only). gpu_mu_
  // guards init + placer state (short critical sections — Submit takes it);
  // gpu_device_mu_ serializes whole device runs (one simulated device for
  // all concurrent queries) and is never held on the Submit path.
  std::mutex gpu_mu_;
  std::mutex gpu_device_mu_;
  /// gpu_device_ / gpu_backend_ are created once under gpu_mu_ (Submit
  /// path) and afterwards only dereferenced under gpu_device_mu_ — a
  /// handoff protocol the static analysis cannot express with a single
  /// GUARDED_BY, so the pointers stay unannotated; the placer is touched
  /// exclusively under gpu_mu_ and is annotated.
  std::unique_ptr<gpu::SimGpuDevice> gpu_device_;
  std::unique_ptr<gpu::GpuBackend> gpu_backend_;
  std::unique_ptr<gpu::AdaptivePlacer> gpu_placer_ AVM_GUARDED_BY(gpu_mu_);

  /// Runs the compiles its queries' morsel VMs queue. Destroyed after the
  /// destructor's drain: it finishes every queued compile, then joins.
  jit::CompilerThread compiler_;
};

}  // namespace avm::engine
