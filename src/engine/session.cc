#include "engine/session.h"

#include <algorithm>
#include <cstring>
#include <deque>

#include "gpu/gpu_backend.h"
#include "gpu/placement.h"
#include "gpu/sim_device.h"
#include "ir/prim.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace avm::engine {

namespace internal {

/// One submitted query: classification result + scheduling progress +
/// the eventual report. Shared by the session scheduler and every handle.
struct QueryState {
  // ----- immutable after Classify ---------------------------------------
  ExecContext* ctx = nullptr;
  QueryOptions qo;
  vm::VmOptions vmo;  ///< effective VM options (JIT gating, scaled warmup)

  bool gpu_task = false;  ///< one task on the simulated device
  /// CPU tasks: rows of the input whose len ends the loop (else 0).
  uint64_t rows = 0;
  /// CPU tasks: row-range morsels; a serial query is one morsel spanning
  /// every row.
  std::vector<Morsel> morsels;
  size_t total_tasks = 0;
  std::string serial_reason;

  // kGpuOffload bookkeeping: the normalized map fragment and the profile
  // used to calibrate the placer.
  ir::PrimProgram gpu_prim;
  interp::DataBinding gpu_src;
  interp::DataBinding gpu_out;
  uint64_t gpu_rows = 0;
  gpu::FragmentProfile gpu_profile;
  bool calibrate_cpu = false;  ///< placer chose CPU: observe the CPU run

  /// What the context's plan decided in earlier submissions: each morsel
  /// VM installs it before its first chunk. Empty on a first submission.
  std::optional<vm::TracePlan::Installs> installs;

  // ----- scheduling progress (guarded by Scheduler::mu) ------------------
  size_t issued = 0;  ///< tasks handed to workers

  std::atomic<bool> cancel{false};

  /// Memory accounting for this query: per-query (QueryOptions), the
  /// session-wide AVM_MEMORY_BUDGET tracker, or a private unlimited one.
  /// Never null after Classify. Shared so query-owned state that releases
  /// charges can outlive this QueryState.
  std::shared_ptr<MemoryTracker> tracker;

  /// Copy of the context's cleanup hook plus its exactly-once guard. Copied
  /// out at Submit because QueryHandle::Cancel must reach it without access
  /// to ExecContext's privates; every terminal path funnels through it.
  std::function<void()> cleanup;
  std::atomic<bool> cleanup_done{false};

  /// Set at Submit; lets QueryHandle::Cancel() reach the admission queue.
  std::weak_ptr<Scheduler> sched;

  /// Serializes the accumulator sums and report merges of the query's
  /// tasks. Task hooks run before it is taken, concurrently. Deliberately
  /// NOT `mu`, which the report merge takes inside it.
  std::mutex merge_mu;

  // ----- result (guarded by mu) ------------------------------------------
  std::mutex mu;
  std::condition_variable cv;
  bool started AVM_GUARDED_BY(mu) = false;
  bool finished AVM_GUARDED_BY(mu) = false;
  size_t completed AVM_GUARDED_BY(mu) = 0;  ///< tasks that ran
  size_t skipped AVM_GUARDED_BY(mu) = 0;  ///< dropped by cancel/failure
  Status status AVM_GUARDED_BY(mu);
  ExecReport report AVM_GUARDED_BY(mu);
  /// Restarted when the first task starts.
  Stopwatch wall AVM_GUARDED_BY(mu);
};

}  // namespace internal

using internal::QueryState;

namespace {

/// Run the query's cleanup hook exactly once (release tracker charges,
/// close/unlink spill files). Callers must not hold engine locks — the hook
/// is user code — and must run it before the handle reports completion,
/// while the ExecContext is still guaranteed alive.
void RunCleanup(QueryState& q) {
  if (q.cleanup_done.exchange(true, std::memory_order_acq_rel)) return;
  if (q.cleanup) q.cleanup();
}

}  // namespace

// ---------------------------------------------------------------- scheduler

/// Run-queue + admission-queue state. The run queue holds queries that
/// still have unclaimed tasks; workers rotate it (pop front, claim one
/// task, push back) so concurrent queries interleave morsel-by-morsel.
struct internal::Scheduler {
  std::mutex mu;
  std::condition_variable drained;
  std::deque<std::shared_ptr<QueryState>> run_queue AVM_GUARDED_BY(mu);
  std::deque<std::shared_ptr<QueryState>> admission AVM_GUARDED_BY(mu);
  /// Admitted, not yet finalized.
  size_t active AVM_GUARDED_BY(mu) = 0;
  /// Unclaimed tasks across the run queue.
  size_t outstanding AVM_GUARDED_BY(mu) = 0;
  /// Worker loops currently scheduled.
  size_t pumps AVM_GUARDED_BY(mu) = 0;
  uint64_t submitted AVM_GUARDED_BY(mu) = 0;
  uint64_t completed AVM_GUARDED_BY(mu) = 0;
  uint64_t cancelled AVM_GUARDED_BY(mu) = 0;
  // workers / max_active / pool are set in the Session constructor before
  // any worker exists and are immutable afterwards.
  size_t workers = 1;
  size_t max_active = 1;
  std::unique_ptr<ThreadPool> pool;
};

Session::Session(SessionOptions options)
    : options_(options), sched_(std::make_shared<internal::Scheduler>()) {
  size_t n = options_.num_workers;
  if (n == 0) n = std::max<size_t>(1, std::thread::hardware_concurrency());
  sched_->workers = n;
  sched_->max_active =
      options_.max_active_queries > 0 ? options_.max_active_queries : 2 * n;
  sched_->pool = std::make_unique<ThreadPool>(n);
  const uint64_t env_budget = MemoryTracker::EnvBudget();
  if (env_budget > 0) {
    env_tracker_ = std::make_shared<MemoryTracker>(env_budget);
  }
}

Session::~Session() {
  {
    std::unique_lock<std::mutex> lock(sched_->mu);
    sched_->drained.wait(lock, [&] {
      return sched_->active == 0 && sched_->admission.empty();
    });
  }
  // Joins the worker threads; every pump has exited (no work left).
  sched_->pool.reset();
  // compiler_'s destructor then finishes every queued compile and joins
  // its thread, so no compiler process outlives the Session.
}

size_t Session::num_workers() const { return sched_->workers; }

Session::Stats Session::stats() const {
  const jit::CompilerThread::Stats cs = compiler_.stats();
  std::lock_guard<std::mutex> lock(sched_->mu);
  return Stats{sched_->submitted, sched_->completed, sched_->cancelled,
               cs.pending,        cs.compiled,       cs.compile_seconds};
}

// ----------------------------------------------------------- query handle

QueryHandle::QueryHandle() = default;
QueryHandle::~QueryHandle() = default;
QueryHandle::QueryHandle(const QueryHandle&) = default;
QueryHandle& QueryHandle::operator=(const QueryHandle&) = default;
QueryHandle::QueryHandle(QueryHandle&&) noexcept = default;
QueryHandle& QueryHandle::operator=(QueryHandle&&) noexcept = default;
QueryHandle::QueryHandle(std::shared_ptr<internal::QueryState> state)
    : state_(std::move(state)) {}

Result<ExecReport> QueryHandle::Wait() {
  if (state_ == nullptr) {
    return Status::InvalidArgument("Wait on an empty QueryHandle");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->finished; });
  if (!state_->status.ok()) return state_->status;
  return state_->report;
}

std::optional<Result<ExecReport>> QueryHandle::TryGetReport() {
  if (state_ == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(state_->mu);
  if (!state_->finished) return std::nullopt;
  if (!state_->status.ok()) return {Result<ExecReport>(state_->status)};
  return {Result<ExecReport>(state_->report)};
}

bool QueryHandle::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->finished;
}

void QueryHandle::Cancel() {
  if (state_ == nullptr) return;
  state_->cancel.store(true, std::memory_order_relaxed);
  // A query still parked in the admission queue would otherwise stay
  // pending until an active slot frees; pull it out and finalize now.
  std::shared_ptr<internal::Scheduler> sched = state_->sched.lock();
  if (sched == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(sched->mu);
    auto it =
        std::find(sched->admission.begin(), sched->admission.end(), state_);
    if (it == sched->admission.end()) return;
    sched->admission.erase(it);
    ++sched->completed;
    ++sched->cancelled;
  }
  // The cleanup hook is user code: run it after dropping the scheduler
  // lock, and before the handle reports completion (the context is still
  // guaranteed alive here).
  RunCleanup(*state_);
  {
    std::lock_guard<std::mutex> qlock(state_->mu);
    state_->status = Status::Cancelled("query cancelled");
    state_->report.strategy = state_->qo.strategy;
    state_->finished = true;
    state_->cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(sched->mu);
  if (sched->active == 0 && sched->admission.empty()) {
    sched->drained.notify_all();
  }
}

// ------------------------------------------------------------------ submit

QueryHandle Session::Submit(ExecContext& ctx, const QueryOptions& options) {
  auto q = std::make_shared<QueryState>();
  q->ctx = &ctx;
  q->qo = options;
  q->cleanup = ctx.cleanup_hook_;
  // Spill counters describe ONE submission; a context re-submitted after a
  // spilled run must not report the previous run's bytes.
  ctx.spill_stats_ = SpillStats{};
  Status st = Classify(*q);

  if (!st.ok()) {
    // Never admitted: complete the handle right away with the error. The
    // prepare hook may already have charged the tracker or opened a spill
    // file — release that before the handle reports completion.
    RunCleanup(*q);
    {
      std::lock_guard<std::mutex> lock(q->mu);
      q->status = st;
      q->finished = true;
      q->report.strategy = q->qo.strategy;
      q->cv.notify_all();
    }
    std::lock_guard<std::mutex> lock(sched_->mu);
    ++sched_->submitted;
    ++sched_->completed;
    return QueryHandle(q);
  }

  if (!q->gpu_task && q->vmo.enable_jit) {
    // The context's plan serves every submission that decides alike.
    if (ctx.plan_ == nullptr ||
        !vm::SameDecisions(ctx.plan_options_, q->vmo)) {
      ctx.plan_ = std::make_unique<vm::TracePlan>();
      ctx.plan_options_ = q->vmo;
    }
    q->installs = ctx.plan_->NextSubmission();
  }

  q->sched = sched_;
  std::lock_guard<std::mutex> lock(sched_->mu);
  ++sched_->submitted;
  if (sched_->active < sched_->max_active) {
    ++sched_->active;
    sched_->run_queue.push_back(q);
    sched_->outstanding += q->total_tasks;
    SpawnPumpsLocked();
  } else {
    sched_->admission.push_back(q);
  }
  return QueryHandle(q);
}

void Session::SpawnPumpsLocked() {
  // `pumps` counts loops that may all be BUSY running tasks: a new query
  // must get fresh pumps up to the worker cap or it would wait behind
  // unrelated long tasks while workers sit idle. Surplus pumps (the
  // existing ones were merely between claims) exit as soon as they find
  // the queue empty, so over-spawning is harmless.
  const size_t to_spawn =
      std::min(sched_->workers - std::min(sched_->workers, sched_->pumps),
               sched_->outstanding);
  for (size_t i = 0; i < to_spawn; ++i) {
    ++sched_->pumps;
    sched_->pool->Submit([this] { PumpLoop(); });
  }
}

Result<ExecReport> Session::Run(ExecContext& ctx,
                                const QueryOptions& options) {
  return Submit(ctx, options).Wait();
}

// ------------------------------------------------------------ worker loop

void Session::PumpLoop() {
  for (;;) {
    std::shared_ptr<QueryState> task_q;
    size_t task_index = 0;
    // Cancelled queries whose unclaimed tasks this claim dropped; their
    // accounting needs q->mu, which must not nest inside sched->mu.
    std::vector<std::pair<std::shared_ptr<QueryState>, size_t>> dropped;
    {
      std::lock_guard<std::mutex> lock(sched_->mu);
      while (!sched_->run_queue.empty()) {
        std::shared_ptr<QueryState> q = sched_->run_queue.front();
        sched_->run_queue.pop_front();
        const size_t remaining = q->total_tasks - q->issued;
        if (q->cancel.load(std::memory_order_relaxed)) {
          sched_->outstanding -= remaining;
          q->issued = q->total_tasks;
          dropped.emplace_back(std::move(q), remaining);
          continue;
        }
        task_index = q->issued++;
        --sched_->outstanding;
        // Round-robin fairness: a query with more work goes to the BACK, so
        // the next worker claims from the next in-flight query instead.
        if (q->issued < q->total_tasks) sched_->run_queue.push_back(q);
        task_q = std::move(q);
        break;
      }
      if (task_q == nullptr) --sched_->pumps;
    }
    for (auto& [q, n] : dropped) MarkSkipped(q, n);
    if (task_q == nullptr) return;
    RunTask(task_q, task_index);
  }
}

void Session::MarkSkipped(const std::shared_ptr<internal::QueryState>& q,
                          size_t n) {
  bool done = false;
  {
    std::lock_guard<std::mutex> lock(q->mu);
    q->skipped += n;
    if (q->completed + q->skipped == q->total_tasks && !q->finished) {
      if (q->status.ok()) q->status = Status::Cancelled("query cancelled");
      done = true;
    }
  }
  if (!done) return;
  // User-code cleanup hook: outside q->mu, before the handle completes.
  RunCleanup(*q);
  {
    std::lock_guard<std::mutex> lock(q->mu);
    FinalizeLocked(*q);
  }
  OnQueryDone(q);
}

void Session::RunTask(const std::shared_ptr<QueryState>& q, size_t index) {
  {
    std::lock_guard<std::mutex> lock(q->mu);
    if (!q->started) {
      q->started = true;
      q->wall.Restart();
    }
  }

  const Status st =
      q->gpu_task ? RunGpuTask(*q) : RunMorselTask(*q, q->morsels[index]);

  bool last = false;
  {
    std::lock_guard<std::mutex> lock(q->mu);
    if (!st.ok() && q->status.ok()) {
      q->status = st;
      // Drop this query's unclaimed morsels at the next claim.
      q->cancel.store(true, std::memory_order_relaxed);
    }
    ++q->completed;
    last = q->completed + q->skipped == q->total_tasks;
  }
  if (!last) return;

  // The last finisher is unique, so the barrier hook runs outside q->mu
  // (it may be arbitrarily expensive: merging sorted output runs). It only
  // runs for a query whose every task merged — a cancel raised mid-run
  // (user request, or a sibling morsel's failure) means partial results,
  // which must surface as Cancelled, not be merged into an output.
  bool run_finalize = false;
  {
    std::lock_guard<std::mutex> lock(q->mu);
    if (q->status.ok() && q->cancel.load(std::memory_order_relaxed)) {
      q->status = Status::Cancelled("query cancelled");
    }
    run_finalize = q->status.ok() && q->ctx->finalize_hook_ != nullptr;
  }
  if (run_finalize) {
    // Merge parts run on this Session's workers only; the pool is
    // immutable while any query is active.
    ThreadPool* pool = sched_->pool.get();
    Status fst = q->ctx->finalize_hook_(
        [pool](size_t n, const std::function<void(size_t)>& fn) {
          pool->ParallelFor(n, fn);
        });
    if (!fst.ok()) {
      std::lock_guard<std::mutex> lock(q->mu);
      if (q->status.ok()) q->status = fst;
    }
  }
  // Cleanup after the finalize hook (which still reads spilled runs) and
  // before FinalizeLocked (which only copies monotonic counters).
  RunCleanup(*q);
  {
    std::lock_guard<std::mutex> lock(q->mu);
    FinalizeLocked(*q);
  }
  OnQueryDone(q);
}

void Session::FinalizeLocked(QueryState& q) {
  ExecReport& r = q.report;
  r.strategy = q.qo.strategy;
  r.kernel_tier =
      interp::TierName(interp::ResolveKernelTier(q.qo.vm.interp.kernel_tier));
  if (!q.gpu_task) {
    r.workers = std::min(sched_->workers, q.morsels.size());
    r.morsels = q.morsels.size();
    r.rows = q.rows;
  }
  r.ran_serial_reason = q.serial_reason;
  r.bytes_spilled = q.ctx->spill_stats_.bytes_spilled;
  r.spill_runs = q.ctx->spill_stats_.spill_runs;
  r.merge_parts = q.ctx->spill_stats_.merge_parts;
  if (q.tracker != nullptr) r.peak_tracked_bytes = q.tracker->peak();
  if (q.started) r.wall_seconds = q.wall.ElapsedSeconds();
  if (q.calibrate_cpu && q.status.ok()) {
    std::lock_guard<std::mutex> lock(gpu_mu_);
    gpu_placer_->Observe(gpu::Device::kCpu, q.gpu_profile, r.wall_seconds);
  }
  // `finished` is set by OnQueryDone, after the session's counters update:
  // a client that returns from Wait() must see consistent stats().
}

void Session::OnQueryDone(const std::shared_ptr<QueryState>& q) {
  std::lock_guard<std::mutex> lock(sched_->mu);
  --sched_->active;
  ++sched_->completed;
  {
    std::lock_guard<std::mutex> qlock(q->mu);
    if (q->status.IsCancelled()) ++sched_->cancelled;
    q->finished = true;
    q->cv.notify_all();
  }
  while (!sched_->admission.empty() &&
         sched_->active < sched_->max_active) {
    std::shared_ptr<QueryState> next = sched_->admission.front();
    sched_->admission.pop_front();
    ++sched_->active;
    sched_->run_queue.push_back(next);
    sched_->outstanding += next->total_tasks;
  }
  SpawnPumpsLocked();
  if (sched_->active == 0 && sched_->admission.empty()) {
    sched_->drained.notify_all();
  }
}

// ------------------------------------------------------- classification

namespace {

/// Per-morsel view of a full-extent binding.
interp::DataBinding SliceBinding(const interp::DataBinding& full,
                                 uint64_t begin, uint64_t rows) {
  if (full.column != nullptr) {
    return interp::DataBinding::ColumnSlice(full.column,
                                            full.col_offset + begin, rows);
  }
  interp::DataBinding s = full;
  s.len = rows;
  if (s.raw != nullptr) {
    s.raw = static_cast<uint8_t*>(s.raw) + begin * TypeWidth(s.type);
  }
  return s;
}

Status ValidatePartitioned(const std::string& name,
                           const interp::DataBinding& b, uint64_t rows) {
  if (b.len < rows) {
    return Status::InvalidArgument(
        StrFormat("binding %s has %llu rows, context expects %llu",
                  name.c_str(), (unsigned long long)b.len,
                  (unsigned long long)rows));
  }
  return Status::OK();
}

/// Element-wise sum of one task's accumulator partial into the master —
/// correct for the additive aggregates (sums, counts) kScatter/kFold
/// accumulator programs produce.
void SumMerge(TypeId type, void* master, const void* partial, uint64_t len) {
  if (type == TypeId::kBool) type = TypeId::kI8;  // bools add as bytes
  DispatchType(type, [&]<typename T>() {
    T* m = static_cast<T*>(master);
    const T* p = static_cast<const T*>(partial);
    for (uint64_t i = 0; i < len; ++i) m[i] += p[i];
  });
}

/// The data array whose len ends the (type-checked) program's first loop
/// through a direct `if <pos> >= len(<array>) then break`; empty if none.
std::string LoopBoundArray(const dsl::Program& program) {
  const dsl::Stmt* loop = nullptr;
  dsl::VisitStmts(program, [&](const dsl::StmtPtr& s) {
    if (loop == nullptr && s->kind == dsl::StmtKind::kLoop) loop = s.get();
  });
  if (loop == nullptr) return "";
  for (const dsl::StmtPtr& s : loop->body) {
    if (s->kind != dsl::StmtKind::kIf || !s->else_body.empty() ||
        s->body.size() != 1 || s->body[0]->kind != dsl::StmtKind::kBreak ||
        s->expr->kind != dsl::ExprKind::kScalarCall ||
        s->expr->op != dsl::ScalarOp::kGe) {
      continue;
    }
    const dsl::Expr& bound = *s->expr->args[1];
    if (bound.kind == dsl::ExprKind::kSkeleton &&
        bound.skeleton == dsl::SkeletonKind::kLen &&
        bound.args[0]->kind == dsl::ExprKind::kVarRef) {
      return bound.args[0]->var;
    }
  }
  return "";
}

/// Row-partitioning is only sound when the loop ends with the morsel's
/// rows and every data access tracks the input row position. Four shapes
/// break that and force one whole-array task:
///  - a first loop that does not exit at len of a kInput binding
///    (LoopBoundArray): the program owns its bound, which a morsel's loop
///    would never reach;
///  - condense: survivors land at data-dependent output positions, so a
///    row-sliced output would be silently wrong;
///  - scatter whose target is NOT a privatized accumulator: scatter indices
///    are absolute, a row-sliced output window would shift them;
///  - gather whose base is row-sliced (kInput/kOutput): the slice hides
///    rows the gather may address. Shared and accumulator bases see the
///    whole array and are fine.
/// Returns the blocking construct's name, or empty when partitionable.
std::string RowPartitionBlocker(
    const dsl::Program& program,
    const std::vector<analysis::BindingInfo>& bindings) {
  auto role_of = [&](const std::string& name) -> const BindRole* {
    for (const analysis::BindingInfo& b : bindings) {
      if (b.name == name) return &b.role;
    }
    return nullptr;
  };
  const BindRole* loop_role = role_of(LoopBoundArray(program));
  if (loop_role == nullptr || *loop_role != BindRole::kInput) {
    return "loop bound is not len of an input";
  }
  std::string blocker;
  dsl::VisitExprs(program, [&](const dsl::ExprPtr& e) {
    if (e->kind != dsl::ExprKind::kSkeleton || !blocker.empty()) return;
    switch (e->skeleton) {
      case dsl::SkeletonKind::kCondense:
        blocker = "condense";
        break;
      case dsl::SkeletonKind::kScatter: {
        const BindRole* r =
            e->args.empty() ? nullptr : role_of(e->args[0]->var);
        if (r != nullptr && *r != BindRole::kAccumulator) {
          blocker = "scatter to non-accumulator";
        }
        break;
      }
      case dsl::SkeletonKind::kGather: {
        const BindRole* r =
            e->args.empty() ? nullptr : role_of(e->args[0]->var);
        if (r != nullptr && *r != BindRole::kShared &&
            *r != BindRole::kAccumulator) {
          blocker = "gather from row-partitioned array";
        }
        break;
      }
      default:
        break;
    }
  });
  return blocker;
}

vm::VmOptions EffectiveVmOptions(const QueryOptions& qo) {
  vm::VmOptions vmo = qo.vm;
  if (qo.strategy == ExecutionStrategy::kInterpret) {
    vmo.enable_jit = false;
  }
  return vmo;
}

}  // namespace

Status Session::Classify(QueryState& q) {
  q.vmo = EffectiveVmOptions(q.qo);

  // Resolve the query's memory tracker: per-query budget, the session-wide
  // AVM_MEMORY_BUDGET tracker, or a private unlimited one (still tracks
  // peak for observability).
  if (q.qo.memory_budget > 0) {
    q.tracker = std::make_shared<MemoryTracker>(q.qo.memory_budget);
  } else if (env_tracker_ != nullptr) {
    q.tracker = env_tracker_;
  } else {
    q.tracker = std::make_shared<MemoryTracker>(0);
  }

  if (q.qo.strategy == ExecutionStrategy::kGpuOffload) {
    bool offload = false;
    Status st = ProbeGpuOffload(q, &offload);
    if (st.ok() && offload) {
      q.gpu_task = true;
      q.total_tasks = 1;
      return Status::OK();
    }
    if (!st.ok() && !st.IsNotFound()) return st;
    // Not offloadable (or the placer kept it on the CPU): run the normal
    // CPU path; when the placer made the call, calibrate it from the run.
  }
  return ClassifyCpu(q);
}

Status Session::ClassifyCpu(QueryState& q) {
  ExecContext& ctx = *q.ctx;
  const size_t workers = sched_->workers;
  const bool want_parallel = workers > 1;
  // The query's rows: those bound to the input whose len ends the loop.
  const std::string loop_array = LoopBoundArray(ctx.program_);
  for (const ExecContext::Bound& b : ctx.bound_) {
    if (b.name == loop_array) {
      if (b.role == BindRole::kInput) q.rows = b.binding.len;
      break;
    }
  }

  // A serial query is one morsel spanning every row, run like any other.
  auto serial = [&](std::string reason) -> Status {
    q.morsels = {Morsel{0, q.rows, 0}};
    q.total_tasks = 1;
    if (want_parallel) q.serial_reason = std::move(reason);
    return Status::OK();
  };

  // The memory-plan hook runs on EVERY submission path (serial included):
  // it is where budget-aware queries charge their persistent allocations
  // and (re)bind their output windows — in-memory or per-task scratch.
  uint64_t spill_cap = 0;
  if (ctx.prepare_hook_ != nullptr) {
    MemoryPlan plan;
    plan.tracker = q.tracker;
    plan.workers = std::max<size_t>(1, workers);
    plan.chunk_size = q.vmo.interp.chunk_size;
    PrepareOutcome outcome;
    AVM_RETURN_NOT_OK(ctx.prepare_hook_(plan, &outcome));
    spill_cap = outcome.max_morsel_rows;
  }
  const bool spill = spill_cap > 0;

  const std::string blocker =
      RowPartitionBlocker(ctx.program_, ctx.BindingTable());
  if (!blocker.empty()) {
    if (spill) {
      // A serial fallback would need the whole output window resident,
      // which is exactly what the budget disallowed.
      return Status::InvalidArgument(
          "memory budget requires a row-partitionable program, but: " +
          blocker);
    }
    return serial("program not row-partitionable: " + blocker);
  }
  // Morsels slice every row-partitioned binding to the loop input's rows,
  // so a shorter one would hand a morsel rows past its end.
  for (const ExecContext::Bound& b : ctx.bound_) {
    if (b.scratch) continue;  // engine-allocated per task; no extent yet
    if (b.role == BindRole::kInput || b.role == BindRole::kOutput ||
        b.role == BindRole::kPartialOutput) {
      AVM_RETURN_NOT_OK(
          ValidatePartitioned(b.name, b.binding, q.rows * b.row_scale));
    }
  }
  if (q.rows == 0) return serial("no input rows");
  // Spill mode forces morsel-wise execution even on one worker: each task
  // gets a budget-sized scratch window whose sorted run seals to disk.
  if (!want_parallel && !spill) return serial("");

  // 0 = auto size; in spill mode spill_cap is already chunk-aligned
  // (floored) by the hook, so PartitionRows' round-UP to chunk alignment
  // cannot exceed it.
  q.morsels =
      PartitionRows(q.rows, workers, spill_cap, q.vmo.interp.chunk_size);
  if (q.morsels.size() <= 1 && !spill) {
    return serial("input fits a single morsel");
  }

  // Scale the JIT warmup to the morsel size: each morsel runs its own VM,
  // and a warmup longer than the morsel would silently downgrade the
  // adaptive strategy to pure interpretation.
  if (q.vmo.enable_jit && q.vmo.optimize_after_iterations > 0) {
    const uint64_t morsel_iters = std::max<uint64_t>(
        1, q.morsels[0].rows() / q.vmo.interp.chunk_size);
    q.vmo.optimize_after_iterations = std::max<uint64_t>(
        1, std::min(q.vmo.optimize_after_iterations, morsel_iters / 4));
  }
  q.total_tasks = q.morsels.size();
  return Status::OK();
}

// -------------------------------------------------------------- execution

Status Session::RunMorselTask(QueryState& q, const Morsel& m) {
  ExecContext& ctx = *q.ctx;
  // Every morsel runs the context's one program, so its VMs share the
  // context's trace plan, and queue their compiles on this Session's
  // compiler thread.
  vm::AdaptiveVm vmach(&ctx.program_, q.vmo, ctx.plan_.get(), &compiler_);
  interp::Interpreter& in = vmach.interpreter();
  // A query's only task binds whole arrays: a program that owns its loop
  // bound may address rows past any input's length. Each morsel of a
  // multi-morsel query binds its row slice.
  const bool whole = q.morsels.size() == 1;
  auto slice = [&](const interp::DataBinding& b, uint64_t scale) {
    return whole ? b : SliceBinding(b, m.begin * scale, m.rows() * scale);
  };

  // Private accumulator copies, summed into the master once the task
  // succeeds.
  std::vector<std::vector<uint8_t>> privates;
  privates.reserve(ctx.bound_.size());
  // Spill-mode scratch windows: allocated per task, sealed to disk by the
  // task hook, discarded here. Charged transiently — the overshoot is
  // bounded by workers x one morsel's scratch (see MemoryTracker). Left
  // uninitialized: nothing reads a window past the rows the task wrote.
  std::vector<std::unique_ptr<uint8_t[]>> scratch_windows;
  uint64_t transient_bytes = 0;
  for (const ExecContext::Bound& b : ctx.bound_) {
    switch (b.role) {
      case BindRole::kInput:
      case BindRole::kOutput:
        AVM_RETURN_NOT_OK(in.BindData(b.name, slice(b.binding, 1)));
        // Column-backed inputs stream through a cursor that decodes only
        // the rows it reads, caching at most one Delta or RLE block;
        // account one block of scratch as the upper bound.
        if (b.binding.column != nullptr) {
          transient_bytes += static_cast<uint64_t>(
                                 b.binding.column->block_size()) *
                             TypeWidth(b.binding.type);
        }
        break;
      case BindRole::kPartialOutput:
        if (b.scratch) {
          const uint64_t wrows = m.rows() * b.row_scale;
          const size_t bytes =
              static_cast<size_t>(wrows) * TypeWidth(b.binding.type);
          scratch_windows.push_back(
              std::make_unique_for_overwrite<uint8_t[]>(bytes));
          transient_bytes += bytes;
          AVM_RETURN_NOT_OK(in.BindData(
              b.name,
              interp::DataBinding::Raw(b.binding.type,
                                       scratch_windows.back().get(), wrows,
                                       true)));
        } else {
          // Windows scale with the query's fan-out factor: this morsel
          // owns [begin*scale, end*scale) of the full window.
          AVM_RETURN_NOT_OK(
              in.BindData(b.name, slice(b.binding, b.row_scale)));
        }
        break;
      case BindRole::kShared:
        AVM_RETURN_NOT_OK(in.BindData(b.name, b.binding));
        break;
      case BindRole::kAccumulator: {
        privates.emplace_back(b.binding.len * TypeWidth(b.binding.type), 0);
        transient_bytes += privates.back().size();
        AVM_RETURN_NOT_OK(in.BindData(
            b.name, interp::DataBinding::Raw(b.binding.type,
                                             privates.back().data(),
                                             b.binding.len, true)));
        break;
      }
    }
  }

  if (q.installs.has_value()) vmach.InstallFromPlan(*q.installs);
  ScopedTransientCharge task_charge(q.tracker.get(), transient_bytes);
  AVM_RETURN_NOT_OK(vmach.Run());

  // A cancelled (or failed) query's results are discarded wholesale; do not
  // hand this morsel to the hook or merge its partials into the
  // caller-visible arrays. The hook runs on this worker, concurrently with
  // the other tasks' hooks (it sorts the task's output window).
  if (q.cancel.load(std::memory_order_relaxed)) return Status::OK();
  if (ctx.task_hook_) AVM_RETURN_NOT_OK(ctx.task_hook_(in, m));
  std::lock_guard<std::mutex> merge_lock(q.merge_mu);
  if (q.cancel.load(std::memory_order_relaxed)) return Status::OK();
  size_t pi = 0;
  for (const ExecContext::Bound& b : ctx.bound_) {
    if (b.role != BindRole::kAccumulator) continue;
    SumMerge(b.binding.type, b.binding.raw, privates[pi].data(),
             b.binding.len);
    ++pi;
  }
  std::lock_guard<std::mutex> lock(q.mu);  // merge_mu -> mu, nowhere reversed
  q.report.Merge(vmach.Report());
  // The report keeps morsel 0's timeline and profile; no other task
  // formats them.
  if (m.index == 0) {
    q.report.state_timeline = vmach.state_machine().Timeline();
    q.report.profile = in.profiler().ToString();
  }
  return Status::OK();
}

// ------------------------------------------------------- GPU offload path

namespace {

/// An offloadable fragment: a single map pipeline `out[i] = f(src[i])`.
struct MapFragment {
  std::string src;
  std::string out;
  const dsl::Expr* lambda = nullptr;
};

/// Recognize MakeMapPipeline-shaped programs: exactly one read, one
/// single-input map, one write, and no other data-parallel skeletons.
Result<MapFragment> DetectMapFragment(const dsl::Program& program) {
  MapFragment frag;
  int reads = 0, maps = 0, writes = 0, others = 0;
  dsl::VisitExprs(program, [&](const dsl::ExprPtr& e) {
    if (e->kind != dsl::ExprKind::kSkeleton) return;
    switch (e->skeleton) {
      case dsl::SkeletonKind::kRead:
        ++reads;
        if (e->args.size() == 2) frag.src = e->args[1]->var;
        break;
      case dsl::SkeletonKind::kMap:
        ++maps;
        if (e->args.size() == 2 &&
            e->args[0]->kind == dsl::ExprKind::kLambda) {
          frag.lambda = e->args[0].get();
        }
        break;
      case dsl::SkeletonKind::kWrite:
        ++writes;
        if (!e->args.empty()) frag.out = e->args[0]->var;
        break;
      case dsl::SkeletonKind::kLen:
        break;
      default:
        ++others;
    }
  });
  if (reads != 1 || maps != 1 || writes != 1 || others != 0 ||
      frag.lambda == nullptr || frag.src.empty() || frag.out.empty()) {
    return Status::NotFound("program is not an offloadable map fragment");
  }
  return frag;
}

}  // namespace

Status Session::ProbeGpuOffload(QueryState& q, bool* offload) {
  *offload = false;
  ExecContext& ctx = *q.ctx;

  // Materializing queries depend on the per-task hook (output counts,
  // partial sorts) and per-morsel windows, which the device path does not
  // drive — a GPU run would report success with empty results. Shape
  // detection alone cannot see this (a row query can look exactly like a
  // map fragment), so check the context first.
  if (ctx.task_hook_ != nullptr) {
    return Status::NotFound("query has a per-task hook: not offloadable");
  }
  if (ctx.prepare_hook_ != nullptr) {
    // Budget-aware queries charge/bind through the CPU prepare protocol,
    // which the device path does not drive.
    return Status::NotFound("query has a memory-plan hook: not offloadable");
  }
  for (const ExecContext::Bound& b : ctx.bound_) {
    if (b.role == BindRole::kPartialOutput) {
      return Status::NotFound(
          "query has per-morsel output windows: not offloadable");
    }
  }

  AVM_ASSIGN_OR_RETURN(MapFragment frag, DetectMapFragment(ctx.program_));

  const ExecContext::Bound* src = nullptr;
  const ExecContext::Bound* out = nullptr;
  for (const ExecContext::Bound& b : ctx.bound_) {
    if (b.name == frag.src) src = &b;
    if (b.name == frag.out) out = &b;
  }
  if (src == nullptr || out == nullptr || out->binding.raw == nullptr) {
    return Status::NotFound("map fragment inputs/outputs not offloadable");
  }
  const uint64_t rows = src->binding.len;
  if (rows == 0 || rows > UINT32_MAX || out->binding.len < rows) {
    return Status::NotFound("row count not offloadable");
  }

  AVM_ASSIGN_OR_RETURN(ir::PrimProgram prim,
                       ir::Normalize(*frag.lambda, {src->binding.type}));
  for (const ir::PrimInstr& instr : prim.instrs) {
    for (int a = 0; a < instr.num_args; ++a) {
      if (instr.args[a].kind == ir::ArgKind::kCapture) {
        return Status::NotFound("lambda captures scalars: not offloadable");
      }
    }
  }
  if (prim.result_type != out->binding.type) {
    return Status::NotFound("map result type mismatch: not offloadable");
  }

  gpu::FragmentProfile profile;
  profile.rows = rows;
  profile.bytes_in = rows * TypeWidth(src->binding.type);
  profile.bytes_out = rows * TypeWidth(out->binding.type);
  profile.ops_per_row =
      std::max<double>(1, static_cast<double>(prim.NumInstrs()));

  std::lock_guard<std::mutex> lock(gpu_mu_);
  if (gpu_device_ == nullptr) {
    gpu_device_ = std::make_unique<gpu::SimGpuDevice>(
        gpu::GpuDeviceParams{}, &ThreadPool::Global());
    gpu_backend_ = std::make_unique<gpu::GpuBackend>(gpu_device_.get());
    gpu_placer_ =
        std::make_unique<gpu::AdaptivePlacer>(gpu_device_->params());
  }
  q.gpu_profile = profile;
  gpu::PlacementDecision decision = gpu_placer_->Decide(profile);
  if (decision.device == gpu::Device::kCpu) {
    // The placer keeps the fragment on the CPU: the query runs the normal
    // CPU path (serial or morsel-parallel), and its measured wall time
    // calibrates the placer at finalization.
    q.calibrate_cpu = true;
    return Status::OK();
  }

  q.gpu_prim = std::move(prim);
  q.gpu_src = src->binding;
  q.gpu_out = out->binding;
  q.gpu_rows = rows;
  *offload = true;
  return Status::OK();
}

Status Session::RunGpuTask(QueryState& q) {
  const uint64_t rows = q.gpu_rows;
  const size_t in_width = TypeWidth(q.gpu_src.type);
  const size_t out_width = TypeWidth(q.gpu_out.type);

  // One simulated device: device-side execution is serialized across
  // concurrent queries (transfers and launches share the PCIe/SM model).
  // This lock is NOT gpu_mu_ — holding the placer/init mutex for a whole
  // device run would stall concurrent Submits that only need a placement
  // decision.
  std::lock_guard<std::mutex> gpu_lock(gpu_device_mu_);

  // Materialize the input (a compiled scan would do this inline on device).
  std::vector<uint8_t> decoded;
  const void* host_in = q.gpu_src.raw;
  if (host_in == nullptr) {
    decoded.resize(rows * in_width);
    AVM_RETURN_NOT_OK(
        q.gpu_src.column->Read(q.gpu_src.col_offset, rows, decoded.data()));
    host_in = decoded.data();
  }

  const double sim_before = gpu_device_->clock_seconds();
  AVM_ASSIGN_OR_RETURN(gpu::SimGpuDevice::BufferId in_buf,
                       gpu_backend_->EnsureResident(host_in, rows * in_width));
  Result<gpu::SimGpuDevice::BufferId> out_buf =
      gpu_backend_->RunMap(q.gpu_prim, {in_buf}, {q.gpu_src.type},
                           static_cast<uint32_t>(rows));
  Status run_st = out_buf.ok() ? Status::OK() : out_buf.status();
  if (run_st.ok()) {
    run_st = gpu_device_->CopyToHost(q.gpu_out.raw, out_buf.value(),
                                     rows * out_width);
  }
  // Release device buffers on every path — a long-lived engine must not
  // leak residency when a launch or copy fails.
  if (out_buf.ok()) (void)gpu_device_->Free(out_buf.value());
  (void)gpu_backend_->Evict(host_in);
  AVM_RETURN_NOT_OK(run_st);
  const double sim_seconds = gpu_device_->clock_seconds() - sim_before;
  {
    std::lock_guard<std::mutex> placer_lock(gpu_mu_);
    gpu_placer_->Observe(gpu::Device::kGpu, q.gpu_profile, sim_seconds);
  }

  std::lock_guard<std::mutex> lock(q.mu);
  q.report.device = "gpu-sim";
  q.report.rows = rows;
  q.report.gpu_sim_seconds = sim_seconds;
  return Status::OK();
}

}  // namespace avm::engine
