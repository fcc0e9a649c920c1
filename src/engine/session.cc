#include "engine/session.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>

#include "dsl/typecheck.h"
#include "gpu/gpu_backend.h"
#include "gpu/placement.h"
#include "gpu/sim_device.h"
#include "ir/prim.h"
#include "util/string_util.h"
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

  bool single_task = false;  ///< serial CPU or GPU-device query
  bool gpu_task = false;     ///< run on the simulated device
  std::vector<Morsel> morsels;                 // parallel class only
  std::map<uint64_t, dsl::Program> programs;   // per distinct morsel size
  size_t total_tasks = 0;
  std::string serial_reason;

  // kGpuOffload bookkeeping: the instantiated fragment (kept alive for the
  // device task) and the profile used to calibrate the placer.
  std::shared_ptr<dsl::Program> gpu_program;
  ir::PrimProgram gpu_prim;
  interp::DataBinding gpu_src;
  interp::DataBinding gpu_out;
  uint64_t gpu_rows = 0;
  gpu::FragmentProfile gpu_profile;
  bool calibrate_cpu = false;  ///< placer chose CPU: observe the CPU run

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

  /// Serializes inspector calls + accumulator merges across morsel workers.
  /// Deliberately NOT `mu`: the inspector is user code that may probe the
  /// query's own handle (done() / TryGetReport() lock `mu`).
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
}

size_t Session::num_workers() const { return sched_->workers; }

Session::Stats Session::stats() const {
  std::lock_guard<std::mutex> lock(sched_->mu);
  return Stats{sched_->submitted, sched_->completed, sched_->cancelled};
}

ThreadPool& Session::DevicePool() const {
  return options_.device_pool != nullptr ? *options_.device_pool
                                         : ThreadPool::Global();
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

QueryHandle Session::Submit(ExecContext& ctx) {
  return Submit(ctx, options_.defaults);
}

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

Result<ExecReport> Session::Run(ExecContext& ctx) {
  return Submit(ctx).Wait();
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

  Status st;
  ExecReport serial_report;
  if (q->single_task) {
    st = q->gpu_task ? RunGpuTask(*q, &serial_report)
                     : RunSerialQuery(*q, &serial_report);
  } else {
    st = RunMorselTask(*q, q->morsels[index]);
  }

  bool last = false;
  {
    std::lock_guard<std::mutex> lock(q->mu);
    if (!st.ok() && q->status.ok()) {
      q->status = st;
      // Drop this query's unclaimed morsels at the next claim.
      if (!q->single_task) q->cancel.store(true, std::memory_order_relaxed);
    }
    if (st.ok() && q->single_task) q->report = std::move(serial_report);
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
    Status fst = q->ctx->finalize_hook_();
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
  if (!q.single_task) {
    r.workers = std::min(sched_->workers, q.morsels.size());
    r.morsels = q.morsels.size();
    r.rows = q.ctx->total_rows_;
  }
  r.ran_serial_reason = q.serial_reason;
  r.bytes_spilled = q.ctx->spill_stats_.bytes_spilled;
  r.spill_runs = q.ctx->spill_stats_.spill_runs;
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

void MergeVmReport(const vm::VmReport& in, ExecReport* out) {
  out->iterations += in.iterations;
  out->chunks_streamed += in.chunks_streamed;
  out->traces_compiled += in.traces_compiled;
  out->traces_reused += in.traces_reused;
  out->injection_runs += in.injection_runs;
  out->injection_fallbacks += in.injection_fallbacks;
  out->compile_seconds += in.compile_seconds;
  if (out->jit_declined.empty()) out->jit_declined = in.jit_declined;
  if (out->jit_tier.empty()) out->jit_tier = in.jit_tier;
  out->fast_compiles += in.fast_compiles;
  out->opt_compiles += in.opt_compiles;
  out->fast_compile_seconds += in.fast_compile_seconds;
  out->opt_compile_seconds += in.opt_compile_seconds;
  out->disk_cache_hits += in.disk_cache_hits;
  out->disk_cache_misses += in.disk_cache_misses;
  out->disk_cache_corrupt += in.disk_cache_corrupt;
  out->tier_upgrades_requested += in.tier_upgrades_requested;
  out->tier_upgrades += in.tier_upgrades;
  out->verifier_checked += in.verifier_checked;
}

/// Row-partitioning is only sound when every data access tracks the input
/// row position. Three shapes break that and force a serial run:
///  - condense: survivors land at data-dependent output positions, so a
///    row-sliced output would be silently wrong;
///  - scatter whose target is NOT a privatized accumulator: scatter indices
///    are absolute, a row-sliced output window would shift them;
///  - gather whose base is row-sliced (kInput/kOutput): the slice hides
///    rows the gather may address. Shared and accumulator bases see the
///    whole array and are fine.
/// Returns the blocking construct's name, or empty when partitionable.
std::string RowPartitionBlocker(const dsl::Program& program,
                                const std::map<std::string, BindRole>& roles) {
  auto role_of = [&](const std::string& name) -> const BindRole* {
    auto it = roles.find(name);
    return it == roles.end() ? nullptr : &it->second;
  };
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
  ExecContext& ctx = *q.ctx;
  if (ctx.fixed_program_ == nullptr && ctx.make_program_ == nullptr) {
    return Status::InvalidArgument("ExecContext has no program");
  }
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
      q.single_task = true;
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

  auto serial = [&](std::string reason) {
    q.single_task = true;
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

  if (!ctx.parallelizable()) {
    if (spill) {
      return Status::InvalidArgument(
          "spill-mode query requires a per-morsel program factory");
    }
    return serial("fixed-program context (no per-morsel program factory)");
  }
  if (ctx.total_rows_ == 0) return serial("no input rows");
  // Spill mode forces morsel-wise execution even on one worker: each task
  // gets a budget-sized scratch window whose sorted run seals to disk.
  if (!want_parallel && !spill) return serial("");

  for (const ExecContext::Bound& b : ctx.bound_) {
    if (b.scratch) continue;  // engine-allocated per task; no extent yet
    if (b.role == BindRole::kInput || b.role == BindRole::kOutput ||
        b.role == BindRole::kPartialOutput) {
      AVM_RETURN_NOT_OK(ValidatePartitioned(b.name, b.binding,
                                            ctx.total_rows_ * b.row_scale));
    }
  }

  uint64_t morsel_rows = q.qo.morsel_rows;
  if (spill) {
    // spill_cap is already chunk-aligned (floored) by the hook, so
    // PartitionRows' round-UP to chunk alignment cannot exceed it.
    morsel_rows =
        morsel_rows == 0 ? spill_cap : std::min(morsel_rows, spill_cap);
  }
  q.morsels = PartitionRows(ctx.total_rows_, workers, morsel_rows,
                            q.vmo.interp.chunk_size);
  if (q.morsels.size() <= 1 && !spill) {
    q.morsels.clear();
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

  // Build one type-checked program per distinct morsel size (at most two:
  // the steady size and the tail) and share it read-only across workers —
  // interpretation never mutates the program, and per-morsel program
  // construction would otherwise dominate small morsels.
  std::map<std::string, BindRole> roles;
  for (const ExecContext::Bound& b : ctx.bound_) {
    roles.emplace(b.name, b.role);
  }
  for (const Morsel& m : q.morsels) {
    if (q.programs.contains(m.rows())) continue;
    AVM_ASSIGN_OR_RETURN(dsl::Program program,
                         ctx.make_program_(static_cast<int64_t>(m.rows())));
    AVM_RETURN_NOT_OK(dsl::TypeCheck(&program));
    std::string blocker = RowPartitionBlocker(program, roles);
    if (!blocker.empty()) {
      q.morsels.clear();
      q.programs.clear();
      if (spill) {
        // A serial fallback would need the whole output window resident,
        // which is exactly what the budget disallowed.
        return Status::InvalidArgument(
            "memory budget requires a row-partitionable program, but: " +
            blocker);
      }
      return serial("program not row-partitionable: " + blocker);
    }
    q.programs.emplace(m.rows(), std::move(program));
  }
  q.total_tasks = q.morsels.size();
  return Status::OK();
}

// -------------------------------------------------------------- execution

Status Session::RunSerialQuery(QueryState& q, ExecReport* report) {
  ExecContext& ctx = *q.ctx;

  dsl::Program local;
  const dsl::Program* program = ctx.fixed_program_;
  if (ctx.make_program_ != nullptr) {
    // The engine chose the loop bound (total_rows_), so undersized
    // partitioned bindings would make the loop spin on empty reads forever
    // — reject them up front. (Fixed programs own their loop bound; the
    // engine cannot second-guess their binding lengths.)
    for (const ExecContext::Bound& b : ctx.bound_) {
      if (b.scratch) continue;  // never reached serially; no extent to check
      if (b.role == BindRole::kInput || b.role == BindRole::kOutput ||
          b.role == BindRole::kPartialOutput) {
        AVM_RETURN_NOT_OK(ValidatePartitioned(b.name, b.binding,
                                              ctx.total_rows_ * b.row_scale));
      }
    }
    if (q.gpu_program != nullptr) {
      // GPU classification already instantiated + type-checked the program
      // for the full row range; reuse it.
      program = q.gpu_program.get();
    } else {
      AVM_ASSIGN_OR_RETURN(
          local, ctx.make_program_(static_cast<int64_t>(ctx.total_rows_)));
      AVM_RETURN_NOT_OK(dsl::TypeCheck(&local));
      program = &local;
    }
  }

  vm::AdaptiveVm vmach(program, q.vmo, &cache_);
  for (const ExecContext::Bound& b : ctx.bound_) {
    AVM_RETURN_NOT_OK(vmach.interpreter().BindData(b.name, b.binding));
  }
  AVM_RETURN_NOT_OK(vmach.Run());
  if (ctx.inspector_) ctx.inspector_(vmach.interpreter());
  if (ctx.task_hook_) {
    AVM_RETURN_NOT_OK(
        ctx.task_hook_(vmach.interpreter(), Morsel{0, ctx.total_rows_, 0}));
  }

  report->workers = 1;
  report->morsels = 1;
  report->rows = ctx.total_rows_;
  vm::VmReport vr = vmach.Report();
  MergeVmReport(vr, report);
  report->state_timeline = std::move(vr.state_timeline);
  report->profile = std::move(vr.profile);
  return Status::OK();
}

Status Session::RunMorselTask(QueryState& q, const Morsel& m) {
  ExecContext& ctx = *q.ctx;
  const dsl::Program& program = q.programs.at(m.rows());
  vm::AdaptiveVm vmach(&program, q.vmo, &cache_);
  interp::Interpreter& in = vmach.interpreter();

  // Private accumulator copies, merged into the master at the barrier.
  std::vector<std::vector<uint8_t>> privates;
  privates.reserve(ctx.bound_.size());
  // Spill-mode scratch windows: allocated per task, sealed to disk by the
  // task hook, discarded here. Charged transiently — the overshoot is
  // bounded by workers x one morsel's scratch (see MemoryTracker).
  std::vector<std::vector<uint8_t>> scratch_windows;
  uint64_t transient_bytes = 0;
  for (const ExecContext::Bound& b : ctx.bound_) {
    switch (b.role) {
      case BindRole::kInput:
      case BindRole::kOutput:
        AVM_RETURN_NOT_OK(
            in.BindData(b.name, SliceBinding(b.binding, m.begin, m.rows())));
        // Column-backed inputs stream block-at-a-time through a decode
        // cache the interpreter owns; account one block of scratch.
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
          scratch_windows.emplace_back(bytes);
          transient_bytes += bytes;
          AVM_RETURN_NOT_OK(in.BindData(
              b.name,
              interp::DataBinding::Raw(b.binding.type,
                                       scratch_windows.back().data(), wrows,
                                       true)));
        } else {
          // Windows scale with the query's fan-out factor: this morsel
          // owns [begin*scale, end*scale) of the full window.
          AVM_RETURN_NOT_OK(in.BindData(
              b.name, SliceBinding(b.binding, m.begin * b.row_scale,
                                   m.rows() * b.row_scale)));
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

  ScopedTransientCharge task_charge(q.tracker.get(), transient_bytes);
  AVM_RETURN_NOT_OK(vmach.Run());

  std::lock_guard<std::mutex> merge_lock(q.merge_mu);
  // A cancelled (or failed) query's results are discarded wholesale; do not
  // merge this morsel's partials into the caller-visible arrays.
  if (q.cancel.load(std::memory_order_relaxed)) return Status::OK();
  if (ctx.inspector_) ctx.inspector_(in);
  if (ctx.task_hook_) AVM_RETURN_NOT_OK(ctx.task_hook_(in, m));
  size_t pi = 0;
  for (const ExecContext::Bound& b : ctx.bound_) {
    if (b.role != BindRole::kAccumulator) continue;
    const MergeFn& merge = b.merge ? b.merge : SumMerge;
    merge(b.binding.type, b.binding.raw, privates[pi].data(), b.binding.len);
    ++pi;
  }
  vm::VmReport vr = vmach.Report();
  std::lock_guard<std::mutex> lock(q.mu);  // merge_mu -> mu, nowhere reversed
  MergeVmReport(vr, &q.report);
  if (m.index == 0) {
    q.report.state_timeline = std::move(vr.state_timeline);
    q.report.profile = std::move(vr.profile);
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

  // Instantiate a program to inspect its shape.
  auto owned = std::make_shared<dsl::Program>();
  const dsl::Program* program = ctx.fixed_program_;
  if (ctx.make_program_ != nullptr) {
    AVM_ASSIGN_OR_RETURN(
        *owned, ctx.make_program_(static_cast<int64_t>(ctx.total_rows_)));
    AVM_RETURN_NOT_OK(dsl::TypeCheck(owned.get()));
    program = owned.get();
  }
  AVM_ASSIGN_OR_RETURN(MapFragment frag, DetectMapFragment(*program));

  const ExecContext::Bound* src = nullptr;
  const ExecContext::Bound* out = nullptr;
  for (const ExecContext::Bound& b : ctx.bound_) {
    if (b.name == frag.src) src = &b;
    if (b.name == frag.out) out = &b;
  }
  if (src == nullptr || out == nullptr || out->binding.raw == nullptr) {
    return Status::NotFound("map fragment inputs/outputs not offloadable");
  }
  const uint64_t rows =
      ctx.total_rows_ > 0 ? ctx.total_rows_ : src->binding.len;
  if (rows == 0 || rows > UINT32_MAX || out->binding.len < rows ||
      src->binding.len < rows) {
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
    gpu_device_ = std::make_unique<gpu::SimGpuDevice>(gpu::GpuDeviceParams{},
                                                      &DevicePool());
    gpu_backend_ = std::make_unique<gpu::GpuBackend>(gpu_device_.get());
    gpu_placer_ =
        std::make_unique<gpu::AdaptivePlacer>(gpu_device_->params());
  }
  q.gpu_profile = profile;
  gpu::PlacementDecision decision = gpu_placer_->Decide(profile);
  if (decision.device == gpu::Device::kCpu) {
    // The placer keeps the fragment on the CPU: the query runs the normal
    // CPU path (serial or morsel-parallel), and its measured wall time
    // calibrates the placer at finalization. Keep the instantiated program
    // so a serial CPU run does not lower + typecheck the query twice.
    q.calibrate_cpu = true;
    q.gpu_program = std::move(owned);
    return Status::OK();
  }

  q.gpu_program = std::move(owned);
  q.gpu_prim = std::move(prim);
  q.gpu_src = src->binding;
  q.gpu_out = out->binding;
  q.gpu_rows = rows;
  *offload = true;
  return Status::OK();
}

Status Session::RunGpuTask(QueryState& q, ExecReport* report) {
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

  report->device = "gpu-sim";
  report->workers = 1;
  report->morsels = 1;
  report->rows = rows;
  report->gpu_sim_seconds = sim_seconds;
  return Status::OK();
}

}  // namespace avm::engine
