#include "vm/adaptive_vm.h"

#include <algorithm>
#include <cmath>

#include "analysis/verify_trace.h"
#include "jit/jit_backend.h"
#include "util/logging.h"
#include "util/timer.h"

namespace avm::vm {

using interp::Interpreter;

std::shared_ptr<const PartitionMemo::Entry> PartitionMemo::Find(
    const dsl::Program* program, const std::vector<double>& costs,
    const std::set<uint32_t>& unfused,
    const SelectionsOf& selections_of) const {
  std::vector<std::shared_ptr<const Entry>> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& e : entries_) {
      if (e->program == program && e->costs == costs &&
          e->unfused_filters == unfused) {
        candidates.push_back(e);
      }
    }
  }
  // The selections are the caller's interpreter state: observed outside
  // the lock.
  for (auto& e : candidates) {
    if (std::ranges::all_of(e->judged, [&](const auto& region) {
          return selections_of(region.first) == region.second;
        })) {
      return e;
    }
  }
  return nullptr;
}

void PartitionMemo::Publish(std::shared_ptr<const Entry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(entry));
}

AdaptiveVm::AdaptiveVm(const dsl::Program* program, VmOptions options,
                       jit::TraceCache* shared_cache,
                       PartitionMemo* shared_memo)
    : program_(program), options_(std::move(options)) {
  if (shared_cache != nullptr) cache_ = shared_cache;
  if (shared_memo != nullptr) memo_ = shared_memo;
  interp_ = std::make_unique<Interpreter>(program_, options_.interp);
  interp_->iteration_hook = [this](Interpreter& in, uint64_t iteration) {
    return OnIteration(in, iteration);
  };
  disk_ = options_.disk_cache != nullptr ? options_.disk_cache
                                         : jit::DiskTraceCache::FromEnv();
  if (options_.enable_jit) report_.jit_tier = "opt";
}

Status AdaptiveVm::Run() {
  Status st = interp_->Run();
  report_.iterations = interp_->loop_iterations();
  report_.chunks_streamed = interp_->chunks_streamed();
  report_.state_timeline = sm_.Timeline();
  report_.profile = interp_->profiler().ToString();
  report_.injection_runs = retired_runs_;
  report_.injection_fallbacks = retired_fallbacks_;
  for (const auto& tr : interp_->injections()) {
    report_.injection_runs += tr.invocations;
    report_.injection_fallbacks += tr.fallbacks;
  }
  return st;
}

void VmReport::Merge(const VmReport& other) {
  iterations += other.iterations;
  chunks_streamed += other.chunks_streamed;
  partitions += other.partitions;
  traces_compiled += other.traces_compiled;
  traces_reused += other.traces_reused;
  injection_runs += other.injection_runs;
  injection_fallbacks += other.injection_fallbacks;
  compile_seconds += other.compile_seconds;
  if (jit_declined.empty()) jit_declined = other.jit_declined;
  if (jit_tier.empty()) jit_tier = other.jit_tier;
  opt_compile_seconds += other.opt_compile_seconds;
  disk_cache_hits += other.disk_cache_hits;
  disk_cache_misses += other.disk_cache_misses;
  disk_cache_corrupt += other.disk_cache_corrupt;
  verifier_checked += other.verifier_checked;
}

VmReport AdaptiveVm::Report() const { return report_; }

Status AdaptiveVm::OnIteration(Interpreter& in, uint64_t iteration) {
  if (!options_.enable_jit) return Status::OK();
  if (!jit::HostCompilerAvailable()) return Status::OK();
  if (!optimized_once_ && iteration >= options_.optimize_after_iterations) {
    return OptimizePass(in, iteration);
  }
  if (optimized_once_ && options_.recheck_interval > 0 &&
      iteration % options_.recheck_interval == 0) {
    // Situation drift check: when the compression scheme under a trace's
    // reads changed, compile (or fetch from cache) a variant for the new
    // situation. Injections for stale situations of the same region stay
    // installed; their applicability checks simply stop matching. A trace
    // of a new partition replaces installed ones it partly overlaps.
    return OptimizePass(in, iteration);
  }
  return Status::OK();
}

std::map<std::string, Scheme> AdaptiveVm::ObserveSchemes(
    Interpreter& in, const ir::Trace& trace) const {
  std::map<std::string, Scheme> schemes;
  if (!options_.specialize_compression) return schemes;
  for (uint32_t id : trace.node_ids) {
    const ir::DepNode& n = graph_.nodes()[id];
    if (n.kind != dsl::SkeletonKind::kRead) continue;
    const std::string& data = n.expr->args[1]->var;
    Scheme s = in.LastSchemeOf(data);
    // Only FOR has a specialized compressed-execution code path; other
    // schemes decode to plain values before entering the trace.
    if (s == Scheme::kFor) schemes[data] = s;
  }
  return schemes;
}

std::set<std::string> AdaptiveVm::ObserveSelections(
    Interpreter& in, const ir::Trace& trace) const {
  std::set<std::string> sel_inputs;
  for (const std::string& name : trace.ChunkVarInputs(*program_)) {
    Result<interp::Value> v = in.GetVar(name);
    if (v.ok() && v.value().is_array() && v.value().array->has_sel()) {
      sel_inputs.insert(name);
    }
  }
  return sel_inputs;
}

namespace {

/// Quantize a node's profiled cost share into a coarse power-of-two bucket
/// (1, 2, 4, ..., 1024 ≙ the whole loop). The greedy partitioner only needs
/// the cost *ordering*; bucketing keeps the magnitudes tame and makes the
/// min-cost-share gate insensitive to tiny share differences.
double BucketCostShare(double units, double total_units) {
  const double share = units / total_units;
  const double q = std::clamp(share * 1024.0, 1.0, 1024.0);
  return std::exp2(std::round(std::log2(q)));
}

/// A filter fused into a trace is a branch per row (`if (!(p)) continue;`).
/// Strictly between these observed selectivities it mispredicts on more
/// than ~15% of the rows of unordered data, and the interpreter's
/// selection-vector kernel followed by a compiled selection loop wins: in
/// bench_fusion's BM_FilterFusion_* sweep the split ran 1.3-2x faster at
/// 0.5 and 0.7 and the fused loop 1.1-2.3x faster at 0.9 and 0.98, while
/// 0.02, 0.1, 0.2 and 0.8 went either way between runs.
constexpr double kFuseFilterAtMost = 0.15;
constexpr double kFuseFilterAtLeast = 0.85;

}  // namespace

Status AdaptiveVm::OptimizePass(Interpreter& in, uint64_t iteration) {
  sm_.Advance(VmState::kOptimize, iteration);
  if (!graph_built_) {
    AVM_ASSIGN_OR_RETURN(graph_, ir::DepGraph::Build(*program_));
    graph_built_ = true;
    static_cost_.reserve(graph_.size());
    for (const auto& node : graph_.nodes()) {
      static_cost_.push_back(node.cost);  // per-tuple cost from BaseCost
    }
  }
  // Refresh node costs from the profile (hot-path identification). The
  // unit is DETERMINISTIC work: the node's static per-tuple cost weighted
  // by its profiled tuple count. Tuple counts depend only on the data and
  // the iteration the pass runs at — unlike cycle counts, which wobble
  // with machine load by more than the log2 bucket width and would reseed
  // the partition (and miss the cross-run TraceCache) on a loaded host.
  // Selectivity still steers the partition: post-filter operators see
  // fewer tuples and weigh less.
  double total_units = 0;
  std::vector<double> units(graph_.size(), 0);
  for (const auto& node : graph_.nodes()) {
    const interp::OpStats* s = in.profiler().Find(node.expr->id);
    if (s != nullptr && s->calls > 0) {
      units[node.id] = static_cost_[node.id] *
                       static_cast<double>(std::max<uint64_t>(s->tuples, 1));
    }
    total_units += units[node.id];
  }
  double total_cost = 0;
  std::vector<double> costs;
  costs.reserve(graph_.size());
  for (auto& node : graph_.nodes()) {
    if (units[node.id] > 0 && total_units > 0) {
      node.cost = BucketCostShare(units[node.id], total_units);
    }
    total_cost += node.cost;
    costs.push_back(node.cost);
  }
  // Filters whose observed selectivity would make the fused branch
  // unpredictable stay out of traces.
  std::set<uint32_t> unfused;
  for (const auto& node : graph_.nodes()) {
    if (node.kind != dsl::SkeletonKind::kFilter) continue;
    const interp::OpStats* s = in.profiler().Find(node.expr->id);
    if (s == nullptr || s->tuples == 0) continue;
    const double selectivity = s->Selectivity();
    if (selectivity > kFuseFilterAtMost && selectivity < kFuseFilterAtLeast) {
      unfused.insert(node.id);
    }
  }
  // Partition only when no partition in the memo was computed from what
  // this pass observes: the bucketed costs, the unfused filters, and the
  // selections every region the gate judged carries now. GreedyPartition
  // is deterministic in those, so it would grow the same traces, whose
  // installed or declined situations are skipped below anyway.
  auto selections_of = [&](const ir::Trace& region) {
    return ObserveSelections(in, region);
  };
  std::shared_ptr<const PartitionMemo::Entry> partition =
      memo_->Find(program_, costs, unfused, selections_of);
  if (partition == nullptr) {
    // A region that fuses a filter stays one trace only if the filter's
    // branch is predictable and the gate accepts the region under the
    // selections its inputs carry now; otherwise the partitioner falls
    // back to the filter-excluding region.
    auto entry = std::make_shared<PartitionMemo::Entry>();
    entry->traces = ir::GreedyPartition(
        graph_, options_.constraints, [&](const ir::Trace& region) {
          for (uint32_t id : region.node_ids) {
            if (unfused.contains(id)) return false;
          }
          analysis::TraceContext ctx;
          ctx.sel_inputs = selections_of(region);
          entry->judged.emplace_back(region, ctx.sel_inputs);
          return analysis::VerifyTrace(*program_, graph_, region, ctx).clean();
        });
    ++report_.partitions;
    entry->program = program_;
    entry->costs = std::move(costs);
    entry->unfused_filters = std::move(unfused);
    memo_->Publish(entry);
    partition = std::move(entry);
  }

  bool any_compiled = false;
  size_t installed_this_pass = 0;
  for (const auto& trace : partition->traces) {
    if (installed_this_pass >= options_.max_traces_per_pass) break;
    if (total_cost > 0 &&
        trace.total_cost / total_cost < options_.min_cost_share) {
      continue;
    }
    Status st = InstallTrace(in, trace, iteration);
    if (st.ok()) {
      ++installed_this_pass;
      any_compiled = true;
    } else if (!st.IsNotFound()) {
      // Surface the first decline through the report: consumers asking for
      // kAdaptiveJit should see WHY a hot fragment stayed interpreted
      // instead of inferring it from a zero compile count.
      if (report_.jit_declined.empty()) {
        report_.jit_declined = st.ToString();
      }
      AVM_LOG(kDebug) << "trace skipped: " << st.ToString();
    }
  }
  optimized_once_ = true;
  if (any_compiled) {
    if (sm_.state() == VmState::kOptimize) {
      sm_.Advance(VmState::kGenerateCode, iteration);
    }
    sm_.Advance(VmState::kInjectFunctions, iteration);
    sm_.Advance(VmState::kInterpret, iteration);
  } else {
    sm_.Advance(VmState::kInterpret, iteration);
  }
  return Status::OK();
}

Status AdaptiveVm::InstallTrace(Interpreter& in, const ir::Trace& trace,
                                uint64_t iteration) {
  jit::Situation situation;
  situation.trace_fingerprint = jit::TraceFingerprint(graph_, trace);
  situation.schemes = ObserveSchemes(in, trace);
  // The selection pattern of the trace's chunk inputs is part of the
  // situation, like compression schemes: post-filter iterations compile a
  // selection-carrying variant, pre-filter shapes a positional one, and
  // both can coexist for the same fingerprint.
  std::set<std::string> sel_inputs = ObserveSelections(in, trace);
  situation.sel_inputs.assign(sel_inputs.begin(), sel_inputs.end());

  const uint64_t key = situation.Key();
  if (installed_.contains(key) || declined_.contains(key)) {
    return Status::NotFound("already tried");  // benign skip
  }

  // The JIT gate (docs/VERIFIER.md): every compilability rule lives in
  // analysis::VerifyTrace. A reject is the decline, reported by its first
  // rule id; a clean verification hands codegen the facts it emits from.
  analysis::TraceContext vctx;
  vctx.sel_inputs = sel_inputs;
  const analysis::TraceVerification verified =
      analysis::VerifyTrace(*program_, graph_, trace, vctx);
  ++report_.verifier_checked;
  if (!verified.clean()) {
    declined_.insert(key);
    return verified.AsStatus();
  }

  bool compiled_fresh = false;
  jit::CompileOutcome outcome;
  Result<std::shared_ptr<const jit::CompiledTrace>> got = cache_->GetOrCompile(
      situation,
      // The callback loads from the persistent disk cache when one is
      // configured, and only invokes a backend on a true cold miss;
      // `outcome` reports which happened (timed inside the callback so
      // waiting on the cache's compile lock is not charged).
      [&]() -> Result<jit::CompiledTrace> {
        jit::CodegenOptions cg;
        cg.scheme_specialization = situation.schemes;
        AVM_ASSIGN_OR_RETURN(
            outcome,
            jit::CompileTrace(*program_, graph_, trace, verified, cg, disk_,
                              key));
        return std::move(outcome.trace);
      },
      &compiled_fresh);
  if (!got.ok()) {
    declined_.insert(key);
    return got.status();
  }
  std::shared_ptr<const jit::CompiledTrace> compiled =
      std::move(got).ValueOrDie();
  if (compiled_fresh) {
    report_.disk_cache_corrupt += outcome.disk_corrupt;
    if (outcome.from_disk) {
      // Machine code came from AVM_TRACE_CACHE_DIR: the warm-restart path.
      // Deliberately NOT a traces_compiled — no backend ran.
      ++report_.disk_cache_hits;
    } else {
      if (outcome.disk_probed) ++report_.disk_cache_misses;
      report_.compile_seconds += outcome.compile_seconds;
      report_.opt_compile_seconds += outcome.compile_seconds;
      ++report_.traces_compiled;
    }
  } else {
    ++report_.traces_reused;
  }

  interp::InjectedTrace inj =
      jit::MakeInjection(std::move(compiled), options_.interp.chunk_size);
  AVM_LOG(kDebug) << "inject " << inj.name << " at iter " << iteration << " "
                  << situation.ToString();
  std::unordered_set<uint32_t> covered = inj.covered_stmt_ids;
  for (const interp::InjectedTrace& old : in.AddInjection(std::move(inj))) {
    // A trace of an earlier partition that shares statements with this
    // one: its counts stay in the report, and its situations may install
    // again if a later partition grows its region again.
    retired_runs_ += old.invocations;
    retired_fallbacks_ += old.fallbacks;
    std::erase_if(installed_, [&](const auto& entry) {
      return entry.second == old.covered_stmt_ids;
    });
  }
  installed_.emplace(key, std::move(covered));
  return Status::OK();
}

}  // namespace avm::vm
