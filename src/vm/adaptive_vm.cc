#include "vm/adaptive_vm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "analysis/verify_trace.h"
#include "jit/source_jit.h"
#include "util/logging.h"
#include "util/timer.h"

namespace avm::vm {

using interp::Interpreter;

namespace {

uint64_t UpgradeAfterFromEnv() {
  const char* env = std::getenv("AVM_JIT_UPGRADE_AFTER");
  if (env != nullptr && *env != '\0') {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<uint64_t>(v);
  }
  return 32;
}

}  // namespace

AdaptiveVm::AdaptiveVm(const dsl::Program* program, VmOptions options,
                       jit::TraceCache* shared_cache)
    : program_(program), options_(std::move(options)) {
  if (shared_cache != nullptr) cache_ = shared_cache;
  interp_ = std::make_unique<Interpreter>(program_, options_.interp);
  interp_->iteration_hook = [this](Interpreter& in, uint64_t iteration) {
    return OnIteration(in, iteration);
  };
  tier_policy_ = jit::ResolveTierPolicy(options_.jit_tier_policy);
  upgrade_after_ = options_.jit_upgrade_after != 0
                       ? options_.jit_upgrade_after
                       : UpgradeAfterFromEnv();
  if (options_.enable_disk_cache) {
    disk_ = options_.disk_cache != nullptr ? options_.disk_cache
                                           : jit::DiskTraceCache::FromEnv();
  }
  tier_counters_ = std::make_shared<jit::TierCounters>();
  if (options_.enable_jit) {
    report_.jit_tier = jit::TierPolicyName(tier_policy_);
  }
}

Status AdaptiveVm::Run() {
  Status st = interp_->Run();
  report_.iterations = interp_->loop_iterations();
  report_.chunks_streamed = interp_->chunks_streamed();
  report_.state_timeline = sm_.Timeline();
  report_.profile = interp_->profiler().ToString();
  report_.injection_runs = 0;
  report_.injection_fallbacks = 0;
  for (const auto& tr : interp_->injections()) {
    report_.injection_runs += tr.invocations;
    report_.injection_fallbacks += tr.fallbacks;
  }
  return st;
}

VmReport AdaptiveVm::Report() const {
  VmReport r = report_;
  // Upgrade threads run detached; snapshot whatever they finished by now.
  r.tier_upgrades_requested =
      tier_counters_->requested.load(std::memory_order_relaxed);
  r.tier_upgrades = tier_counters_->completed.load(std::memory_order_relaxed);
  return r;
}

Status AdaptiveVm::OnIteration(Interpreter& in, uint64_t iteration) {
  if (!options_.enable_jit) return Status::OK();
  if (!jit::SourceJit::Available()) return Status::OK();
  if (!optimized_once_ && iteration >= options_.optimize_after_iterations) {
    return OptimizePass(in, iteration);
  }
  if (optimized_once_ && options_.recheck_interval > 0 &&
      iteration % options_.recheck_interval == 0) {
    // Situation drift check: when the compression scheme under a trace's
    // reads changed, compile (or fetch from cache) a variant for the new
    // situation. Injections for stale situations stay installed; their
    // applicability checks simply stop matching.
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
  for (auto& node : graph_.nodes()) {
    if (units[node.id] > 0 && total_units > 0) {
      node.cost = BucketCostShare(units[node.id], total_units);
    }
    total_cost += node.cost;
  }
  traces_ = ir::GreedyPartition(graph_, options_.constraints);

  bool any_compiled = false;
  size_t installed_this_pass = 0;
  for (const auto& trace : traces_) {
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
  if (installed_.contains(key)) {
    return Status::NotFound("already installed");  // benign skip
  }

  // The JIT gate (docs/VERIFIER.md): every compilability rule lives in
  // analysis::VerifyTrace. A reject is the decline, reported by its first
  // rule id; a clean verification hands codegen the facts it emits from.
  analysis::TraceContext vctx;
  vctx.sel_inputs = sel_inputs;
  const analysis::TraceVerification verified =
      analysis::VerifyTrace(*program_, graph_, trace, vctx);
  ++report_.verifier_checked;
  AVM_RETURN_NOT_OK(verified.AsStatus());

  bool compiled_fresh = false;
  jit::TieredCompileOutcome outcome;
  Result<std::shared_ptr<jit::TraceEntry>> got = cache_->GetOrCompile(
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
            jit::CompileTraceTiered(*program_, graph_, trace, verified, cg,
                                    tier_policy_, disk_, key));
        return std::move(outcome.trace);
      },
      &compiled_fresh);
  if (!got.ok()) return got.status();
  std::shared_ptr<jit::TraceEntry> entry = std::move(got).ValueOrDie();
  if (compiled_fresh) {
    report_.disk_cache_corrupt += outcome.disk_corrupt;
    if (outcome.from_disk) {
      // Machine code came from AVM_TRACE_CACHE_DIR: the warm-restart path.
      // Deliberately NOT a traces_compiled — no backend ran.
      ++report_.disk_cache_hits;
    } else {
      if (outcome.disk_probed) ++report_.disk_cache_misses;
      report_.compile_seconds += outcome.compile_seconds;
      ++report_.traces_compiled;
      if (entry->tier() == jit::JitTier::kFast) {
        ++report_.fast_compiles;
        report_.fast_compile_seconds += outcome.compile_seconds;
      } else {
        ++report_.opt_compiles;
        report_.opt_compile_seconds += outcome.compile_seconds;
      }
    }
  } else {
    ++report_.traces_reused;
  }

  jit::TraceTierOptions tier;
  tier.upgrade_enabled = tier_policy_ == jit::TierPolicy::kTiered;
  tier.upgrade_after = upgrade_after_;
  tier.disk = disk_;
  tier.counters = tier_counters_;
  interp::InjectedTrace inj = jit::MakeInjection(
      std::move(entry), options_.interp.chunk_size, std::move(tier));
  AVM_LOG(kDebug) << "inject " << inj.name << " at iter " << iteration << " "
                  << situation.ToString();
  in.AddInjection(std::move(inj));
  installed_.insert(key);
  return Status::OK();
}

}  // namespace avm::vm
