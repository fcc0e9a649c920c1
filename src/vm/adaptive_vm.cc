#include "vm/adaptive_vm.h"

#include <algorithm>
#include <cmath>

#include "analysis/verify_trace.h"
#include "jit/jit_backend.h"
#include "util/logging.h"

namespace avm::vm {

using interp::Interpreter;

namespace {

// The slot of `key` in `slots`, created on first use. Called with the
// plan's mutex held; a slot's own mutex is never taken while it is held.
template <typename K, typename V>
std::shared_ptr<V> SlotOf(std::map<K, std::shared_ptr<V>>& slots,
                          const K& key) {
  std::shared_ptr<V>& slot = slots[key];
  if (slot == nullptr) slot = std::make_shared<V>();
  return slot;
}

}  // namespace

bool SameDecisions(const VmOptions& a, const VmOptions& b) {
  return a.interp.chunk_size == b.interp.chunk_size &&
         a.constraints == b.constraints &&
         a.max_traces_per_pass == b.max_traces_per_pass &&
         a.min_cost_share == b.min_cost_share &&
         a.specialize_compression == b.specialize_compression;
}

Result<const ir::DepGraph*> TracePlan::Graph(const dsl::Program& program) {
  std::call_once(graph_once_, [&] {
    Result<ir::DepGraph> built = ir::DepGraph::Build(program);
    if (built.ok()) {
      graph_ = std::move(built).ValueOrDie();
    } else {
      graph_status_ = built.status();
    }
  });
  AVM_RETURN_NOT_OK(graph_status_);
  return &graph_;
}

std::vector<ir::Trace> TracePlan::Partition(
    const PartitionKey& key,
    const std::function<std::vector<ir::Trace>()>& partition,
    bool* partitioned) {
  std::shared_ptr<Slot<std::vector<ir::Trace>>> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot = SlotOf(partitions_, key);
  }
  return slot->Get(partition, partitioned);
}

TracePlan::Decision TracePlan::Decide(const Situation& situation,
                                      const std::function<Decision()>& decide,
                                      bool* decided) {
  std::shared_ptr<Slot<Decision>> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot = SlotOf(decisions_, situation);
  }
  return slot->Get(decide, decided);
}

void TracePlan::Took(const PartitionKey& key, std::vector<ir::Trace> traces) {
  std::lock_guard<std::mutex> lock(mu_);
  if (took_.has_value() && took_->first == key) return;
  took_.emplace(key, std::move(traces));
}

std::optional<TracePlan::Installs> TracePlan::NextSubmission() {
  std::lock_guard<std::mutex> lock(mu_);
  // No VM runs, so no slot computes: taking a slot's mutex under mu_
  // cannot wait on one.
  for (auto it = decisions_.begin(); it != decisions_.end();) {
    Slot<Decision>& slot = *it->second;
    bool failed = false;
    {
      std::lock_guard<std::mutex> slot_lock(slot.mu);
      Decision& d = slot.value;
      d.requested = false;
      if (d.pending != nullptr && d.pending->done()) {
        // Landed code: every later install shares one trace.
        Result<void*> fn = d.pending->Wait();
        d.pending = nullptr;
        if (fn.ok()) {
          auto landed = std::make_shared<jit::CompiledTrace>(*d.trace);
          landed->fn = reinterpret_cast<jit::TraceFn>(fn.value());
          d.trace = std::move(landed);
        } else {
          d.status = fn.status();
        }
      }
      failed = slot.done && !d.declined && !d.status.ok();
    }
    it = failed ? decisions_.erase(it) : std::next(it);
  }
  if (!took_.has_value()) return std::nullopt;
  Installs installs;
  installs.key = took_->first;
  for (const ir::Trace& trace : took_->second) {
    std::vector<std::pair<Situation, Decision>> variants;
    bool decided = false;
    for (const auto& [situation, slot] : decisions_) {
      if (situation.node_ids != trace.node_ids) continue;
      std::lock_guard<std::mutex> slot_lock(slot->mu);
      if (!slot->done) continue;
      decided = true;
      if (slot->value.status.ok()) {
        variants.emplace_back(situation, slot->value);
      } else if (installs.declined.ok()) {
        installs.declined = slot->value.status;
      }
    }
    installs.undecided |= !decided;
    // Specialized variants first: the interpreter runs the first variant
    // at an anchor that accepts a chunk, and a generic one would accept
    // the chunks a compressed-execution variant runs.
    std::stable_sort(variants.begin(), variants.end(),
                     [](const auto& a, const auto& b) {
                       return a.first.schemes.size() > b.first.schemes.size();
                     });
    for (auto& v : variants) installs.decisions.push_back(std::move(v));
  }
  return installs;
}

AdaptiveVm::AdaptiveVm(const dsl::Program* program, VmOptions options,
                       TracePlan* plan, jit::CompilerThread* compiler)
    : program_(program), options_(std::move(options)), compiler_(compiler) {
  if (plan != nullptr) plan_ = plan;
  interp_ = std::make_unique<Interpreter>(program_, options_.interp);
  interp_->iteration_hook = [this](Interpreter& in, uint64_t iteration) {
    return OnIteration(in, iteration);
  };
  disk_ = options_.disk_cache != nullptr ? options_.disk_cache
                                         : jit::DiskTraceCache::FromEnv();
  if (options_.enable_jit) report_.jit_tier = "opt";
}

void AdaptiveVm::InstallFromPlan(const TracePlan::Installs& installs) {
  if (!options_.enable_jit) return;
  from_plan_ = &installs;
  if (!installs.declined.ok()) RecordDecline(installs.declined);
  if (installs.decisions.empty()) return;
  // The plan's decisions take the place of the first optimize pass, at
  // chunk 0.
  sm_.Advance(VmState::kOptimize, 0);
  injected_ = false;
  for (const auto& [situation, decision] : installs.decisions) {
    Status st = Take(*interp_, situation, decision, /*reused=*/true, 0);
    if (!st.ok()) RecordDecline(st);
  }
  if (!pending_.empty()) {
    sm_.Advance(VmState::kGenerateCode, 0);
    return;
  }
  FinishPass(0);
}

Status AdaptiveVm::Run() {
  Status st = interp_->Run();
  report_.iterations = interp_->loop_iterations();
  report_.chunks_streamed = interp_->chunks_streamed();
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
  if (!pending_.empty()) {
    // GenerateCode: interpret until the code lands, and install each trace
    // at the first chunk boundary after its code did.
    PollPending(in, iteration);
    return Status::OK();
  }
  if (!jit::HostCompilerAvailable()) return Status::OK();
  if (!optimized_once_) {
    // A VM that installed from its plan has nothing to profile for: its
    // first pass runs once a chunk fell back, or after the warmup when the
    // plan left a trace undecided.
    const bool warm = iteration >= options_.optimize_after_iterations;
    const bool due = from_plan_ == nullptr
                         ? warm
                         : FellBack(in) || (from_plan_->undecided && warm);
    return due ? OptimizePass(in, iteration) : Status::OK();
  }
  if (options_.recheck_interval > 0 &&
      iteration % options_.recheck_interval == 0) {
    // Situation drift check: when the compression scheme under a trace's
    // reads changed, compile (or fetch from cache) a variant for the new
    // situation. Injections for stale situations of the same region stay
    // installed and decline the chunks they do not match. A trace of a new
    // partition replaces installed ones it partly overlaps.
    return OptimizePass(in, iteration);
  }
  return Status::OK();
}

bool AdaptiveVm::Interpreted(Interpreter& in, uint32_t id) const {
  const interp::OpStats* s = in.profiler().Find(graph_->nodes()[id].expr->id);
  return s != nullptr && s->calls > 0;
}

bool AdaptiveVm::FellBack(Interpreter& in) const {
  uint64_t fallbacks = retired_fallbacks_;
  for (const auto& tr : in.injections()) fallbacks += tr.fallbacks;
  return fallbacks > 0;
}

std::map<std::string, Scheme> AdaptiveVm::ObserveSchemes(
    Interpreter& in, const ir::Trace& trace) const {
  std::map<std::string, Scheme> schemes;
  if (!options_.specialize_compression) return schemes;
  for (uint32_t id : trace.node_ids) {
    const ir::DepNode& n = graph_->nodes()[id];
    if (n.kind != dsl::SkeletonKind::kRead) continue;
    const std::string& data = n.expr->args[1]->var;
    Scheme s = in.LastSchemeOf(data);
    // Only FOR has a specialized compressed-execution code path; other
    // schemes decode to plain values before entering the trace.
    if (s == Scheme::kFor) schemes[data] = s;
  }
  return schemes;
}

std::set<std::string> AdaptiveVm::SelectionsOf(
    const ir::Trace& trace, const std::set<std::string>& selected) const {
  std::set<std::string> sel_inputs;
  for (const std::string& name : trace.ChunkVarInputs(*program_)) {
    if (selected.contains(name)) sel_inputs.insert(name);
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

TracePlan::PartitionKey AdaptiveVm::ObserveKey(Interpreter& in) const {
  const std::vector<ir::DepNode>& nodes = graph_->nodes();
  TracePlan::PartitionKey key;
  if (from_plan_ != nullptr) {
    // The statements this VM's traces cover never fed its profile, so it
    // cannot price them: the plan's costs stand.
    key.costs = from_plan_->key.costs;
  } else {
    // Node costs from the profile (hot-path identification). The unit is
    // DETERMINISTIC work: the node's static per-tuple cost weighted by its
    // profiled tuple count. Tuple counts depend only on the data and the
    // iteration the pass runs at — unlike cycle counts, which wobble with
    // machine load by more than the log2 bucket width and would reseed
    // the partition (and so miss the code cache) on a loaded host.
    // Selectivity still steers the partition: post-filter operators see
    // fewer tuples and weigh less.
    double total_units = 0;
    std::vector<double> units(nodes.size(), 0);
    for (const auto& node : nodes) {
      const interp::OpStats* s = in.profiler().Find(node.expr->id);
      if (s != nullptr && s->calls > 0) {
        units[node.id] =
            node.cost * static_cast<double>(std::max<uint64_t>(s->tuples, 1));
      }
      total_units += units[node.id];
    }
    key.costs.reserve(nodes.size());
    for (const auto& node : nodes) {
      key.costs.push_back(units[node.id] > 0 && total_units > 0
                              ? BucketCostShare(units[node.id], total_units)
                              : node.cost);
    }
  }
  for (const auto& node : nodes) {
    // Filters whose observed selectivity would make the fused branch
    // unpredictable stay out of traces.
    if (node.kind == dsl::SkeletonKind::kFilter) {
      const interp::OpStats* s = in.profiler().Find(node.expr->id);
      if (s != nullptr && s->tuples > 0) {
        const double selectivity = s->Selectivity();
        if (selectivity > kFuseFilterAtMost &&
            selectivity < kFuseFilterAtLeast) {
          key.unfused_filters.insert(node.id);
        }
      } else if (from_plan_ != nullptr &&
                 from_plan_->key.unfused_filters.contains(node.id)) {
        key.unfused_filters.insert(node.id);
      }
    }
    // The node outputs that carry a selection now. Each morsel worker
    // observes its own environment; since workers of one query run the
    // same program, they observe the same pattern and share their
    // partitions and decisions through the plan.
    const std::string name = graph_->OutputNameOf(node.id);
    if (from_plan_ != nullptr && !Interpreted(in, node.id)) {
      if (from_plan_->key.selected.contains(name)) key.selected.insert(name);
      continue;
    }
    Result<interp::Value> v = in.GetVar(name);
    if (v.ok() && v.value().is_array() && v.value().array->has_sel()) {
      key.selected.insert(name);
    }
  }
  return key;
}

Status AdaptiveVm::OptimizePass(Interpreter& in, uint64_t iteration) {
  sm_.Advance(VmState::kOptimize, iteration);
  injected_ = false;
  if (graph_ == nullptr) {
    AVM_ASSIGN_OR_RETURN(graph_, plan_->Graph(*program_));
  }
  // The partition of what this pass observes; the plan partitions once
  // per key.
  const TracePlan::PartitionKey key = ObserveKey(in);
  double total_cost = 0;
  for (double cost : key.costs) total_cost += cost;
  bool partitioned = false;
  const std::vector<ir::Trace> traces = plan_->Partition(
      key,
      [&] {
        // A region that fuses a filter stays one trace only if the
        // filter's branch is predictable and the gate accepts the region
        // under the selections its inputs carry now; otherwise the
        // partitioner falls back to the filter-excluding region.
        return ir::GreedyPartition(
            *graph_, options_.constraints,
            [&](const ir::Trace& region) {
              for (uint32_t id : region.node_ids) {
                if (key.unfused_filters.contains(id)) return false;
              }
              analysis::TraceContext ctx;
              ctx.sel_inputs = SelectionsOf(region, key.selected);
              return analysis::VerifyTrace(*program_, *graph_, region, ctx)
                  .clean();
            },
            key.costs);
      },
      &partitioned);
  if (partitioned) ++report_.partitions;

  // A trace installed or pending counts toward max_traces_per_pass.
  size_t taken_this_pass = 0;
  std::vector<ir::Trace> took;
  for (const auto& trace : traces) {
    if (taken_this_pass >= options_.max_traces_per_pass) break;
    if (total_cost > 0 &&
        trace.total_cost / total_cost < options_.min_cost_share) {
      continue;
    }
    took.push_back(trace);
    // A trace that ran compiled on every chunk of a VM that installed from
    // its plan has no observed situation, and nothing left to decide.
    if (from_plan_ != nullptr &&
        !std::ranges::any_of(trace.node_ids, [&](uint32_t id) {
          return Interpreted(in, id);
        })) {
      continue;
    }
    Status st = InstallTrace(in, trace, key.selected, iteration);
    if (st.ok()) {
      ++taken_this_pass;
    } else if (!st.IsNotFound()) {
      RecordDecline(st);
    }
  }
  plan_->Took(key, std::move(took));
  optimized_once_ = true;
  if (!pending_.empty()) {
    // Fig. 1's GenerateCode, until the last pending trace lands.
    sm_.Advance(VmState::kGenerateCode, iteration);
    return Status::OK();
  }
  FinishPass(iteration);
  return Status::OK();
}

void AdaptiveVm::PollPending(Interpreter& in, uint64_t iteration) {
  for (size_t i = 0; i < pending_.size();) {
    if (!pending_[i].decision.pending->done()) {
      ++i;
      continue;
    }
    PendingTrace landed = std::move(pending_[i]);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    Status st =
        Inject(in, std::move(landed.situation), landed.decision, iteration);
    if (!st.ok()) RecordDecline(st);
  }
  if (pending_.empty()) FinishPass(iteration);
}

void AdaptiveVm::FinishPass(uint64_t iteration) {
  if (!injected_) {
    sm_.Advance(VmState::kInterpret, iteration);
    return;
  }
  if (sm_.state() == VmState::kOptimize) {
    sm_.Advance(VmState::kGenerateCode, iteration);
  }
  sm_.Advance(VmState::kInjectFunctions, iteration);
  sm_.Advance(VmState::kInterpret, iteration);
}

void AdaptiveVm::RecordDecline(const Status& st) {
  // Surface the first decline through the report: consumers asking for
  // kAdaptiveJit should see WHY a hot fragment stayed interpreted instead
  // of inferring it from a zero compile count.
  if (report_.jit_declined.empty()) report_.jit_declined = st.ToString();
  AVM_LOG(kDebug) << "trace skipped: " << st.ToString();
}

Status AdaptiveVm::InstallTrace(Interpreter& in, const ir::Trace& trace,
                                const std::set<std::string>& selected,
                                uint64_t iteration) {
  // The selection pattern of the trace's chunk inputs is part of the
  // situation, like compression schemes: post-filter iterations compile a
  // selection-carrying variant, pre-filter shapes a positional one, and
  // both can coexist for one trace.
  TracePlan::Situation situation{trace.node_ids, ObserveSchemes(in, trace),
                                 SelectionsOf(trace, selected)};
  if (installed_.contains(situation)) {
    return Status::NotFound("already installed");  // benign skip
  }
  bool decided = false;
  TracePlan::Decision decision = plan_->Decide(
      situation, [&] { return Decide(trace, situation); }, &decided);
  return Take(in, std::move(situation), decision, !decided, iteration);
}

Status AdaptiveVm::Take(Interpreter& in, TracePlan::Situation situation,
                        const TracePlan::Decision& decision, bool reused,
                        uint64_t iteration) {
  AVM_RETURN_NOT_OK(decision.status);
  const bool pending =
      decision.pending != nullptr && !decision.pending->done();
  if (decision.pending != nullptr && !pending) {
    // A compile that failed since the decision is its decline.
    AVM_RETURN_NOT_OK(decision.pending->Wait().status());
  }
  if (reused) ++report_.traces_reused;
  if (pending) {
    pending_.push_back({std::move(situation), decision});
    return Status::OK();
  }
  return Inject(in, std::move(situation), decision, iteration);
}

Status AdaptiveVm::Inject(Interpreter& in, TracePlan::Situation situation,
                          const TracePlan::Decision& decision,
                          uint64_t iteration) {
  std::shared_ptr<const jit::CompiledTrace> compiled = decision.trace;
  if (decision.pending != nullptr) {
    // Machine code that landed after the decision was made.
    if (decision.requested) {
      const double seconds = decision.pending->TakeCompileSeconds();
      report_.compile_seconds += seconds;
      report_.opt_compile_seconds += seconds;
    }
    AVM_ASSIGN_OR_RETURN(void* fn, decision.pending->Wait());
    auto landed = std::make_shared<jit::CompiledTrace>(*decision.trace);
    landed->fn = reinterpret_cast<jit::TraceFn>(fn);
    compiled = std::move(landed);
  }
  interp::InjectedTrace inj =
      jit::MakeInjection(std::move(compiled), options_.interp.chunk_size);
  AVM_LOG(kDebug) << "inject " << inj.name << " at iter " << iteration;
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
  installed_.emplace(std::move(situation), std::move(covered));
  injected_ = true;
  return Status::OK();
}

TracePlan::Decision AdaptiveVm::Decide(const ir::Trace& trace,
                                       const TracePlan::Situation& situation) {
  // The JIT gate (docs/VERIFIER.md): every compilability rule lives in
  // analysis::VerifyTrace. A reject is the decline, reported by its first
  // rule id; a clean verification hands codegen the facts it emits from.
  analysis::TraceContext vctx;
  vctx.sel_inputs = situation.sel_inputs;
  const analysis::TraceVerification verified =
      analysis::VerifyTrace(*program_, *graph_, trace, vctx);
  ++report_.verifier_checked;
  TracePlan::Decision decision;
  if (!verified.clean()) {
    decision.status = verified.AsStatus();
    decision.declined = true;
    return decision;
  }

  jit::CodegenOptions cg;
  cg.scheme_specialization = situation.schemes;
  Result<jit::CompileOutcome> outcome = jit::CompileTrace(
      *program_, *graph_, trace, verified, cg, disk_, compiler_);
  if (!outcome.ok()) {
    decision.status = outcome.status();
    return decision;
  }
  const jit::CodeOrigin origin = outcome.value().origin;
  report_.disk_cache_corrupt += origin.disk_corrupt;
  if (origin.disk_missed) ++report_.disk_cache_misses;
  switch (origin.from) {
    case jit::CodeOrigin::From::kCache:
      ++report_.traces_reused;
      break;
    case jit::CodeOrigin::From::kDisk:
      // The warm-restart path: machine code from AVM_TRACE_CACHE_DIR.
      // Deliberately NOT a traces_compiled — no compiler ran.
      ++report_.disk_cache_hits;
      break;
    case jit::CodeOrigin::From::kCompiler:
      // Counted at the request: a queued compile's time counts when a VM
      // of this query sees its code land (Inject).
      report_.compile_seconds += origin.compile_seconds;
      report_.opt_compile_seconds += origin.compile_seconds;
      ++report_.traces_compiled;
      break;
  }
  jit::CompileOutcome out = std::move(outcome).ValueOrDie();
  decision.trace =
      std::make_shared<const jit::CompiledTrace>(std::move(out.trace));
  decision.pending = std::move(out.pending);
  decision.requested = origin.from == jit::CodeOrigin::From::kCompiler;
  return decision;
}

}  // namespace avm::vm
