// The adaptive virtual machine (Section III).
//
// Drives the Fig. 1 state machine over a DSL program: interpret with
// profiling, decide to optimize after a warmup, greedily partition the hot
// dependency graph into traces (§III-B), JIT-compile them specialized for
// the current situation (input compression schemes, §III-C), inject them
// into the interpreter, and keep watching: when a block's compression
// scheme changes the injected trace's applicability check fails, the VM
// falls back to interpretation and compiles a new variant for the new
// situation, reusing the trace cache when the situation recurs.
#pragma once

#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "interp/interpreter.h"
#include "ir/depgraph.h"
#include "jit/trace_cache.h"
#include "vm/state_machine.h"

namespace avm::vm {

/// Tuning knobs of one AdaptiveVm: the embedded interpreter's options,
/// the Fig. 1 state-machine cadence (warmup, recheck interval), and the
/// partitioning/compilation policy.
struct VmOptions {
  interp::InterpreterOptions interp;
  /// Loop iterations interpreted (with profiling) before the first Optimize.
  uint64_t optimize_after_iterations = 8;
  /// Re-examine the situation every this many iterations.
  uint64_t recheck_interval = 64;
  /// Compile at most this many traces per Optimize pass.
  size_t max_traces_per_pass = 4;
  /// Partitioning heuristics (§III-B).
  ir::PartitionConstraints constraints;
  /// Master switch: with JIT off the VM is a pure vectorized interpreter.
  bool enable_jit = true;
  /// Specialize reads for FOR-compressed blocks (compressed execution).
  bool specialize_compression = true;
  /// Only compile traces whose profiled cost share exceeds this fraction.
  double min_cost_share = 0.05;
  /// Which JIT tier(s) compiled traces use. kDefault resolves AVM_JIT_TIER
  /// ("tiered" | "fast" | "opt"); tiered compiles the cheap -O0 tier first
  /// and upgrades hot traces to the optimized tier asynchronously.
  jit::TierPolicy jit_tier_policy = jit::TierPolicy::kDefault;
  /// Injection invocations that make a fast-tier trace hot enough for the
  /// background optimized-tier upgrade (tiered policy only).
  /// 0 = AVM_JIT_UPGRADE_AFTER, default 32.
  uint64_t jit_upgrade_after = 0;
  /// Persistent compiled-artifact store consulted before any backend
  /// compile and populated after; nullptr = the AVM_TRACE_CACHE_DIR cache
  /// (DiskTraceCache::FromEnv), i.e. off unless that variable is set.
  std::shared_ptr<jit::DiskTraceCache> disk_cache;
  /// Master switch for the persistent store (false ignores both the
  /// disk_cache field and the environment).
  bool enable_disk_cache = true;
};

/// Counters and diagnostics of one adaptive-VM run.
struct VmReport {
  uint64_t iterations = 0;
  /// Compressed column blocks the interpreter's streaming scan cursors
  /// decoded (one super-chunk per decode); see ExecReport::chunks_streamed.
  uint64_t chunks_streamed = 0;
  uint64_t traces_compiled = 0;
  uint64_t traces_reused = 0;     ///< trace-cache hits on recompile checks
  uint64_t injection_runs = 0;
  uint64_t injection_fallbacks = 0;
  double compile_seconds = 0;
  /// First reason a candidate trace was declined (not compiled) this run;
  /// empty when every considered trace compiled. A shape decline is the
  /// JIT gate's first diagnostic (analysis::VerifyTrace), rule id included
  /// — the rule table is docs/VERIFIER.md (merge/gen skeletons, chunk-array
  /// gather bases, multi-filter traces, non-add/min/max scatter conflict
  /// functions, ...); host-compiler failures report their own status.
  std::string jit_declined;
  std::string state_timeline;
  std::string profile;

  /// Resolved tier policy this run compiled under ("tiered"/"fast"/"opt").
  std::string jit_tier;
  /// Per-tier split of traces_compiled, with backend wall time: compiles
  /// that produced fast (-O0) vs optimized (-O2) code. Background tier
  /// upgrades are counted separately below, not here.
  uint64_t fast_compiles = 0;
  uint64_t opt_compiles = 0;
  double fast_compile_seconds = 0;
  double opt_compile_seconds = 0;
  /// Persistent-cache traffic of this run: situations whose machine code
  /// was loaded from AVM_TRACE_CACHE_DIR instead of compiled (hits — these
  /// do NOT count into traces_compiled), situations probed without a
  /// loadable artifact (misses), and corrupt entries detected, deleted and
  /// recompiled along the way.
  uint64_t disk_cache_hits = 0;
  uint64_t disk_cache_misses = 0;
  uint64_t disk_cache_corrupt = 0;
  /// Hotness-triggered fast→optimized upgrades: claimed by this run's
  /// injections, and completed (published) by the time the report was
  /// taken — an upgrade still compiling in the background when the run
  /// ends is requested-but-not-completed.
  uint64_t tier_upgrades_requested = 0;
  uint64_t tier_upgrades = 0;
  /// Candidate traces the JIT gate (analysis::VerifyTrace) checked this
  /// run, accepted or declined.
  uint64_t verifier_checked = 0;
};

/// The adaptive virtual machine (file comment above): a vectorized
/// interpreter plus the Optimize/GenerateCode/InjectFunctions loop that
/// JIT-compiles hot traces specialized for the current situation
/// (compression schemes + selection-carrying inputs, docs/TRACE_ABI.md)
/// and falls back to interpretation when a situation stops matching.
class AdaptiveVm {
 public:
  /// `program` must be type-checked and outlive the VM. When `shared_cache`
  /// is non-null the VM compiles into / reuses that (thread-safe) cache
  /// instead of a private one — this is how morsel workers of a parallel run
  /// share each other's compiled traces.
  AdaptiveVm(const dsl::Program* program, VmOptions options = {},
             jit::TraceCache* shared_cache = nullptr);

  /// Access the embedded interpreter to bind data (before Run).
  interp::Interpreter& interpreter() { return *interp_; }

  /// Execute the program to completion under the adaptive policy.
  Status Run();

  VmReport Report() const;
  const StateMachine& state_machine() const { return sm_; }
  const jit::TraceCache& trace_cache() const { return *cache_; }

 private:
  Status OnIteration(interp::Interpreter& in, uint64_t iteration);
  Status OptimizePass(interp::Interpreter& in, uint64_t iteration);
  Status InstallTrace(interp::Interpreter& in, const ir::Trace& trace,
                      uint64_t iteration);
  /// Current compression situation of the data arrays a trace reads.
  std::map<std::string, Scheme> ObserveSchemes(interp::Interpreter& in,
                                               const ir::Trace& trace) const;
  /// Chunk-variable trace inputs currently carrying a selection vector —
  /// the selection part of the situation. Each morsel worker observes its
  /// own environment; since workers of one query run the same program
  /// shape, they observe the same pattern and share the compiled variant
  /// through the (shared) TraceCache.
  std::set<std::string> ObserveSelections(interp::Interpreter& in,
                                          const ir::Trace& trace) const;

  const dsl::Program* program_;
  VmOptions options_;
  std::unique_ptr<interp::Interpreter> interp_;
  ir::DepGraph graph_;
  bool graph_built_ = false;
  /// Static per-tuple node costs captured at graph build, the weight the
  /// deterministic (tuple-count-based) profile refresh applies.
  std::vector<double> static_cost_;
  StateMachine sm_;
  jit::TraceCache own_cache_;
  jit::TraceCache* cache_ = &own_cache_;  ///< points at own_cache_ or shared
  std::vector<ir::Trace> traces_;
  std::unordered_set<uint64_t> installed_;
  bool optimized_once_ = false;
  VmReport report_;
  /// Tiering state resolved at construction (policy/threshold/env).
  jit::TierPolicy tier_policy_ = jit::TierPolicy::kOptimizedOnly;
  uint64_t upgrade_after_ = 32;
  std::shared_ptr<jit::DiskTraceCache> disk_;
  /// Shared with the detached upgrade threads this VM's injections spawn
  /// (they may outlive the VM; Report() reads whatever completed by then).
  std::shared_ptr<jit::TierCounters> tier_counters_;
};

}  // namespace avm::vm
