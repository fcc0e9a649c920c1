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

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "interp/interpreter.h"
#include "ir/depgraph.h"
#include "jit/trace_cache.h"
#include "util/thread_annotations.h"
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
  /// Persistent compiled-artifact store consulted before any backend
  /// compile and populated after; nullptr = the AVM_TRACE_CACHE_DIR cache
  /// (DiskTraceCache::FromEnv), i.e. off unless that variable is set.
  std::shared_ptr<jit::DiskTraceCache> disk_cache;
};

/// Counters and diagnostics of one adaptive-VM run.
struct VmReport {
  uint64_t iterations = 0;
  /// Compressed column blocks the interpreter's streaming scan cursors
  /// read from, each counted once per forward scan; the cursors decode
  /// only the rows they read (docs/SPILL.md §6).
  uint64_t chunks_streamed = 0;
  /// Greedy partitions (§III-B) this run computed. A pass whose inputs
  /// match a partition in the VM's PartitionMemo reuses it uncounted.
  uint64_t partitions = 0;
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

  /// The JIT's one tier, "opt" (-O2), when the JIT is enabled; empty
  /// otherwise. The benchmark driver (perfbench/) reads this and the next
  /// three fields: every compile is optimized, so opt_compile_seconds
  /// equals compile_seconds, and fast_compile_seconds and
  /// tier_upgrades_requested stay 0.
  std::string jit_tier;
  double fast_compile_seconds = 0;
  double opt_compile_seconds = 0;
  uint64_t tier_upgrades_requested = 0;
  /// Persistent-cache traffic of this run: situations whose machine code
  /// was loaded from AVM_TRACE_CACHE_DIR instead of compiled (hits — these
  /// do NOT count into traces_compiled), situations probed without a
  /// loadable artifact (misses), and corrupt entries detected, deleted and
  /// recompiled along the way.
  uint64_t disk_cache_hits = 0;
  uint64_t disk_cache_misses = 0;
  uint64_t disk_cache_corrupt = 0;
  /// Candidate trace situations the JIT gate (analysis::VerifyTrace)
  /// checked for installation this run, accepted or declined; each is
  /// checked once per run. The partitioner's acceptor checks are not
  /// counted.
  uint64_t verifier_checked = 0;

  /// Fold another run's report in: counts and seconds add, jit_declined and
  /// jit_tier keep the first non-empty value. state_timeline and profile
  /// are left alone (the caller picks a representative run's).
  void Merge(const VmReport& other);
};

/// Greedy partitions (§III-B) with the inputs each was computed from, so
/// that an optimize pass observing the same inputs reuses a partition
/// instead of partitioning again. GreedyPartition is deterministic in the
/// program's graph, the constraints, the bucketed node costs and its
/// acceptor's answers; the acceptor's answers follow from the unfused
/// filters and the selections the judged regions carry. A Session gives
/// every morsel VM of one query the same memo, so the query partitions
/// about once instead of once per morsel; a VM without a shared memo keeps
/// a private one. Thread-safe. Entries are keyed by program address: the
/// programs must outlive the memo, and VMs sharing one must partition
/// under the same PartitionConstraints.
class PartitionMemo {
 public:
  /// One partition and the inputs it was computed from.
  struct Entry {
    const dsl::Program* program = nullptr;
    /// Bucketed node costs, indexed by graph node id.
    std::vector<double> costs;
    /// Filter nodes kept out of traces for their observed selectivity.
    std::set<uint32_t> unfused_filters;
    /// Each region the acceptor judged, with the selection-carrying chunk
    /// inputs it was judged under.
    std::vector<std::pair<ir::Trace, std::set<std::string>>> judged;
    /// The traces, by descending total cost.
    std::vector<ir::Trace> traces;
  };
  /// The selection-carrying chunk inputs of a region as a VM observes
  /// them now.
  using SelectionsOf =
      std::function<std::set<std::string>(const ir::Trace& region)>;

  /// A published entry of `program` computed from `costs` and `unfused`
  /// whose every judged region carries `selections_of(region)` now; null
  /// when there is none.
  std::shared_ptr<const Entry> Find(const dsl::Program* program,
                                    const std::vector<double>& costs,
                                    const std::set<uint32_t>& unfused,
                                    const SelectionsOf& selections_of) const;

  /// Make `entry` visible to every later Find.
  void Publish(std::shared_ptr<const Entry> entry);

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const Entry>> entries_ AVM_GUARDED_BY(mu_);
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
  /// share each other's compiled traces. Likewise a non-null `shared_memo`
  /// replaces the VM's private PartitionMemo, so morsel workers of one
  /// query share each other's partitions.
  AdaptiveVm(const dsl::Program* program, VmOptions options = {},
             jit::TraceCache* shared_cache = nullptr,
             PartitionMemo* shared_memo = nullptr);

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
  PartitionMemo own_memo_;
  PartitionMemo* memo_ = &own_memo_;  ///< points at own_memo_ or shared
  /// Situations whose injection is installed, with the statements it
  /// covers (the interpreter drops an injection that a newer, partly
  /// overlapping one replaces; its keys are dropped with it).
  std::unordered_map<uint64_t, std::unordered_set<uint32_t>> installed_;
  /// Invocations and fallbacks of replaced injections.
  uint64_t retired_runs_ = 0;
  uint64_t retired_fallbacks_ = 0;
  /// Situations the gate declined or whose compile failed: skipped for the
  /// rest of this VM's run instead of re-verified and recompiled at every
  /// recheck. The next query's VM tries them again.
  std::unordered_set<uint64_t> declined_;
  bool optimized_once_ = false;
  VmReport report_;
  /// Persistent store resolved at construction (options or environment).
  std::shared_ptr<jit::DiskTraceCache> disk_;
};

}  // namespace avm::vm
