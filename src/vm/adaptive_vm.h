// The adaptive virtual machine (Section III).
//
// Drives the Fig. 1 state machine over a DSL program: interpret with
// profiling, decide to optimize after a warmup, greedily partition the hot
// dependency graph into traces (§III-B), JIT-compile them specialized for
// the current situation (input compression schemes, §III-C), inject them
// into the interpreter, and keep watching: when a block's compression
// scheme changes, the injected trace declines its chunks, the VM falls back
// to interpretation and compiles a new variant for the new situation. The
// morsel VMs of one query context partition and decide each situation once,
// in the context's TracePlan, and machine code is shared by source through
// jit::CodeCache (docs/TRACE_CACHE.md §2). On a Session the compile runs on
// the Session's compiler thread: the VM keeps interpreting in GenerateCode
// and injects the trace at the first chunk boundary after its code landed
// (docs/TRACE_CACHE.md §3). A VM of a re-submitted context installs what
// the plan decided before its first chunk, with no profiling pass.
#pragma once

#include <compare>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_set>
#include <vector>

#include "interp/interpreter.h"
#include "ir/depgraph.h"
#include "jit/trace_compiler.h"
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
  /// Persistent compiled-artifact store that a jit::CodeCache miss probes
  /// before compiling and fills after; nullptr = the AVM_TRACE_CACHE_DIR
  /// cache (DiskTraceCache::FromEnv), i.e. off unless that variable is set.
  std::shared_ptr<jit::DiskTraceCache> disk_cache;
};

/// Counters and diagnostics of one adaptive-VM run.
struct VmReport {
  uint64_t iterations = 0;
  /// Compressed column blocks the interpreter's streaming scan cursors
  /// read from, each counted once per forward scan; the cursors decode
  /// only the rows they read (docs/SPILL.md §6).
  uint64_t chunks_streamed = 0;
  /// Greedy partitions (§III-B) this run computed. A pass whose
  /// TracePlan::PartitionKey the VM's plan has seen takes that partition
  /// uncounted.
  uint64_t partitions = 0;
  /// Compiler runs this run requested: traces whose machine code it
  /// compiled inline or queued on its Session's compiler thread, counted
  /// when the request is made, whether or not the code lands before the
  /// run ends.
  uint64_t traces_compiled = 0;
  /// Traces taken without compiling or loading: from the context's
  /// TracePlan (at an optimize pass, or before the first chunk of a
  /// re-submission), or machine code jit::CodeCache held or was compiling
  /// for another request. Counted when the VM takes the trace; one still
  /// pending then installs when its code lands.
  uint64_t traces_reused = 0;
  uint64_t injection_runs = 0;
  uint64_t injection_fallbacks = 0;
  /// Wall time of the compiles counted in traces_compiled: an inline
  /// compile's when it returns, a queued compile's once a VM of the
  /// requesting query sees its code land (each compile counts once per
  /// query; a compile landing after the query ended counts in its
  /// Session's Stats only).
  double compile_seconds = 0;
  /// First reason a candidate trace was declined (not compiled) this run;
  /// empty when every considered trace compiled. A shape decline is the
  /// JIT gate's first diagnostic (analysis::VerifyTrace), rule id included
  /// — the rule table is docs/VERIFIER.md (merge/gen skeletons, chunk-array
  /// gather bases, multi-filter traces, non-add/min/max scatter conflict
  /// functions, ...); host-compiler failures report their own status.
  std::string jit_declined;

  /// The JIT's one tier, "opt" (-O2), when the JIT is enabled; empty
  /// otherwise. The benchmark driver (perfbench/) reads this and the next
  /// three fields: every compile is optimized, so opt_compile_seconds
  /// equals compile_seconds, and fast_compile_seconds and
  /// tier_upgrades_requested stay 0.
  std::string jit_tier;
  double fast_compile_seconds = 0;
  double opt_compile_seconds = 0;
  uint64_t tier_upgrades_requested = 0;
  /// Persistent-cache traffic of this run: traces whose machine code was
  /// loaded from AVM_TRACE_CACHE_DIR instead of compiled (hits — these do
  /// NOT count into traces_compiled), traces probed without a loadable
  /// artifact (misses), and corrupt entries detected, deleted and
  /// recompiled along the way.
  uint64_t disk_cache_hits = 0;
  uint64_t disk_cache_misses = 0;
  uint64_t disk_cache_corrupt = 0;
  /// Candidate trace situations the JIT gate (analysis::VerifyTrace)
  /// checked for installation this run, accepted or declined; each is
  /// checked once per TracePlan, by the VM that decides it. The
  /// partitioner's acceptor checks are not counted.
  uint64_t verifier_checked = 0;

  /// Fold another run's report in: counts and seconds add, jit_declined and
  /// jit_tier keep the first non-empty value.
  void Merge(const VmReport& other);
};

/// Whether VMs under `a` and under `b` decide alike: they agree on every
/// option a TracePlan's partitions and situations depend on (chunk size,
/// constraints, max_traces_per_pass, min_cost_share and
/// specialize_compression).
bool SameDecisions(const VmOptions& a, const VmOptions& b);

/// The trace plan of one program: what the VMs running it decided, kept so
/// that each decision is made once per query context instead of once per
/// VM and submission.
///
///  - The program's dependency graph, built once.
///  - Greedy partitions (§III-B), one per PartitionKey: the first VM whose
///    optimize pass observes a key partitions, VMs asking meanwhile wait,
///    and every later VM takes the partition.
///  - For each situation, the JIT gate's verdict and the compiled trace.
///    The first VM that needs a situation decides it (verification, code
///    generation, then a jit::CodeCache request); VMs asking meanwhile
///    wait, and every later VM installs the decision. A gate decline is
///    kept for good. A failed compile is kept for the rest of its
///    submission and leaves at the next (NextSubmission).
///  - The traces the last partition took, so that a VM of a later
///    submission installs their decisions before its first chunk.
///
/// A code-cache miss compiles inline, or is queued on the compiler thread
/// of the VM that decides (a Session passes its own); a queued decision
/// carries the pending slot. Each ExecContext owns one plan, which the
/// Session hands to every morsel VM of the context's submissions; a VM
/// without a shared plan keeps a private one. Thread-safe. VMs sharing a
/// plan must run its one program under SameDecisions options.
class TracePlan {
 public:
  /// What one greedy partition is computed from. GreedyPartition is
  /// deterministic in the program's graph, the constraints, the bucketed
  /// node costs and its acceptor's answers. An answer depends only on the
  /// unfused filters and on the selections that a region's chunk inputs
  /// carry, and those inputs are node outputs of the graph. So one key
  /// gives one partition.
  struct PartitionKey {
    /// Bucketed node costs, indexed by graph node id.
    std::vector<double> costs;
    /// Filter nodes kept out of traces for their observed selectivity.
    std::set<uint32_t> unfused_filters;
    /// The graph's node outputs that carry a selection now.
    std::set<std::string> selected;
    auto operator<=>(const PartitionKey&) const = default;
  };

  /// One situation of the program (§III-C): the trace's graph nodes, the
  /// compression schemes its reads are specialized for, and the chunk
  /// inputs that carry a selection. These determine the generated code
  /// exactly.
  struct Situation {
    std::vector<uint32_t> node_ids;
    std::map<std::string, Scheme> schemes;
    std::set<std::string> sel_inputs;
    auto operator<=>(const Situation&) const = default;
  };

  /// What was decided for one situation: OK and the compiled trace, or the
  /// gate's decline or the failed compile's status. A trace whose compile
  /// was queued carries a null `fn` and the pending code slot, which holds
  /// the entry point, or the failure, once the compiler thread is done.
  struct Decision {
    Status status;
    std::shared_ptr<const jit::CompiledTrace> trace;
    std::shared_ptr<jit::CodeSlot> pending;
    /// The current submission queued the pending compile (VmReport counts
    /// its compile_seconds).
    bool requested = false;
    /// `status` is the JIT gate's decline, which stays in the plan.
    bool declined = false;
  };

  /// What a VM of a re-submitted context installs before its first chunk
  /// (AdaptiveVm::InstallFromPlan).
  struct Installs {
    /// The key of the last partition a pass took.
    PartitionKey key;
    /// Every accepted decision for the traces it took, ready or pending:
    /// one per situation variant, specialized variants first.
    std::vector<std::pair<Situation, Decision>> decisions;
    /// The first decline among their decisions; OK when none.
    Status declined;
    /// A trace it took has no decision: its failed compile left the plan.
    bool undecided = false;
  };

  /// The dependency graph of `program`, the plan's one program, built by
  /// the first call.
  Result<const ir::DepGraph*> Graph(const dsl::Program& program);

  /// The partition for `key`, traces by descending total cost. The first
  /// call runs `partition` while concurrent calls for the key wait; every
  /// call returns its result. `*partitioned` reports whether this call ran
  /// `partition`.
  std::vector<ir::Trace> Partition(
      const PartitionKey& key,
      const std::function<std::vector<ir::Trace>()>& partition,
      bool* partitioned);

  /// The decision for `situation`, single-flight like Partition.
  /// `*decided` reports whether this call ran `decide`.
  Decision Decide(const Situation& situation,
                  const std::function<Decision()>& decide, bool* decided);

  /// Record that an optimize pass took `traces` of the partition for
  /// `key`: the traces a later submission installs.
  void Took(const PartitionKey& key, std::vector<ir::Trace> traces);

  /// Start a submission. Failed compiles leave the plan, so the
  /// submission requests them again, and the decisions kept stop counting
  /// as its requests. Returns what its VMs install before their first
  /// chunk, or nothing when no pass took a partition yet. No VM of the
  /// plan may run during the call.
  std::optional<Installs> NextSubmission();

 private:
  /// One key's result. The first Get runs `compute` with the slot's mutex
  /// held, so concurrent callers wait for it.
  template <typename V>
  struct Slot {
    std::mutex mu;
    bool done AVM_GUARDED_BY(mu) = false;
    V value AVM_GUARDED_BY(mu);

    V Get(const std::function<V()>& compute, bool* computed) {
      std::lock_guard<std::mutex> lock(mu);
      *computed = !done;
      if (!done) {
        value = compute();
        done = true;
      }
      return value;
    }
  };

  /// The program's graph: built once, immutable afterwards.
  std::once_flag graph_once_;
  Status graph_status_;
  ir::DepGraph graph_;

  std::mutex mu_;
  std::map<PartitionKey, std::shared_ptr<Slot<std::vector<ir::Trace>>>>
      partitions_ AVM_GUARDED_BY(mu_);
  std::map<Situation, std::shared_ptr<Slot<Decision>>> decisions_
      AVM_GUARDED_BY(mu_);
  /// The last partition a pass took and the traces it took.
  std::optional<std::pair<PartitionKey, std::vector<ir::Trace>>> took_
      AVM_GUARDED_BY(mu_);
};

/// The adaptive virtual machine (file comment above): a vectorized
/// interpreter plus the Optimize/GenerateCode/InjectFunctions loop that
/// JIT-compiles hot traces specialized for the current situation
/// (compression schemes + selection-carrying inputs, docs/TRACE_ABI.md)
/// and falls back to interpretation when a situation stops matching.
class AdaptiveVm {
 public:
  /// `program` must be type-checked and outlive the VM. A non-null `plan`
  /// replaces the VM's private TracePlan: the VMs of one query context
  /// share its partitions and trace decisions through it. A code-cache miss
  /// the VM decides is queued on `compiler` when it is non-null (a
  /// Session's) and compiles inline otherwise; `compiler` must outlive
  /// the VM.
  AdaptiveVm(const dsl::Program* program, VmOptions options = {},
             TracePlan* plan = nullptr,
             jit::CompilerThread* compiler = nullptr);

  /// Access the embedded interpreter to bind data (before Run).
  interp::Interpreter& interpreter() { return *interp_; }

  /// Before Run: install every decision of `installs`, from the plan's
  /// NextSubmission, so the first chunk runs compiled (a pending one
  /// installs at the first chunk boundary after its code lands). The VM
  /// then runs no first optimize pass unless a chunk falls back, or,
  /// when `installs` left a trace undecided, after the warmup. Its passes
  /// take the plan's costs, and the plan's verdicts for what it did not
  /// interpret. `installs` must outlive the VM.
  void InstallFromPlan(const TracePlan::Installs& installs);

  /// Execute the program to completion under the adaptive policy.
  Status Run();

  VmReport Report() const;
  const StateMachine& state_machine() const { return sm_; }

 private:
  /// A situation whose machine code was still compiling when the VM took
  /// its decision.
  struct PendingTrace {
    TracePlan::Situation situation;
    TracePlan::Decision decision;
  };

  Status OnIteration(interp::Interpreter& in, uint64_t iteration);
  Status OptimizePass(interp::Interpreter& in, uint64_t iteration);
  /// Take the plan's decision for `trace` in the current situation and
  /// install it, or, while its code compiles, add it to pending_.
  Status InstallTrace(interp::Interpreter& in, const ir::Trace& trace,
                      const std::set<std::string>& selected,
                      uint64_t iteration);
  /// Install `decision`, or add it to pending_ while its code compiles; a
  /// decline or a failed compile is returned. `reused` counts it in
  /// traces_reused.
  Status Take(interp::Interpreter& in, TracePlan::Situation situation,
              const TracePlan::Decision& decision, bool reused,
              uint64_t iteration);
  /// Inject a decision whose machine code is ready (or whose compile
  /// failed: its status is returned).
  Status Inject(interp::Interpreter& in, TracePlan::Situation situation,
                const TracePlan::Decision& decision, uint64_t iteration);
  /// Install every pending trace whose code landed and record every failed
  /// compile; once none is left, leave GenerateCode.
  void PollPending(interp::Interpreter& in, uint64_t iteration);
  /// Leave Optimize or GenerateCode for Interpret, through InjectFunctions
  /// when a trace was injected since the pass began.
  void FinishPass(uint64_t iteration);
  /// Report `st` as the run's decline unless one is recorded.
  void RecordDecline(const Status& st);
  /// Verify, generate and compile (or load) `trace` for `situation`: the
  /// decision the VM makes when it is the first to need the situation.
  TracePlan::Decision Decide(const ir::Trace& trace,
                             const TracePlan::Situation& situation);
  /// Whether this VM's interpreter ran graph node `id` (its profile).
  bool Interpreted(interp::Interpreter& in, uint32_t id) const;
  /// Whether a chunk ran interpreted because every trace installed at its
  /// anchor declined it.
  bool FellBack(interp::Interpreter& in) const;
  /// The partition key of what this pass observes: bucketed costs from the
  /// profile, the filters whose observed selectivity keeps them out of
  /// traces, and the node outputs that carry a selection now. A VM that
  /// installed from its plan takes the plan's costs, and the plan's
  /// verdicts for the nodes it did not interpret.
  TracePlan::PartitionKey ObserveKey(interp::Interpreter& in) const;
  /// Current compression situation of the data arrays a trace reads.
  std::map<std::string, Scheme> ObserveSchemes(interp::Interpreter& in,
                                               const ir::Trace& trace) const;
  /// The chunk-variable inputs of `trace` among `selected`: the selection
  /// part of its situation.
  std::set<std::string> SelectionsOf(
      const ir::Trace& trace, const std::set<std::string>& selected) const;

  const dsl::Program* program_;
  VmOptions options_;
  std::unique_ptr<interp::Interpreter> interp_;
  /// The plan's graph of program_, set at the first optimize pass.
  const ir::DepGraph* graph_ = nullptr;
  StateMachine sm_;
  TracePlan own_plan_;
  TracePlan* plan_ = &own_plan_;  ///< points at own_plan_ or shared
  jit::CompilerThread* compiler_ = nullptr;
  /// What InstallFromPlan installed from; null for a VM that did not.
  const TracePlan::Installs* from_plan_ = nullptr;
  /// Situations whose injection is installed, with the statements it
  /// covers (the interpreter drops an injection that a newer, partly
  /// overlapping one replaces; its situations are dropped with it).
  std::map<TracePlan::Situation, std::unordered_set<uint32_t>> installed_;
  /// Decisions whose code is compiling. While any is left the VM stays in
  /// GenerateCode and interprets; OnIteration polls each at every chunk
  /// boundary and runs no optimize pass.
  std::vector<PendingTrace> pending_;
  /// A trace was injected since the current optimize pass began.
  bool injected_ = false;
  /// Invocations and fallbacks of replaced injections.
  uint64_t retired_runs_ = 0;
  uint64_t retired_fallbacks_ = 0;
  bool optimized_once_ = false;
  VmReport report_;
  /// Persistent store resolved at construction (options or environment).
  std::shared_ptr<jit::DiskTraceCache> disk_;
};

}  // namespace avm::vm
