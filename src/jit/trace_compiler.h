// Turns generated traces into runnable injections for the interpreter —
// the "Generate code" → "Inject functions" edges of the Fig. 1 state machine.
#pragma once

#include <atomic>
#include <memory>

#include "interp/interpreter.h"
#include "jit/codegen.h"
#include "jit/disk_cache.h"
#include "jit/jit_backend.h"

namespace avm::jit {

/// A fully compiled trace: generation metadata plus the machine-code entry.
struct CompiledTrace {
  GeneratedTrace meta;
  TraceFn fn = nullptr;
  /// Optimization tier `fn` was compiled at (tiered JIT).
  JitTier tier = JitTier::kOptimized;
};

/// One live compiled trace whose machine code can be RE-PUBLISHED in place:
/// the asynchronous tier upgrade compiles the same source at the optimized
/// tier and swaps `fn` atomically, so running injections and future cache
/// hits pick up the better code mid-query without re-injection and without
/// any worker ever blocking on the upgrade. Entries are what TraceCache
/// stores; metadata is immutable after construction.
class TraceEntry {
 public:
  /// Wrap a compiled trace. `situation_key` is the cache key the entry is
  /// stored under (also the disk-cache key of upgrade artifacts); entries
  /// kept outside any cache pass 0.
  TraceEntry(CompiledTrace trace, uint64_t situation_key);

  /// Generation metadata (immutable).
  const GeneratedTrace& meta() const { return trace_.meta; }

  /// Current entry point (acquire; pairs with Publish's release).
  TraceFn fn() const { return fn_.load(std::memory_order_acquire); }

  /// Current optimization tier of fn().
  JitTier tier() const {
    return static_cast<JitTier>(tier_.load(std::memory_order_acquire));
  }

  /// Situation key this entry is cached under.
  uint64_t situation_key() const { return situation_key_; }

  /// Hash of the generated source (disk-cache key component).
  uint64_t source_hash() const { return source_hash_; }

  /// Count one injection invocation; returns the new total (the tier
  /// upgrade's hotness signal).
  uint64_t OnInvocation() {
    return invocations_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Invocations observed so far.
  uint64_t invocations() const {
    return invocations_.load(std::memory_order_relaxed);
  }

  /// One-shot claim of the upgrade: true for exactly one caller.
  bool TryClaimUpgrade() {
    return !upgrade_claimed_.exchange(true, std::memory_order_acq_rel);
  }

  /// Swap in new machine code (release; readers continue seamlessly).
  void Publish(TraceFn fn, JitTier tier) {
    tier_.store(static_cast<uint8_t>(tier), std::memory_order_release);
    fn_.store(fn, std::memory_order_release);
  }

 private:
  CompiledTrace trace_;  ///< meta storage; fn/tier live in the atomics
  uint64_t situation_key_;
  uint64_t source_hash_;
  std::atomic<TraceFn> fn_;
  std::atomic<uint8_t> tier_;
  std::atomic<uint64_t> invocations_{0};
  std::atomic<bool> upgrade_claimed_{false};
};

/// Tier-upgrade counters one VM run shares with its upgrade threads (the
/// threads may outlive the run; the report reads whatever completed by
/// then).
struct TierCounters {
  std::atomic<uint64_t> requested{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failed{0};
};

/// Default invocation count that makes a fast-tier entry hot enough for
/// the background optimized-tier upgrade.
inline constexpr uint64_t kDefaultUpgradeAfter = 32;

/// Tier-upgrade policy an injection applies to its entry (the fast→opt
/// state machine, docs/TRACE_CACHE.md).
struct TraceTierOptions {
  /// Whether hot fast-tier entries upgrade at all (TierPolicy::kTiered).
  bool upgrade_enabled = false;
  /// Invocation count that makes an entry hot.
  uint64_t upgrade_after = kDefaultUpgradeAfter;
  /// Persistent store upgrades probe first and publish into (may be null).
  std::shared_ptr<DiskTraceCache> disk;
  /// Observability sink (may be null).
  std::shared_ptr<TierCounters> counters;
};

/// Result of one tiered compile-or-load: the trace plus where it came from
/// and what it cost (the VM's per-query observability counters).
struct TieredCompileOutcome {
  CompiledTrace trace;
  bool from_disk = false;      ///< loaded from the persistent cache
  bool disk_probed = false;    ///< a persistent cache was consulted
  uint64_t disk_corrupt = 0;   ///< corrupt entries dropped while probing
  double compile_seconds = 0;  ///< backend wall time (0 on disk hit)
};

/// Generate a verified trace (GenerateTrace: `verified` must be the clean
/// analysis::VerifyTrace result for `trace`), then obtain its machine code
/// the cheapest honest way: consult `disk` (when non-null) for an artifact
/// of an allowed tier before invoking a backend; on miss compile at the
/// policy's initial tier (fast for kTiered/kFastOnly, optimized for
/// kOptimizedOnly) and publish the artifact back to `disk`.
/// `situation_key` keys the persistent entry.
Result<TieredCompileOutcome> CompileTraceTiered(
    const dsl::Program& program, const ir::DepGraph& graph,
    const ir::Trace& trace, const analysis::TraceVerification& verified,
    const CodegenOptions& options, TierPolicy policy,
    const std::shared_ptr<DiskTraceCache>& disk, uint64_t situation_key);

/// Build the interpreter injection over a live trace entry. The injection:
///  - gathers input pointers + lengths (chunk variables, data-read windows,
///    FOR-compressed delta windows, whole-array gather bases),
///  - resolves captured scalars from the environment,
///  - passes the shared selection of the trace's selection-carrying inputs
///    as TraceCallArgs::sel (selection-specialized variants only),
///  - allocates output buffers (data writes land in scratch and publish
///    after a bounds check) and calls the compiled function,
///  - translates a returned TraceFault into the exact OutOfRange status
///    the interpreter's own gather/scatter/write bounds checks raise,
///  - publishes escaping values, fold scalars, and the scalar state of
///    let-bound writes/scatters (cursor advances) into the environment.
/// Its `applicable` check verifies positions are in range, compression
/// scheme requirements hold, and the runtime selection pattern matches the
/// variant's specialization; when it fails the interpreter transparently
/// falls back to vectorized interpretation (paper §III-C). It reads the
/// entry's CURRENT fn on every call (so an async tier upgrade takes effect
/// mid-query), counts invocations, and — under `tier.upgrade_enabled` —
/// claims and launches the one-shot background upgrade once the entry
/// crosses the hotness threshold. See docs/TRACE_ABI.md for the full
/// contract.
interp::InjectedTrace MakeInjection(std::shared_ptr<TraceEntry> entry,
                                    uint32_t chunk_size,
                                    TraceTierOptions tier = {});

}  // namespace avm::jit
