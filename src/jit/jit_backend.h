// Host-compiler JIT: compile generated C++ to artifact bytes, load bytes.
//
// Substitution note (ARCHITECTURE.md §Substitutions): the paper assumes an
// LLVM-style JIT; we generate specialized C++, compile it with the system
// compiler into a shared object and dlopen it. This is a real production
// technique (PostgreSQL pre-LLVM, and several engines' fallback paths) and
// produces genuinely specialized machine code with realistic compile
// latencies, which is exactly the interpret-vs-compile tension the paper
// studies.
//
// Every compile in the process — trace first compiles, tier upgrades, the
// whole-query Q1 baseline — goes through the same two pieces:
//
//  - CcBackend: compile source -> loadable artifact BYTES. One instance
//    per optimization tier (BackendForTier), both driving the host C++
//    compiler:
//      cc-o0 (JitTier::kFast)      cheap compiles for first executions
//      cc-o2 (JitTier::kOptimized) the steady-state tier, swapped in
//                                  asynchronously once a trace is hot
//  - ArtifactLoader: artifact bytes -> executable entry point (dlopen +
//    dlsym), process-global so compiled traces stay mapped for the process
//    lifetime wherever their bytes came from (a fresh compile or the
//    persistent disk cache).
//
// Artifact bytes are the currency between the pieces: because a backend
// returns relocatable bytes instead of a live function pointer, the bytes
// can be persisted (jit::DiskTraceCache) and reloaded by a later process,
// which is what makes a restarted server warm from its first query.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace avm::jit {

/// The process-wide scratch directory for compiler invocations and
/// artifact loads: a fresh mkdtemp directory under $TMPDIR (fallback
/// /tmp), created lazily on first use and reused — the TMPDIR value at
/// first use wins — for the process lifetime. The creating process
/// removes it at normal exit; a compile still running then cannot write
/// its output, and that tier upgrade is dropped.
const std::string& JitScratchDir();

/// Whether this process can compile: true when a host C++ compiler was
/// found (AVM_CXX if set, else the first of c++/g++/clang++ on PATH).
/// Resolved once per process. When false, every compile fails with
/// CompilationError("no host compiler available") and the VM stays
/// interpreted.
bool HostCompilerAvailable();

/// Optimization tier of a compiled-trace artifact.
enum class JitTier : uint8_t {
  kFast = 0,       ///< cheap compile (-O0): minimal latency to first run
  kOptimized = 1,  ///< full optimization (-O2): steady-state code quality
};

/// Human-readable tier name ("fast", "opt").
const char* TierName(JitTier t);

/// Which tiers a query's traces may use (VmOptions::jit_tier_policy).
enum class TierPolicy : uint8_t {
  /// Resolve from AVM_JIT_TIER ("tiered" | "fast" | "opt"); kTiered when
  /// the variable is unset or unrecognized.
  kDefault = 0,
  /// Compile kFast first so the first execution pays minimal JIT latency;
  /// asynchronously upgrade hot traces to kOptimized (trace_compiler.h).
  kTiered,
  /// Only the fast tier, never upgraded (latency benchmarks, tests).
  kFastOnly,
  /// Compile at kOptimized immediately (the pre-tiering behavior).
  kOptimizedOnly,
};

/// Resolve kDefault against AVM_JIT_TIER; other values pass through.
TierPolicy ResolveTierPolicy(TierPolicy p);

/// Human-readable policy name ("tiered", "fast", "opt").
const char* TierPolicyName(TierPolicy p);

/// A compiled, relocatable artifact: the bytes of a shared object exporting
/// one extern "C" symbol. Load with ArtifactLoader; persist with
/// DiskTraceCache. `tier` records the optimization level the bytes were
/// produced at (the tier-upgrade state machine and the disk cache both key
/// on it).
struct JitArtifact {
  std::vector<uint8_t> bytes;
  JitTier tier = JitTier::kFast;
};

/// Compiles a C++ translation unit into loadable artifact bytes by
/// shelling out to the host C++ compiler with a fixed flag set. Thread-safe;
/// memoizes produced artifacts by (source, symbol), so repeated identical
/// compiles invoke the compiler once.
///
/// The memo holds full artifact bytes, so it is bounded both by entry
/// count and by total byte size (FIFO eviction). An evicted (source,
/// symbol) pair simply recompiles on its next request — the memo is a
/// latency optimization, never a correctness dependency.
class CcBackend {
 public:
  static constexpr size_t kDefaultMemoEntries = 256;
  static constexpr size_t kDefaultMemoBytes = size_t{64} << 20;  // 64 MiB

  CcBackend(const char* name, JitTier tier, std::string flags,
            size_t memo_max_entries = kDefaultMemoEntries,
            size_t memo_max_bytes = kDefaultMemoBytes);

  /// Short backend identity ("cc-o0", "cc-o2").
  const char* name() const { return name_; }

  /// Optimization tier of the artifacts this backend produces.
  JitTier tier() const { return tier_; }

  /// Hash of everything that affects the produced machine code: compiler
  /// identity+version, flags, and the trace ABI version. Part of the
  /// on-disk cache key, so artifacts from a different compiler, flag set,
  /// or ABI revision silently miss (and recompile) instead of loading.
  uint64_t version_hash() const { return version_hash_; }

  /// Compile `source` (a complete TU exporting extern "C" `symbol`) into
  /// artifact bytes. `compile_seconds`, when non-null, receives the wall
  /// time of the compiler invocation (0 on a memo hit). A failed compile
  /// is a CompilationError carrying the compiler's diagnostics and leaves
  /// no files in JitScratchDir().
  Result<JitArtifact> Compile(const std::string& source,
                              const std::string& symbol,
                              double* compile_seconds = nullptr);

  /// Current memo occupancy (entries / summed artifact bytes), bounded by
  /// the construction limits.
  size_t memo_entries();
  size_t memo_bytes();

 private:
  const char* name_;
  JitTier tier_;
  std::string flags_;
  uint64_t version_hash_;
  size_t memo_max_entries_;
  size_t memo_max_bytes_;
  std::mutex mu_;
  std::unordered_map<uint64_t, JitArtifact> memo_ AVM_GUARDED_BY(mu_);
  /// memo_ keys in insertion order.
  std::deque<uint64_t> fifo_ AVM_GUARDED_BY(mu_);
  size_t memo_bytes_ AVM_GUARDED_BY(mu_) = 0;
};

/// The process-wide compiler for a tier: cc-o0 (-O0) for kFast, cc-o2
/// (-O2 -march=native) for kOptimized.
CcBackend& BackendForTier(JitTier tier);

/// Loads artifact bytes into the process and resolves the entry symbol.
/// Thread-safe; memoizes by (bytes hash, symbol) so one artifact loaded
/// through any number of paths maps once. Handles stay open for the process
/// lifetime — compiled function pointers outlive every cache that hands
/// them out.
///
/// The memo is bounded (`memo_limit` entries, FIFO): a session churning
/// through an unbounded stream of distinct traces cannot grow the lookup
/// table without limit. Evicting a memo entry does NOT unmap its artifact —
/// handed-out function pointers must never dangle — it only means a later
/// Load of the same bytes pays a redundant dlopen (correct, just slower).
class ArtifactLoader {
 public:
  static constexpr size_t kDefaultMemoLimit = 1024;

  explicit ArtifactLoader(size_t memo_limit = kDefaultMemoLimit);

  /// dlopen the artifact bytes and resolve `symbol`.
  Result<void*> Load(const JitArtifact& artifact, const std::string& symbol);

  /// Current memo entry count (bounded by the construction limit).
  size_t memo_entries();

  /// Process-wide instance.
  static ArtifactLoader& Global();

 private:
  std::mutex mu_;
  std::string dir_;  ///< set in the constructor, immutable afterwards
  size_t memo_limit_;
  std::unordered_map<uint64_t, void*> cache_ AVM_GUARDED_BY(mu_);
  /// cache_ keys in insertion order.
  std::deque<uint64_t> fifo_ AVM_GUARDED_BY(mu_);
  std::vector<void*> handles_ AVM_GUARDED_BY(mu_);
  uint64_t seq_ AVM_GUARDED_BY(mu_) = 0;
};

}  // namespace avm::jit
