// Cache of compiled traces keyed by workload situation.
//
// Section III-B: "The repetition of this algorithm will eventually lead to
// many of these traces, each optimized for a specific situation. The VM
// then chooses — based on the current situation — a trace, if it already
// learned about that situation, or falls back to interpretation."
//
// A situation is: the trace's node set, the compression schemes its reads
// are specialized for, and which chunk inputs carry a selection vector.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "jit/trace_compiler.h"
#include "storage/compression.h"
#include "util/thread_annotations.h"

namespace avm::jit {

struct Situation {
  uint64_t trace_fingerprint = 0;  ///< hash of node ids/labels
  std::map<std::string, Scheme> schemes;  ///< per read data array
  /// Chunk-variable inputs observed to carry a selection vector (sorted).
  /// Part of the situation like compression schemes: the positional and
  /// the selection-carrying variants of one trace are distinct cache
  /// entries, each applicable only when the runtime selection pattern
  /// matches its specialization.
  std::vector<std::string> sel_inputs;

  uint64_t Key() const;
  std::string ToString() const;
};

/// Fingerprint helper for ir::Trace.
uint64_t TraceFingerprint(const ir::DepGraph& graph, const ir::Trace& trace);

/// Thread-safe: a single cache is shared by all workers of a parallel
/// (morsel-driven) run, so one worker's compiled trace serves every clone.
/// Entries are immutable and handed out as shared_ptr<const CompiledTrace>,
/// so a reader is never invalidated by a concurrent insert.
class TraceCache {
 public:
  /// Find the trace compiled for exactly this situation.
  std::shared_ptr<const CompiledTrace> Find(const Situation& s) const;

  /// Insert (overwrites an existing entry for the same situation).
  /// Returns the inserted trace.
  std::shared_ptr<const CompiledTrace> Insert(const Situation& s,
                                              CompiledTrace trace);

  /// Single-flight lookup-or-compile: returns the cached entry for `s`, or
  /// runs `compile` and inserts its result. Compilation is serialized *per
  /// situation*, so concurrent morsel workers that miss on the same
  /// situation don't launch duplicate host-compiler invocations (late
  /// arrivals re-check the cache under the per-key lock and reuse the
  /// winner's trace), while distinct situations compile concurrently.
  /// `*compiled_fresh` reports whether this call ran `compile` (which may
  /// itself have loaded the artifact from the persistent disk cache rather
  /// than invoking a backend — CompileTrace reports which).
  Result<std::shared_ptr<const CompiledTrace>> GetOrCompile(
      const Situation& s,
      const std::function<Result<CompiledTrace>()>& compile,
      bool* compiled_fresh);

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  /// Find without touching the hit/miss counters (internal re-checks).
  std::shared_ptr<const CompiledTrace> Lookup(uint64_t key) const;

  mutable std::mutex mu_;
  /// Per-situation in-flight compile locks (single-flight). The map itself
  /// is guarded by mu_; the per-key mutexes are taken *after* releasing
  /// mu_, never while holding it.
  std::unordered_map<uint64_t, std::shared_ptr<std::mutex>> compiling_
      AVM_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::shared_ptr<const CompiledTrace>> entries_
      AVM_GUARDED_BY(mu_);
  mutable uint64_t hits_ AVM_GUARDED_BY(mu_) = 0;
  mutable uint64_t misses_ AVM_GUARDED_BY(mu_) = 0;
};

}  // namespace avm::jit
