// The process's one cache of machine code, keyed by the generated source
// text it is compiled from (docs/TRACE_CACHE.md §2–3).
//
// Every trace compile and the whole-query Q1 baseline ask
// CodeCache::Global() for an entry point. A request for a source answers
// in one of three ways:
//
//  - ready: an earlier request for the same source, in any query of any
//    Session, loaded its entry point; or this request loaded it from the
//    persistent disk cache, or compiled it inline;
//  - pending: a compile of the source is queued or running. The request
//    returns a shared handle to the source's CodeSlot at once;
//  - failed: the compile or load failed.
//
// A miss probes the disk cache on the caller's thread. When the disk has
// no entry, the compile is queued on the caller's CompilerThread (a
// Session owns one), and the request returns at once. A caller without a
// compiler thread compiles inline instead, and waits for a compile another
// request queued. Requests for one source are single-flight: the first
// starts the compile, the others find the slot pending. Distinct sources
// requested without a compiler thread compile concurrently.
//
// The key is the source text itself, compared in full on a hit, so two
// sources never share machine code however alike their traces look. The
// cache holds entry points only: a failure (a compile error or an
// unloadable artifact) is not cached, and the next request tries again.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "jit/disk_cache.h"
#include "jit/jit_backend.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace avm::jit {

/// Where a CodeCache request found an entry point, and what that cost.
struct CodeOrigin {
  /// How the entry point was obtained.
  enum class From {
    kCache,     ///< loaded, or being compiled, for an earlier request
    kDisk,      ///< loaded from the persistent disk cache
    kCompiler,  ///< this request compiled it, or queued its compile
  };
  From from = From::kCache;
  /// Compiler wall time of an inline compile; 0 otherwise (a queued
  /// compile reports its time through CodeSlot::TakeCompileSeconds).
  double compile_seconds = 0;
  /// A disk cache was probed and held no loadable entry.
  bool disk_missed = false;
  /// Corrupt disk entries deleted while probing.
  uint64_t disk_corrupt = 0;
};

/// One source's machine code: pending until its compile or load finishes,
/// then either the entry point or the failure, for good. Shared by the
/// cache, a queued compile and every request that found it pending.
/// Thread-safe.
class CodeSlot {
 public:
  /// Whether the code landed or its compile failed: one atomic load.
  bool done() const { return done_.load(std::memory_order_acquire); }

  /// Blocks until done(); then the entry point or the failure.
  Result<void*> Wait() const AVM_NO_THREAD_SAFETY_ANALYSIS;

  /// The compiler's wall time when this slot's code was compiled (0 for a
  /// disk load or a failure), returned by the first call only: a query
  /// counts each compile it requested once. Call once done().
  double TakeCompileSeconds();

 private:
  friend class CodeCache;

  explicit CodeSlot(std::string symbol) : symbol_(std::move(symbol)) {}

  /// Publishes the result and wakes every waiter.
  void Finish(Result<void*> result, double seconds);

  /// The extern "C" function the slot's source defines.
  const std::string symbol_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  Status status_ AVM_GUARDED_BY(mu_);
  void* fn_ AVM_GUARDED_BY(mu_) = nullptr;
  double compile_seconds_ AVM_GUARDED_BY(mu_) = 0;
  std::atomic<bool> done_{false};
  std::atomic<bool> seconds_taken_{false};
};

/// Runs queued compiles on one thread of its own, one at a time and in
/// the order they were queued, so compiling takes at most one CPU from the
/// workers of the Session that owns it. The compiler stays a child process
/// of this process. Destruction finishes every queued compile, then joins
/// the thread. Thread-safe.
class CompilerThread {
 public:
  CompilerThread() = default;
  CompilerThread(const CompilerThread&) = delete;
  CompilerThread& operator=(const CompilerThread&) = delete;

  /// Lifetime counters.
  struct Stats {
    /// Compiles queued or running now.
    uint64_t pending = 0;
    /// Compiler runs finished, failed ones included.
    uint64_t compiled = 0;
    /// Their summed wall time (a failed run reports none).
    double compile_seconds = 0;
  };
  Stats stats() const;

 private:
  friend class CodeCache;

  /// Queue `compile`, which runs the compiler once, never throws and
  /// returns the run's wall time, behind every compile queued before it.
  void Enqueue(std::function<double()> compile);

  mutable std::mutex mu_;
  uint64_t pending_ AVM_GUARDED_BY(mu_) = 0;
  uint64_t compiled_ AVM_GUARDED_BY(mu_) = 0;
  double compile_seconds_ AVM_GUARDED_BY(mu_) = 0;
  /// Declared last, so it is destroyed first: its queue drains into the
  /// counters above.
  ThreadPool thread_{1};
};

/// What one CodeCache::Request found or started (file comment above):
/// ready or pending. A failed request is an error Result instead.
struct CodeRequest {
  /// Ready: the entry point; null while pending.
  void* fn = nullptr;
  /// Pending: the source's slot, done() once the code lands or the
  /// compile fails; null when ready.
  std::shared_ptr<CodeSlot> pending;
  CodeOrigin origin;
};

/// Process-wide single-flight map from source text to loaded entry point
/// (file comment above). Thread-safe. Entry points stay valid for the
/// process lifetime.
class CodeCache {
 public:
  /// The compile step of a miss: source -> artifact bytes, reporting the
  /// compiler's wall time.
  using CompileFn = std::function<Result<JitArtifact>(
      const std::string& source, double* compile_seconds)>;

  /// A cache whose misses compile with `compile` and load with
  /// LoadArtifact. It must outlive every CompilerThread it queues on.
  explicit CodeCache(CompileFn compile);

  /// The process-wide instance, compiling with CompileArtifact.
  static CodeCache& Global();

  /// The entry point `symbol` of `source`'s machine code, or the pending
  /// slot that will hold it. `symbol` is the extern "C" function `source`
  /// defines; asking for another symbol of a source already requested is
  /// InvalidArgument. On a miss, `disk` (when non-null) is probed on this
  /// thread and receives the compiled artifact.
  ///
  /// With a `compiler`, the request never waits for a compiler run: a miss
  /// the disk cannot serve is queued on `compiler`, and a source queued or
  /// compiling for any request answers pending. Without one, the request
  /// answers ready or failed: a miss compiles inline, and a pending source
  /// is waited for. A failed result is the failed load or inline compile,
  /// or the failed compile waited for.
  Result<CodeRequest> Request(const std::string& source,
                              const std::string& symbol,
                              const std::shared_ptr<DiskTraceCache>& disk,
                              CompilerThread* compiler);

 private:
  /// Compile, load and store `source` for the pending `slot`, then finish
  /// it; a failure also removes the slot from the map. Returns the
  /// compiler's wall time.
  double Compile(const std::string& source, DiskTraceCache* disk,
                 const std::shared_ptr<CodeSlot>& slot);
  /// Finish `slot`; a failed one leaves the map first, so the next
  /// request starts afresh.
  void Finish(const std::string& source, const std::shared_ptr<CodeSlot>& slot,
              Result<void*> result, double seconds);

  CompileFn compile_;
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<CodeSlot>> slots_
      AVM_GUARDED_BY(mu_);
};

}  // namespace avm::jit
