// The process's one cache of machine code, keyed by the generated source
// text it is compiled from (docs/TRACE_CACHE.md §2).
//
// Every trace compile and the whole-query Q1 baseline ask
// CodeCache::Global() for an entry point. A hit returns the entry point an
// earlier request for the same source loaded, in any query of any Session;
// a miss loads the artifact from the persistent disk cache when the caller
// has one, and only then runs the compiler. Requests for one source are
// single-flight: the first compiles, the others wait for it. Requests for
// distinct sources compile concurrently.
//
// The key is the source text itself, compared in full on a hit, so two
// sources never share machine code however alike their traces look. The
// cache holds entry points only: a failure (a compile error or an
// unloadable artifact) is not cached, and the next request tries again.
#pragma once

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

namespace avm::jit {

/// Where CodeCache::Get found an entry point, and what that cost.
struct CodeOrigin {
  /// How the entry point was obtained.
  enum class From {
    kCache,     ///< loaded by an earlier request in this process
    kDisk,      ///< loaded from the persistent disk cache
    kCompiler,  ///< compiled by this request
  };
  From from = From::kCache;
  /// Compiler wall time; 0 unless `from` is kCompiler.
  double compile_seconds = 0;
  /// A disk cache was probed and held no loadable entry.
  bool disk_missed = false;
  /// Corrupt disk entries deleted while probing.
  uint64_t disk_corrupt = 0;
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
  /// LoadArtifact.
  explicit CodeCache(CompileFn compile);

  /// The process-wide instance, compiling with CompileArtifact.
  static CodeCache& Global();

  /// The entry point `symbol` of `source`'s machine code. `symbol` is the
  /// extern "C" function `source` defines; asking for another symbol of a
  /// source already loaded is InvalidArgument. On a miss, `disk` (when
  /// non-null) is probed before compiling and receives the compiled
  /// artifact. `origin` reports what the call did.
  Result<void*> Get(const std::string& source, const std::string& symbol,
                    DiskTraceCache* disk, CodeOrigin* origin);

 private:
  /// One source's entry point; its mutex is held while a request produces
  /// it, so concurrent requests for the source wait for that one.
  struct Slot {
    std::mutex mu;
    void* fn AVM_GUARDED_BY(mu) = nullptr;
    std::string symbol AVM_GUARDED_BY(mu);
  };

  /// Disk load or compile, then load.
  Result<void*> Produce(const std::string& source, const std::string& symbol,
                        DiskTraceCache* disk, CodeOrigin* origin);

  CompileFn compile_;
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Slot>> slots_
      AVM_GUARDED_BY(mu_);
};

}  // namespace avm::jit
