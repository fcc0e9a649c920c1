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
// This header holds the two stateless steps of jit::CodeCache
// (code_cache.h), the process-wide map from generated source text to
// loaded entry point that every trace and the whole-query Q1 baseline go
// through:
//
//  - CompileArtifact: source -> loadable artifact BYTES, by driving the
//    host C++ compiler once at -O2 -march=native. There is no cheaper
//    tier: a generated trace includes only <cstdint>, so an optimized
//    compile costs less than an unoptimized one did while traces parsed
//    <cmath>, <limits> and <type_traits> (docs/TRACE_CACHE.md §1).
//  - LoadArtifact: artifact bytes -> executable entry point (dlopen +
//    dlsym). Handles stay mapped for the process lifetime, wherever their
//    bytes came from (a fresh compile or the persistent disk cache).
//
// Artifact bytes are the currency between the steps: because a compile
// returns relocatable bytes instead of a live function pointer, the bytes
// can be persisted (jit::DiskTraceCache) and reloaded by a later process,
// which is what makes a restarted server warm from its first query.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace avm::jit {

/// The process-wide scratch directory for compiler invocations and
/// artifact loads: a fresh mkdtemp directory under $TMPDIR (fallback
/// /tmp), created lazily on first use and reused — the TMPDIR value at
/// first use wins — for the process lifetime. The creating process
/// removes it at normal exit; a compile that a live Session's compiler
/// thread is still running then cannot write its output and fails.
const std::string& JitScratchDir();

/// Whether this process can compile: true when a host C++ compiler was
/// found (AVM_CXX if set, else the first of c++/g++/clang++ on PATH).
/// Resolved once per process. When false, every compile fails with
/// CompilationError("no host compiler available") and the VM stays
/// interpreted.
bool HostCompilerAvailable();

/// A compiled, relocatable artifact: the bytes of a shared object exporting
/// one extern "C" symbol. Load with LoadArtifact; persist with
/// DiskTraceCache.
struct JitArtifact {
  std::vector<uint8_t> bytes;
};

/// Compile `source`, a complete translation unit, into artifact bytes with
/// the host compiler at -O2 -march=native. Thread-safe; every call runs
/// the compiler. `compile_seconds`, when non-null, receives the wall time
/// of a successful compiler run. A failed compile is a CompilationError
/// carrying the compiler's diagnostics and leaves no files in
/// JitScratchDir().
Result<JitArtifact> CompileArtifact(const std::string& source,
                                    double* compile_seconds = nullptr);

/// dlopen the artifact bytes and resolve the extern "C" `symbol`.
/// Thread-safe; every call maps a fresh copy, and no handle is ever
/// closed, so a returned pointer stays valid for the process lifetime.
Result<void*> LoadArtifact(const JitArtifact& artifact,
                           const std::string& symbol);

/// Hash of everything besides the source that determines CompileArtifact's
/// machine code: the trace ABI version, the compiler flags and the host
/// compiler's identity line (`<compiler> --version`). Part of every
/// persistent cache key, so artifacts from a different compiler, flag set
/// or ABI revision silently miss instead of loading. Computed on first
/// call, which runs the compiler once; only the disk cache asks for it.
uint64_t CompilerVersionHash();

}  // namespace avm::jit
