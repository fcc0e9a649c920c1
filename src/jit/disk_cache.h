// Persistent on-disk machine-code cache (docs/TRACE_CACHE.md §4).
//
// Stores JitArtifact bytes under a directory (AVM_TRACE_CACHE_DIR), one
// file per (source, compiler version):
//
//   s<source_hash:016x>v<version_hash:016x>.avmtc
//
// so a restarted process finds the machine code for every source it has
// ever compiled and is warm from its first query. jit::CodeCache probes it
// on a miss, before compiling. Design properties (the miniexpr
// dsl_jit_runtime_cache architecture):
//
//  - Crash-safe writes: entries are written to a temp file in the same
//    directory and published with rename(2), so readers — including other
//    processes sharing the directory — only ever see complete entries.
//  - Checksum-verified loads: every entry carries an FNV-1a checksum over
//    its payload and header; corrupt or truncated entries are detected,
//    deleted, and reported as misses (the caller recompiles) — never
//    loaded.
//  - Version keying: jit::CompilerVersionHash (trace ABI version +
//    compiler identity + flags) is part of the filename and the header, so
//    artifacts from a different compiler, flag set, or ABI revision
//    silently miss instead of being dlopen'd into the wrong contract.
//  - Size budget: after every store, least-recently-used entries (by file
//    mtime; hits re-touch) are evicted until the directory is back under
//    the byte budget (AVM_TRACE_CACHE_BUDGET, default 256 MiB).
//
// On-disk format and the full contract: docs/TRACE_CACHE.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "jit/jit_backend.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace avm::jit {

/// Snapshot of a DiskTraceCache's lifetime counters.
struct DiskCacheStats {
  uint64_t hits = 0;             ///< logical lookups that loaded an artifact
  uint64_t misses = 0;           ///< logical lookups that found nothing
  uint64_t corrupt_dropped = 0;  ///< entries failing checksum, deleted
  uint64_t stores = 0;           ///< entries published
  uint64_t evictions = 0;        ///< entries removed by the LRU budget
};

/// Directory-backed artifact store. Thread-safe; safe to share one
/// directory across processes (atomic-rename publication, checksummed
/// reads).
class DiskTraceCache {
 public:
  /// Open (creating if needed) a cache rooted at `dir` with the given byte
  /// budget. Prefer ForDir/FromEnv, which share instances.
  DiskTraceCache(std::string dir, uint64_t budget_bytes);

  /// The process-wide instance for `dir` (created on first use), so every
  /// Session pointed at one directory shares one LRU/stat state. Budget is
  /// fixed by the first call for a given directory.
  static std::shared_ptr<DiskTraceCache> ForDir(const std::string& dir,
                                                uint64_t budget_bytes);

  /// The cache named by AVM_TRACE_CACHE_DIR with the AVM_TRACE_CACHE_BUDGET
  /// byte budget, or nullptr when the variable is unset/empty (persistent
  /// caching off — the default).
  static std::shared_ptr<DiskTraceCache> FromEnv();

  /// Load the entry for (source_hash, version_hash), verifying the
  /// checksum and that its header names the same key. Counts one hit or
  /// miss. NotFound on miss; corrupt entries are deleted and reported as
  /// NotFound. `corrupt_dropped`, when non-null, is incremented when this
  /// probe deletes a corrupt entry (per-query observability; the instance
  /// counter advances regardless).
  Result<JitArtifact> TryLoad(uint64_t source_hash, uint64_t version_hash,
                              uint64_t* corrupt_dropped = nullptr);

  /// Publish an artifact for (source_hash, version_hash), then evict
  /// over-budget entries. Failure is returned but callers treat the cache
  /// as best-effort (a failed store never fails a query).
  Status Store(uint64_t source_hash, uint64_t version_hash,
               const JitArtifact& artifact);

  /// Path of the entry file for a key (tests corrupt entries through this).
  std::string EntryPath(uint64_t source_hash, uint64_t version_hash) const;

  /// Lifetime counters of this instance.
  DiskCacheStats stats() const;

  /// Cache root directory.
  const std::string& dir() const { return dir_; }

  /// Eviction budget in bytes.
  uint64_t budget_bytes() const { return budget_bytes_; }

 private:
  Result<JitArtifact> LoadEntry(uint64_t source_hash, uint64_t version_hash,
                                uint64_t* corrupt_dropped);
  void EvictOverBudget() AVM_EXCLUDES(mu_);

  std::string dir_;
  uint64_t budget_bytes_;
  /// Serializes store+evict directory scans; all other state is atomic or
  /// immutable after construction (file contents are made consistent by
  /// atomic-rename publication, not by this lock).
  std::mutex mu_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> corrupt_dropped_{0};
  std::atomic<uint64_t> stores_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> tmp_seq_{0};
};

}  // namespace avm::jit
