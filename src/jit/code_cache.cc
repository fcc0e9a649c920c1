#include "jit/code_cache.h"

#include <cstdio>

#include "util/hash.h"
#include "util/logging.h"

namespace avm::jit {

CodeCache::CodeCache(CompileFn compile) : compile_(std::move(compile)) {}

// Leaked: a Session's worker may still compile while exit() runs static
// destructors.
CodeCache& CodeCache::Global() {
  static CodeCache* cache = new CodeCache(CompileArtifact);
  return *cache;
}

Result<void*> CodeCache::Get(const std::string& source,
                             const std::string& symbol, DiskTraceCache* disk,
                             CodeOrigin* origin) {
  *origin = CodeOrigin{};
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(source);
    if (it == slots_.end()) {
      it = slots_.emplace(source, std::make_shared<Slot>()).first;
    }
    slot = it->second;
  }
  // A slot's mutex is never taken while mu_ is held.
  std::lock_guard<std::mutex> produce(slot->mu);
  if (slot->fn != nullptr) {
    if (slot->symbol != symbol) {
      return Status::InvalidArgument("source defines " + slot->symbol +
                                     ", not " + symbol);
    }
    return slot->fn;
  }
  Result<void*> fn = Produce(source, symbol, disk, origin);
  if (fn.ok()) {
    slot->fn = fn.value();
    slot->symbol = symbol;
  } else {
    // Keep no failure: the next request for this source starts afresh,
    // and a request already waiting on this slot tries again itself.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(source);
    if (it != slots_.end() && it->second == slot) slots_.erase(it);
  }
  return fn;
}

Result<void*> CodeCache::Produce(const std::string& source,
                                 const std::string& symbol,
                                 DiskTraceCache* disk, CodeOrigin* origin) {
  const uint64_t source_hash = disk != nullptr ? HashString(source) : 0;
  if (disk != nullptr) {
    const uint64_t version = CompilerVersionHash();
    Result<JitArtifact> art =
        disk->TryLoad(source_hash, version, &origin->disk_corrupt);
    if (art.ok()) {
      Result<void*> fn = LoadArtifact(art.value(), symbol);
      if (fn.ok()) {
        origin->from = CodeOrigin::From::kDisk;
        return fn;
      }
      // Checksum passed but the bytes do not load into this process (say,
      // stored by an incompatible build under a colliding version hash).
      // Drop the entry and compile.
      ++origin->disk_corrupt;
      std::remove(disk->EntryPath(source_hash, version).c_str());
      AVM_LOG(kWarning) << "trace cache: unloadable entry for " << symbol
                        << " dropped: " << fn.status().ToString();
    }
    origin->disk_missed = true;
  }
  origin->from = CodeOrigin::From::kCompiler;
  AVM_ASSIGN_OR_RETURN(JitArtifact artifact,
                       compile_(source, &origin->compile_seconds));
  AVM_ASSIGN_OR_RETURN(void* fn, LoadArtifact(artifact, symbol));
  if (disk != nullptr) {
    // Best-effort: a full disk or unwritable directory must not fail the
    // query; the artifact simply is not persisted.
    Status st = disk->Store(source_hash, CompilerVersionHash(), artifact);
    if (!st.ok()) {
      AVM_LOG(kWarning) << "trace cache store failed: " << st.ToString();
    }
  }
  return fn;
}

}  // namespace avm::jit
