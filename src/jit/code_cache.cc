#include "jit/code_cache.h"

#include <cstdio>
#include <exception>

#include "util/hash.h"
#include "util/logging.h"

namespace avm::jit {

// ----------------------------------------------------------------- CodeSlot

Result<void*> CodeSlot::Wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_.load(std::memory_order_relaxed); });
  if (!status_.ok()) return status_;
  return fn_;
}

double CodeSlot::TakeCompileSeconds() {
  if (seconds_taken_.exchange(true, std::memory_order_relaxed)) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return compile_seconds_;
}

void CodeSlot::Finish(Result<void*> result, double seconds) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.ok()) {
      fn_ = result.value();
      compile_seconds_ = seconds;
    } else {
      status_ = std::move(result).status();
    }
    done_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

// ----------------------------------------------------------- CompilerThread

CompilerThread::Stats CompilerThread::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{pending_, compiled_, compile_seconds_};
}

void CompilerThread::Enqueue(std::function<double()> compile) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  // The future is dropped: the slot the compile finishes is its result.
  thread_.Submit([this, compile = std::move(compile)] {
    const double seconds = compile();
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    ++compiled_;
    compile_seconds_ += seconds;
  });
}

// ---------------------------------------------------------------- CodeCache

namespace {

// The entry point `symbol` of the disk cache's artifact for `source`, or
// NotFound when it holds none that loads.
Result<void*> LoadFromDisk(DiskTraceCache& disk, const std::string& source,
                           const std::string& symbol, CodeOrigin* origin) {
  const uint64_t source_hash = HashString(source);
  const uint64_t version = CompilerVersionHash();
  Result<JitArtifact> art =
      disk.TryLoad(source_hash, version, &origin->disk_corrupt);
  if (!art.ok()) return Status::NotFound("no disk entry");
  Result<void*> fn = LoadArtifact(art.value(), symbol);
  if (fn.ok()) return fn;
  // Checksum passed but the bytes do not load into this process (say,
  // stored by an incompatible build under a colliding version hash). Drop
  // the entry and compile.
  ++origin->disk_corrupt;
  std::remove(disk.EntryPath(source_hash, version).c_str());
  AVM_LOG(kWarning) << "trace cache: unloadable entry for " << symbol
                    << " dropped: " << fn.status().ToString();
  return Status::NotFound("unloadable disk entry");
}

}  // namespace

CodeCache::CodeCache(CompileFn compile) : compile_(std::move(compile)) {}

// Leaked: a Session's compiler thread may still compile while exit() runs
// static destructors.
CodeCache& CodeCache::Global() {
  static CodeCache* cache = new CodeCache(CompileArtifact);
  return *cache;
}

Result<CodeRequest> CodeCache::Request(
    const std::string& source, const std::string& symbol,
    const std::shared_ptr<DiskTraceCache>& disk, CompilerThread* compiler) {
  CodeRequest req;
  std::shared_ptr<CodeSlot> slot;
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<CodeSlot>& entry = slots_[source];
    if (entry == nullptr) {
      entry.reset(new CodeSlot(symbol));
      first = true;
    }
    slot = entry;
  }
  if (slot->symbol_ != symbol) {
    return Status::InvalidArgument("source defines " + slot->symbol_ +
                                   ", not " + symbol);
  }
  if (!first) {
    // A slot in the map is pending or holds an entry point: a failed one
    // leaves the map before it is marked done.
    if (compiler != nullptr && !slot->done()) {
      req.pending = std::move(slot);
      return req;
    }
    AVM_ASSIGN_OR_RETURN(req.fn, slot->Wait());
    return req;
  }
  if (disk != nullptr) {
    Result<void*> fn = LoadFromDisk(*disk, source, symbol, &req.origin);
    if (fn.ok()) {
      req.origin.from = CodeOrigin::From::kDisk;
      req.fn = fn.value();
      Finish(source, slot, std::move(fn), 0);
      return req;
    }
    req.origin.disk_missed = true;
  }
  req.origin.from = CodeOrigin::From::kCompiler;
  if (compiler == nullptr) {
    req.origin.compile_seconds = Compile(source, disk.get(), slot);
    AVM_ASSIGN_OR_RETURN(req.fn, slot->Wait());
    return req;
  }
  // The job owns everything it touches: it may outlive the query (and the
  // program) that asked for it.
  compiler->Enqueue([this, source, disk, slot] {
    return Compile(source, disk.get(), slot);
  });
  req.pending = std::move(slot);
  return req;
}

double CodeCache::Compile(const std::string& source, DiskTraceCache* disk,
                          const std::shared_ptr<CodeSlot>& slot) {
  double seconds = 0;
  Result<void*> fn = Status::Internal("compile did not finish");
  try {
    fn = [&]() -> Result<void*> {
      AVM_ASSIGN_OR_RETURN(JitArtifact artifact, compile_(source, &seconds));
      AVM_ASSIGN_OR_RETURN(void* entry,
                           LoadArtifact(artifact, slot->symbol_));
      if (disk != nullptr) {
        // Best-effort: a full disk or unwritable directory must not fail
        // the query; the artifact simply is not persisted.
        Status st =
            disk->Store(HashString(source), CompilerVersionHash(), artifact);
        if (!st.ok()) {
          AVM_LOG(kWarning) << "trace cache store failed: " << st.ToString();
        }
      }
      return entry;
    }();
  } catch (const std::exception& e) {
    // A compile may run on a CompilerThread, whose loop must not unwind;
    // the failure reaches every request through the slot.
    fn = Status::Internal(std::string("compile failed: ") + e.what());
  }
  Finish(source, slot, std::move(fn), seconds);
  return seconds;
}

void CodeCache::Finish(const std::string& source,
                       const std::shared_ptr<CodeSlot>& slot,
                       Result<void*> result, double seconds) {
  if (!result.ok()) {
    // Keep no failure: the next request for this source starts afresh.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(source);
    if (it != slots_.end() && it->second == slot) slots_.erase(it);
  }
  slot->Finish(std::move(result), seconds);
}

}  // namespace avm::jit
