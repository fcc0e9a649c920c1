#include "jit/jit_backend.h"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "jit/trace_abi.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace avm::jit {

namespace {

pid_t scratch_dir_owner = 0;  ///< process that created JitScratchDir()

// atexit handler of the process that created the scratch directory: rename
// it away first, so a compiler still running for an abandoned tier upgrade
// cannot create files under the old path (its write fails and the upgrade
// is dropped), then delete it. A forked child (a death-test child, say)
// inherits the handler but not the directory, and skips it.
void RemoveScratchDirAtExit() {
  const std::string& dir = JitScratchDir();
  if (::getpid() != scratch_dir_owner) return;
  const std::string doomed = dir + ".exit";
  if (std::rename(dir.c_str(), doomed.c_str()) != 0) return;  // already gone
  std::error_code ec;
  std::filesystem::remove_all(doomed, ec);
}

}  // namespace

// Leaked (like every static in this TU) so detached tier-upgrade threads
// can still compile while the process is shutting down.
const std::string& JitScratchDir() {
  static const std::string* dir = [] {
    const char* env = std::getenv("TMPDIR");
    std::string base = env != nullptr && *env != '\0' ? env : "/tmp";
    while (base.size() > 1 && base.back() == '/') base.pop_back();
    std::string tmpl = base + "/avm_jit_XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) return new std::string(base);
    scratch_dir_owner = ::getpid();
    std::atexit(RemoveScratchDirAtExit);
    return new std::string(tmpl);
  }();
  return *dir;
}

namespace {

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::CompilationError("cannot read " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

}  // namespace

const char* TierName(JitTier t) {
  return t == JitTier::kFast ? "fast" : "opt";
}

const char* TierPolicyName(TierPolicy p) {
  switch (p) {
    case TierPolicy::kFastOnly:
      return "fast";
    case TierPolicy::kOptimizedOnly:
      return "opt";
    default:
      return "tiered";
  }
}

TierPolicy ResolveTierPolicy(TierPolicy p) {
  if (p != TierPolicy::kDefault) return p;
  const char* env = std::getenv("AVM_JIT_TIER");
  if (env != nullptr) {
    const std::string v(env);
    if (v == "fast") return TierPolicy::kFastOnly;
    if (v == "opt") return TierPolicy::kOptimizedOnly;
  }
  return TierPolicy::kTiered;
}

CcBackend& BackendForTier(JitTier tier) {
  static CcBackend* fast = new CcBackend("cc-o0", JitTier::kFast, "-O0");
  static CcBackend* optimized =
      new CcBackend("cc-o2", JitTier::kOptimized, "-O2 -march=native");
  return tier == JitTier::kFast ? *fast : *optimized;
}

namespace {

// Path of the host C++ compiler: AVM_CXX if set, else the first of
// c++/g++/clang++ on PATH; empty when none is found.
const std::string& HostCompilerPath() {
  static const std::string* compiler = [] {
    const char* env = std::getenv("AVM_CXX");
    if (env != nullptr && *env != '\0') return new std::string(env);
    for (const char* c : {"c++", "g++", "clang++"}) {
      std::string cmd = StrFormat("command -v %s > /dev/null 2>&1", c);
      if (std::system(cmd.c_str()) == 0) return new std::string(c);
    }
    return new std::string();
  }();
  return *compiler;
}

// Identity line of the host compiler (`<path> --version`, first line).
// Folded into every backend's version_hash so artifacts produced by a
// different compiler (or version) never load from the disk cache.
const std::string& HostCompilerIdentity() {
  static const std::string* identity = [] {
    const std::string& cc = HostCompilerPath();
    if (cc.empty()) return new std::string("<none>");
    std::string line = cc;
    const std::string cmd = StrFormat("%s --version 2> /dev/null", cc.c_str());
    if (FILE* pipe = popen(cmd.c_str(), "r")) {
      char buf[256];
      if (std::fgets(buf, sizeof buf, pipe) != nullptr) {
        line += " ";
        line += buf;
        while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
          line.pop_back();
        }
      }
      pclose(pipe);
    }
    return new std::string(std::move(line));
  }();
  return *identity;
}

// Write `source` to <base>.cc, compile it into <base>.so with the
// compiler's output in <base>.log, and read the shared object back. The
// caller removes the three files.
Result<std::vector<uint8_t>> RunCompiler(const std::string& cc,
                                         const std::string& source,
                                         const std::string& flags,
                                         const std::string& base) {
  const std::string src_path = base + ".cc";
  const std::string so_path = base + ".so";
  const std::string log_path = base + ".log";
  {
    std::ofstream f(src_path);
    if (!f) return Status::CompilationError("cannot write " + src_path);
    f << source;
  }
  const std::string cmd = StrFormat(
      "%s %s -std=c++17 -shared -fPIC %s -o %s > %s 2>&1", cc.c_str(),
      flags.c_str(), src_path.c_str(), so_path.c_str(), log_path.c_str());
  if (std::system(cmd.c_str()) != 0) {
    std::string log;
    std::ifstream lf(log_path);
    std::string line;
    while (std::getline(lf, line) && log.size() < 4000) log += line + "\n";
    return Status::CompilationError("compile failed:\n" + log);
  }
  return ReadFileBytes(so_path);
}

// Invoke the host compiler on `source` with `flags` and return the bytes
// of the produced shared object. `compile_seconds`, when non-null,
// receives the wall time of the compiler invocation.
Result<std::vector<uint8_t>> CcCompileToBytes(const std::string& source,
                                              const std::string& flags,
                                              double* compile_seconds) {
  const std::string& cc = HostCompilerPath();
  if (cc.empty()) {
    return Status::CompilationError("no host compiler available");
  }
  Stopwatch sw;
  // The content hash makes scratch names readable in the scratch dir; the
  // sequence number makes them unique. Hashing alone is not enough: two
  // threads compiling the SAME source concurrently (upgrade threads of two
  // engines sharing one process) would share paths, and whoever finishes
  // first would delete the .so out from under the other.
  static std::atomic<uint64_t> invocation_seq{0};
  const uint64_t key = HashCombine(HashString(source), HashString(flags));
  const std::string base =
      StrFormat("%s/t%016llx_%llu", JitScratchDir().c_str(),
                (unsigned long long)key,
                (unsigned long long)invocation_seq.fetch_add(1));
  Result<std::vector<uint8_t>> bytes = RunCompiler(cc, source, flags, base);
  // Failed compiles included: nothing stays in the scratch dir.
  for (const char* ext : {".cc", ".so", ".log"}) {
    std::remove((base + ext).c_str());
  }
  if (bytes.ok() && compile_seconds != nullptr) {
    *compile_seconds = sw.ElapsedSeconds();
  }
  return bytes;
}

}  // namespace

bool HostCompilerAvailable() { return !HostCompilerPath().empty(); }

CcBackend::CcBackend(const char* name, JitTier tier, std::string flags,
                     size_t memo_max_entries, size_t memo_max_bytes)
    : name_(name),
      tier_(tier),
      flags_(std::move(flags)),
      memo_max_entries_(std::max<size_t>(memo_max_entries, 1)),
      memo_max_bytes_(memo_max_bytes) {
  version_hash_ = HashCombine(
      HashCombine(HashInt64(kTraceAbiVersion), HashString(flags_)),
      HashString(HostCompilerIdentity()));
}

size_t CcBackend::memo_entries() {
  std::lock_guard<std::mutex> lock(mu_);
  return memo_.size();
}

size_t CcBackend::memo_bytes() {
  std::lock_guard<std::mutex> lock(mu_);
  return memo_bytes_;
}

Result<JitArtifact> CcBackend::Compile(const std::string& source,
                                       const std::string& symbol,
                                       double* compile_seconds) {
  if (compile_seconds != nullptr) *compile_seconds = 0;
  const uint64_t key = HashCombine(HashString(source), HashString(symbol));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
  }
  AVM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       CcCompileToBytes(source, flags_, compile_seconds));
  JitArtifact artifact{std::move(bytes), tier_};
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (memo_.emplace(key, artifact).second) {
      fifo_.push_back(key);
      memo_bytes_ += artifact.bytes.size();
      // Bounded memo: evict oldest-first until both the entry-count and
      // total-bytes caps hold again. An artifact larger than the byte cap
      // drains the memo entirely, itself included — it is simply never
      // cached.
      while (!fifo_.empty() && (memo_.size() > memo_max_entries_ ||
                                memo_bytes_ > memo_max_bytes_)) {
        auto victim = memo_.find(fifo_.front());
        fifo_.pop_front();
        if (victim != memo_.end()) {
          memo_bytes_ -= victim->second.bytes.size();
          memo_.erase(victim);
        }
      }
    }
  }
  AVM_LOG(kDebug) << name_ << " compiled " << symbol << " ("
                  << artifact.bytes.size() << " bytes)";
  return artifact;
}

ArtifactLoader::ArtifactLoader(size_t memo_limit)
    : dir_(JitScratchDir()), memo_limit_(std::max<size_t>(memo_limit, 1)) {}

size_t ArtifactLoader::memo_entries() {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

ArtifactLoader& ArtifactLoader::Global() {
  static ArtifactLoader* loader = new ArtifactLoader();
  return *loader;
}

Result<void*> ArtifactLoader::Load(const JitArtifact& artifact,
                                   const std::string& symbol) {
  if (artifact.bytes.empty()) {
    return Status::CompilationError("empty artifact for " + symbol);
  }
  const uint64_t key =
      HashCombine(HashBytes(artifact.bytes.data(), artifact.bytes.size()),
                  HashString(symbol));
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    seq = seq_++;
  }
  // dlopen needs a file path; materialize the bytes in the private scratch
  // dir. The sequence number keeps concurrent loads of the same artifact
  // from racing on one path (both land in cache_; one handle is redundant
  // but harmless for the process lifetime).
  const std::string so_path =
      StrFormat("%s/l%016llx_%llu.so", dir_.c_str(), (unsigned long long)key,
                (unsigned long long)seq);
  {
    std::ofstream f(so_path, std::ios::binary);
    if (!f) return Status::CompilationError("cannot write " + so_path);
    f.write(reinterpret_cast<const char*>(artifact.bytes.data()),
            static_cast<std::streamsize>(artifact.bytes.size()));
  }
  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  std::remove(so_path.c_str());
  if (handle == nullptr) {
    return Status::CompilationError(StrFormat("dlopen: %s", dlerror()));
  }
  void* sym = dlsym(handle, symbol.c_str());
  if (sym == nullptr) {
    dlclose(handle);
    return Status::CompilationError("symbol not found: " + symbol);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    handles_.push_back(handle);
    if (cache_.emplace(key, sym).second) {
      fifo_.push_back(key);
      // Bounded memo: drop the oldest entries. Their handles stay mapped
      // (pointers already handed out must survive); re-loading an evicted
      // artifact just dlopens a fresh copy.
      while (cache_.size() > memo_limit_ && !fifo_.empty()) {
        cache_.erase(fifo_.front());
        fifo_.pop_front();
      }
    }
  }
  return sym;
}

}  // namespace avm::jit
