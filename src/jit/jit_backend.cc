#include "jit/jit_backend.h"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "jit/trace_abi.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace avm::jit {

namespace {

pid_t scratch_dir_owner = 0;  ///< process that created JitScratchDir()

// atexit handler of the process that created the scratch directory: rename
// it away first, so a compiler that a live Session's compiler thread is
// still running when exit() is called cannot create files under the old
// path (its write fails, and so does that compile), then delete it. A forked
// child (a death-test child, say) inherits the handler but not the
// directory, and skips it.
void RemoveScratchDirAtExit() {
  const std::string& dir = JitScratchDir();
  if (::getpid() != scratch_dir_owner) return;
  const std::string doomed = dir + ".exit";
  if (std::rename(dir.c_str(), doomed.c_str()) != 0) return;  // already gone
  std::error_code ec;
  std::filesystem::remove_all(doomed, ec);
}

}  // namespace

// Leaked (like every static in this TU): a Session's worker may still be
// compiling or loading while exit() runs static destructors.
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

namespace {

// Whether a directory of $PATH holds an executable regular file `name`,
// the search a shell makes to run it (an empty entry is the current
// directory; an unset PATH searches the C library's default, /bin:/usr/bin).
bool OnPath(const std::string& name) {
  const char* env = std::getenv("PATH");
  std::string_view dirs = env != nullptr ? env : "/bin:/usr/bin";
  while (true) {
    const size_t colon = dirs.find(':');
    const std::string_view dir = dirs.substr(0, colon);
    const std::string file =
        (dir.empty() ? std::string(".") : std::string(dir)) + "/" + name;
    struct stat st{};
    if (::stat(file.c_str(), &st) == 0 && S_ISREG(st.st_mode) &&
        ::access(file.c_str(), X_OK) == 0) {
      return true;
    }
    if (colon == std::string_view::npos) return false;
    dirs.remove_prefix(colon + 1);
  }
}

// Name of the host C++ compiler: AVM_CXX if set, else the first of
// c++/g++/clang++ on PATH; empty when none is found. Compile commands run
// it by this name through the shell.
const std::string& HostCompilerPath() {
  static const std::string* compiler = [] {
    const char* env = std::getenv("AVM_CXX");
    if (env != nullptr && *env != '\0') return new std::string(env);
    for (const char* c : {"c++", "g++", "clang++"}) {
      if (OnPath(c)) return new std::string(c);
    }
    return new std::string();
  }();
  return *compiler;
}

// Identity line of the host compiler (`<path> --version`, first line),
// folded into CompilerVersionHash.
std::string HostCompilerIdentity() {
  const std::string& cc = HostCompilerPath();
  if (cc.empty()) return "<none>";
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
  return line;
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

constexpr char kCompileFlags[] = "-O2 -march=native";

}  // namespace

bool HostCompilerAvailable() { return !HostCompilerPath().empty(); }

Result<JitArtifact> CompileArtifact(const std::string& source,
                                    double* compile_seconds) {
  const std::string& cc = HostCompilerPath();
  if (cc.empty()) {
    return Status::CompilationError("no host compiler available");
  }
  Stopwatch sw;
  // The content hash makes scratch names readable in the scratch dir; the
  // sequence number makes them unique, so two threads compiling one source
  // never share (and delete) each other's files.
  static std::atomic<uint64_t> invocation_seq{0};
  const std::string base =
      StrFormat("%s/t%016llx_%llu", JitScratchDir().c_str(),
                (unsigned long long)HashString(source),
                (unsigned long long)invocation_seq.fetch_add(1));
  Result<std::vector<uint8_t>> bytes =
      RunCompiler(cc, source, kCompileFlags, base);
  // Failed compiles included: nothing stays in the scratch dir.
  for (const char* ext : {".cc", ".so", ".log"}) {
    std::remove((base + ext).c_str());
  }
  AVM_RETURN_NOT_OK(bytes.status());
  const double seconds = sw.ElapsedSeconds();
  if (compile_seconds != nullptr) *compile_seconds = seconds;
  AVM_LOG(kDebug) << "compiled " << bytes.value().size() << " bytes in "
                  << seconds << " s";
  return JitArtifact{std::move(bytes).value()};
}

Result<void*> LoadArtifact(const JitArtifact& artifact,
                           const std::string& symbol) {
  if (artifact.bytes.empty()) {
    return Status::CompilationError("empty artifact for " + symbol);
  }
  // dlopen needs a file path; materialize the bytes in the private scratch
  // dir under a name no concurrent load shares.
  static std::atomic<uint64_t> load_seq{0};
  const std::string so_path =
      StrFormat("%s/l%016llx_%llu.so", JitScratchDir().c_str(),
                (unsigned long long)HashBytes(artifact.bytes.data(),
                                              artifact.bytes.size()),
                (unsigned long long)load_seq.fetch_add(1));
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
  return sym;
}

uint64_t CompilerVersionHash() {
  static const uint64_t hash =
      HashCombine(HashCombine(HashInt64(kTraceAbiVersion),
                              HashString(kCompileFlags)),
                  HashString(HostCompilerIdentity()));
  return hash;
}

}  // namespace avm::jit
