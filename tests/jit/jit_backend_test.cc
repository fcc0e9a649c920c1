// Unit tests for the JIT compile path: tier resolution, host-compiler
// availability, artifact compilation/memoization, version hashing, scratch
// file cleanup, and the process-global ArtifactLoader.
#include "jit/jit_backend.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace avm::jit {
namespace {

/// RAII guard that sets an environment variable for one test and restores
/// the previous value (or unsets) on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

/// Entries currently in the process's JIT scratch directory.
size_t ScratchEntries() {
  std::filesystem::directory_iterator it(JitScratchDir());
  return static_cast<size_t>(std::distance(begin(it), end(it)));
}

TEST(JitBackendTest, HostCompilerAvailableInBuildEnvironment) {
  // The build environment compiled this test, so a compiler must exist.
  EXPECT_TRUE(HostCompilerAvailable());
}

TEST(JitBackendTest, TierAndPolicyNames) {
  EXPECT_STREQ(TierName(JitTier::kFast), "fast");
  EXPECT_STREQ(TierName(JitTier::kOptimized), "opt");
  EXPECT_STREQ(TierPolicyName(TierPolicy::kTiered), "tiered");
  EXPECT_STREQ(TierPolicyName(TierPolicy::kFastOnly), "fast");
  EXPECT_STREQ(TierPolicyName(TierPolicy::kOptimizedOnly), "opt");
}

TEST(JitBackendTest, ResolveTierPolicyReadsEnv) {
  {
    ScopedEnv env("AVM_JIT_TIER", nullptr);
    EXPECT_EQ(ResolveTierPolicy(TierPolicy::kDefault), TierPolicy::kTiered);
  }
  {
    ScopedEnv env("AVM_JIT_TIER", "fast");
    EXPECT_EQ(ResolveTierPolicy(TierPolicy::kDefault), TierPolicy::kFastOnly);
  }
  {
    ScopedEnv env("AVM_JIT_TIER", "opt");
    EXPECT_EQ(ResolveTierPolicy(TierPolicy::kDefault),
              TierPolicy::kOptimizedOnly);
  }
  {
    ScopedEnv env("AVM_JIT_TIER", "tiered");
    EXPECT_EQ(ResolveTierPolicy(TierPolicy::kDefault), TierPolicy::kTiered);
  }
  // Explicit policies pass through untouched regardless of the env.
  {
    ScopedEnv env("AVM_JIT_TIER", "fast");
    EXPECT_EQ(ResolveTierPolicy(TierPolicy::kOptimizedOnly),
              TierPolicy::kOptimizedOnly);
    EXPECT_EQ(ResolveTierPolicy(TierPolicy::kTiered), TierPolicy::kTiered);
  }
}

TEST(JitBackendTest, BackendForTierDispatch) {
  EXPECT_EQ(BackendForTier(JitTier::kFast).tier(), JitTier::kFast);
  EXPECT_EQ(BackendForTier(JitTier::kOptimized).tier(), JitTier::kOptimized);
  EXPECT_STREQ(BackendForTier(JitTier::kFast).name(), "cc-o0");
  EXPECT_STREQ(BackendForTier(JitTier::kOptimized).name(), "cc-o2");
}

TEST(JitBackendTest, VersionHashDistinguishesTiers) {
  // The two tiers compile with different flag sets, so their artifacts must
  // never satisfy each other's disk-cache lookups.
  EXPECT_NE(BackendForTier(JitTier::kFast).version_hash(),
            BackendForTier(JitTier::kOptimized).version_hash());
  // Stable within a process: the hash is part of on-disk filenames.
  EXPECT_EQ(BackendForTier(JitTier::kFast).version_hash(),
            BackendForTier(JitTier::kFast).version_hash());
}

TEST(JitBackendTest, CompileProducesLoadableArtifact) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CcBackend& backend = BackendForTier(JitTier::kFast);
  const std::string source =
      "extern \"C\" long long avm_backend_probe(long long x) {"
      " return x * 3 + 7; }";
  double seconds = -1;
  auto artifact = backend.Compile(source, "avm_backend_probe", &seconds);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_FALSE(artifact.value().bytes.empty());
  EXPECT_EQ(artifact.value().tier, JitTier::kFast);
  EXPECT_GT(seconds, 0.0);

  auto sym =
      ArtifactLoader::Global().Load(artifact.value(), "avm_backend_probe");
  ASSERT_TRUE(sym.ok()) << sym.status().ToString();
  auto fn = reinterpret_cast<long long (*)(long long)>(sym.value());
  EXPECT_EQ(fn(5), 22);
  EXPECT_EQ(fn(-1), 4);
}

TEST(JitBackendTest, CompileMemoizesIdenticalSources) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CcBackend& backend = BackendForTier(JitTier::kOptimized);
  const std::string source =
      "extern \"C\" long long avm_backend_memo(long long x) {"
      " return x - 9; }";
  auto first = backend.Compile(source, "avm_backend_memo", nullptr);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  double seconds = -1;
  auto second = backend.Compile(source, "avm_backend_memo", &seconds);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Memo hit: identical bytes, no compiler invocation charged.
  EXPECT_EQ(second.value().bytes, first.value().bytes);
  EXPECT_EQ(seconds, 0.0);
  EXPECT_EQ(second.value().tier, JitTier::kOptimized);
}

TEST(JitBackendTest, CompileFailureCarriesCompilerLog) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  auto artifact = BackendForTier(JitTier::kFast).Compile(
      "this is not C++ at all;", "nope", nullptr);
  ASSERT_FALSE(artifact.ok());
  EXPECT_TRUE(artifact.status().IsCompilationError());
  // The status must carry the compiler's diagnostics, not just "failed".
  EXPECT_NE(artifact.status().ToString().find("error"), std::string::npos)
      << artifact.status().ToString();
}

TEST(JitBackendTest, CompileLeavesNoScratchFiles) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CcBackend& backend = BackendForTier(JitTier::kFast);
  const size_t before = ScratchEntries();
  // A compiler error must not leave its .cc/.log behind.
  ASSERT_FALSE(backend.Compile("this is not C++;", "nope", nullptr).ok());
  EXPECT_EQ(ScratchEntries(), before);
  const std::string source =
      "extern \"C\" int avm_scratch_probe() { return 1; }";
  ASSERT_TRUE(backend.Compile(source, "avm_scratch_probe", nullptr).ok());
  EXPECT_EQ(ScratchEntries(), before);
}

TEST(JitBackendTest, LoaderRejectsEmptyArtifact) {
  JitArtifact empty;
  auto sym = ArtifactLoader::Global().Load(empty, "whatever");
  EXPECT_FALSE(sym.ok());
}

TEST(JitBackendTest, LoaderRejectsMissingSymbol) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  auto artifact = BackendForTier(JitTier::kFast).Compile(
      "extern \"C\" void avm_something_else() {}\n", "wrong_name", nullptr);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  auto sym = ArtifactLoader::Global().Load(artifact.value(), "wrong_name");
  ASSERT_FALSE(sym.ok());
  EXPECT_TRUE(sym.status().IsCompilationError());
}

TEST(JitBackendTest, BackendMemoBoundedByEntryCountWithEviction) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  // Private backend with a tiny memo: churning distinct traces past the
  // cap must evict oldest-first and keep compiling correctly.
  CcBackend backend("cc-test", JitTier::kFast, "-O0",
                    /*memo_max_entries=*/3);
  auto source_for = [](int i) {
    return StrFormat(
        "extern \"C\" long long avm_churn_%d(long long x) {"
        " return x + %d; }",
        i, i);
  };
  for (int i = 0; i < 8; ++i) {
    auto a = backend.Compile(source_for(i), StrFormat("avm_churn_%d", i),
                             nullptr);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_LE(backend.memo_entries(), 3u) << "after compile " << i;
  }
  EXPECT_EQ(backend.memo_entries(), 3u);

  // The oldest source was evicted: recompiling it invokes the compiler
  // again (nonzero wall time) and still yields a working artifact.
  double seconds = -1;
  auto again = backend.Compile(source_for(0), "avm_churn_0", &seconds);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_GT(seconds, 0.0) << "evicted entry should have recompiled";
  auto sym = ArtifactLoader::Global().Load(again.value(), "avm_churn_0");
  ASSERT_TRUE(sym.ok()) << sym.status().ToString();
  EXPECT_EQ(reinterpret_cast<long long (*)(long long)>(sym.value())(10), 10);

  // The newest survivor is still a memo hit (zero compile time).
  seconds = -1;
  ASSERT_TRUE(backend.Compile(source_for(7), "avm_churn_7", &seconds).ok());
  EXPECT_EQ(seconds, 0.0);
}

TEST(JitBackendTest, BackendMemoBoundedByTotalBytes) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  // A 1-byte cap means no artifact is ever retained — every compile evicts
  // itself — yet compilation keeps working.
  CcBackend backend("cc-test-bytes", JitTier::kFast, "-O0",
                    /*memo_max_entries=*/64, /*memo_max_bytes=*/1);
  const std::string source =
      "extern \"C\" long long avm_bytecap(long long x) { return x; }";
  for (int rep = 0; rep < 2; ++rep) {
    double seconds = -1;
    auto a = backend.Compile(source, "avm_bytecap", &seconds);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_GT(seconds, 0.0) << "rep " << rep;  // never a memo hit
    EXPECT_EQ(backend.memo_entries(), 0u);
    EXPECT_EQ(backend.memo_bytes(), 0u);
  }
}

TEST(JitBackendTest, LoaderMemoBoundedWithReloadAfterEviction) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CcBackend& backend = BackendForTier(JitTier::kFast);
  ArtifactLoader loader(/*memo_limit=*/2);
  std::vector<JitArtifact> artifacts;
  std::vector<std::string> symbols;
  for (int i = 0; i < 4; ++i) {
    symbols.push_back(StrFormat("avm_loader_churn_%d", i));
    auto a = backend.Compile(
        StrFormat("extern \"C\" long long %s(long long x) {"
                  " return x * %d; }",
                  symbols.back().c_str(), i + 2),
        symbols.back(), nullptr);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    artifacts.push_back(std::move(a.value()));
    auto sym = loader.Load(artifacts.back(), symbols.back());
    ASSERT_TRUE(sym.ok()) << sym.status().ToString();
    EXPECT_LE(loader.memo_entries(), 2u) << "after load " << i;
  }
  EXPECT_EQ(loader.memo_entries(), 2u);
  // Artifact 0 was evicted from the memo; re-loading dlopens a fresh copy
  // that must still resolve and run.
  auto sym = loader.Load(artifacts[0], symbols[0]);
  ASSERT_TRUE(sym.ok()) << sym.status().ToString();
  EXPECT_EQ(reinterpret_cast<long long (*)(long long)>(sym.value())(21), 42);
}

TEST(JitBackendTest, LoaderMemoizesByBytesAndSymbol) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CcBackend& backend = BackendForTier(JitTier::kFast);
  const std::string source =
      "extern \"C\" long long avm_loader_memo(long long x) {"
      " return x + 1; }";
  auto artifact = backend.Compile(source, "avm_loader_memo", nullptr);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  auto a = ArtifactLoader::Global().Load(artifact.value(), "avm_loader_memo");
  auto b = ArtifactLoader::Global().Load(artifact.value(), "avm_loader_memo");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same bytes + same symbol map to one loaded instance.
  EXPECT_EQ(a.value(), b.value());
}

}  // namespace
}  // namespace avm::jit
