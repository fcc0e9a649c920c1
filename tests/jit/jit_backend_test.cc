// Unit tests for the JIT's compile and load steps: host-compiler
// availability, artifact compilation, scratch file cleanup, and loading.
#include "jit/jit_backend.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <string>

namespace avm::jit {
namespace {

/// Entries currently in the process's JIT scratch directory.
size_t ScratchEntries() {
  std::filesystem::directory_iterator it(JitScratchDir());
  return static_cast<size_t>(std::distance(begin(it), end(it)));
}

TEST(JitBackendTest, HostCompilerAvailableInBuildEnvironment) {
  // The build environment compiled this test, so a compiler must exist.
  EXPECT_TRUE(HostCompilerAvailable());
}

TEST(JitBackendTest, CompileProducesLoadableArtifact) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  const std::string source =
      "extern \"C\" long long avm_backend_probe(long long x) {"
      " return x * 3 + 7; }";
  double seconds = -1;
  auto artifact = CompileArtifact(source, &seconds);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_FALSE(artifact.value().bytes.empty());
  EXPECT_GT(seconds, 0.0);

  auto sym = LoadArtifact(artifact.value(), "avm_backend_probe");
  ASSERT_TRUE(sym.ok()) << sym.status().ToString();
  auto fn = reinterpret_cast<long long (*)(long long)>(sym.value());
  EXPECT_EQ(fn(5), 22);
  EXPECT_EQ(fn(-1), 4);
}

TEST(JitBackendTest, CompileFailureCarriesCompilerLog) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  auto artifact = CompileArtifact("this is not C++ at all;");
  ASSERT_FALSE(artifact.ok());
  EXPECT_TRUE(artifact.status().IsCompilationError());
  // The status must carry the compiler's diagnostics, not just "failed".
  EXPECT_NE(artifact.status().ToString().find("error"), std::string::npos)
      << artifact.status().ToString();
}

TEST(JitBackendTest, CompileLeavesNoScratchFiles) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  const size_t before = ScratchEntries();
  // A compiler error must not leave its .cc/.log behind.
  ASSERT_FALSE(CompileArtifact("this is not C++;").ok());
  EXPECT_EQ(ScratchEntries(), before);
  const std::string source =
      "extern \"C\" int avm_scratch_probe() { return 1; }";
  ASSERT_TRUE(CompileArtifact(source).ok());
  EXPECT_EQ(ScratchEntries(), before);
}

TEST(JitBackendTest, LoaderRejectsEmptyArtifact) {
  JitArtifact empty;
  auto sym = LoadArtifact(empty, "whatever");
  EXPECT_FALSE(sym.ok());
}

TEST(JitBackendTest, LoaderRejectsMissingSymbol) {
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  auto artifact = CompileArtifact("extern \"C\" void avm_something_else() {}\n");
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  auto sym = LoadArtifact(artifact.value(), "wrong_name");
  ASSERT_FALSE(sym.ok());
  EXPECT_TRUE(sym.status().IsCompilationError());
}

}  // namespace
}  // namespace avm::jit
