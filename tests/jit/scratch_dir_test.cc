// The JIT scratch directory must honor TMPDIR (fallback /tmp) and be
// removed at process exit. This lives in its own test binary: the scratch
// dir is a lazily-initialized process-wide static, so TMPDIR has to be set
// before ANY JIT activity — impossible to guarantee inside the shared
// jit_backend_test binary.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "jit/jit_backend.h"
#include "tests/temp_dir.h"

namespace avm::jit {
namespace {

// Death-test suites run first, so the child below is the process that
// creates the scratch directory (this process has not touched the JIT).
TEST(ScratchDirDeathTest, RemovedAtNormalExit) {
  TempDir base("avm_scratch_base");
  EXPECT_EXIT(
      {
        ::setenv("TMPDIR", base.path().c_str(), 1);
        std::ofstream(JitScratchDir() + "/leftover.so") << "artifact";
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_TRUE(std::filesystem::is_empty(base.path()))
      << "the exited process left its scratch directory under "
      << base.path();
}

TEST(ScratchDirTest, HonorsTmpdirAtFirstUse) {
  // Point TMPDIR at a private directory before the first JitScratchDir()
  // call of this process (trailing slash on purpose: it must be handled).
  TempDir tmp("avm_scratch_base");
  const std::string& base = tmp.path();
  ASSERT_EQ(::setenv("TMPDIR", (base + "/").c_str(), 1), 0);

  const std::string& dir = JitScratchDir();
  EXPECT_EQ(dir.rfind(base + "/avm_jit_", 0), 0u)
      << "scratch dir " << dir << " not under TMPDIR " << base;

  struct stat st {};
  ASSERT_EQ(::stat(dir.c_str(), &st), 0) << dir;
  EXPECT_TRUE(S_ISDIR(st.st_mode));

  // Memoized: later TMPDIR changes do not move the scratch dir.
  ASSERT_EQ(::setenv("TMPDIR", "/tmp", 1), 0);
  EXPECT_EQ(&JitScratchDir(), &dir);
  EXPECT_EQ(JitScratchDir(), dir);

  // The whole pipeline — compile scratch files, artifact materialization
  // for dlopen — works out of the redirected directory.
  if (!HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  const std::string source =
      "extern \"C\" long long avm_tmpdir_probe(long long x) {"
      " return x * 2 + 1; }";
  auto artifact = CompileArtifact(source);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  auto sym = LoadArtifact(artifact.value(), "avm_tmpdir_probe");
  ASSERT_TRUE(sym.ok()) << sym.status().ToString();
  auto fn = reinterpret_cast<long long (*)(long long)>(sym.value());
  EXPECT_EQ(fn(20), 41);
}

}  // namespace
}  // namespace avm::jit
