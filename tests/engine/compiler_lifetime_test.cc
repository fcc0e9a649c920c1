// Every host-compiler process a query starts has exited by the time its
// Session is destroyed: the JIT compiles on the query's own workers and
// starts no background compile that could outlive the Session (or write
// into the JIT scratch directory after process exit has removed it). The
// test has a binary of its own so that its compiles cannot be served from
// a compiler memo warmed by an earlier test of the same process.
#include <dirent.h>
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "engine/session.h"
#include "jit/jit_backend.h"
#include "relational/q1.h"
#include "storage/datagen.h"

namespace avm::engine {
namespace {

/// True when a thread of this process has a child process, read from
/// /proc/self/task/*/children.
bool HasChildProcesses() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return false;
  bool any = false;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream f(std::string("/proc/self/task/") + e->d_name +
                    "/children");
    std::string pid;
    if (f >> pid) {
      any = true;
      break;
    }
  }
  ::closedir(dir);
  return any;
}

TEST(CompilerLifetimeTest, NoCompilerProcessOutlivesItsSession) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  // 16 morsels of 8 chunks at 4 workers: 128 invocations of Q1's trace,
  // past the 32 after which a trace used to be recompiled in the
  // background.
  LineitemSpec spec;
  spec.num_rows = 16 * 8 * 1024;
  std::unique_ptr<Table> lineitem = MakeLineitem(spec);
  const relational::Q1Result oracle =
      relational::RunQ1Scalar(*lineitem).ValueOrDie();
  {
    Session session({.num_workers = 4});
    QueryOptions qo;
    qo.strategy = ExecutionStrategy::kAdaptiveJit;
    Query q = relational::MakeQ1Query(*lineitem).ValueOrDie();
    auto r = session.Run(q.context(), qo);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(relational::Q1ResultFromQuery(q), oracle);
    EXPECT_EQ(r.value().morsels, 16u);
    EXPECT_GT(r.value().injection_runs, 32u);
  }
  EXPECT_FALSE(HasChildProcesses());
  EXPECT_TRUE(std::filesystem::is_empty(jit::JitScratchDir()))
      << jit::JitScratchDir();
}

}  // namespace
}  // namespace avm::engine
