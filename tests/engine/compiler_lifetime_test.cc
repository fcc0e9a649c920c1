// The compiler-thread boundary. A Session compiles on one thread of its
// own while its queries keep interpreting: no morsel waits for a compiler
// run, a cancelled query does not wait for its pending compile, and the
// Session's destructor finishes every queued compile and joins the thread,
// so no compiler process outlives its Session and no compile writes into
// the JIT scratch directory after process exit removed it. A failure that
// lands after its query finished leaves nothing behind and is not cached.
//
// CMakeLists.txt runs this binary with AVM_CXX set to tests/jit/
// slow_cxx.sh, which sleeps $SLOW_CXX_MS milliseconds before running the
// compiler $SLOW_CXX; each test sets both before it starts a Session. The
// binary has its own process, so its compiles cannot be served from a
// code cache (jit::CodeCache) that an earlier test warmed, and it ignores
// AVM_TRACE_CACHE_DIR so that no compile is served from disk either.
#include <dirent.h>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "engine/session.h"
#include "jit/jit_backend.h"
#include "relational/q1.h"
#include "storage/datagen.h"
#include "tests/wait_for_compiles.h"
#include "util/timer.h"

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

/// Points the slow compiler wrapper at `compiler`, sleeping `ms` before
/// each run. Called while no Session runs: workers read the environment.
void SlowCompiler(int ms, const char* compiler = nullptr) {
  static const std::string real = [] {
    const char* c = std::getenv("SLOW_CXX");
    return std::string(c != nullptr ? c : "c++");
  }();
  ASSERT_EQ(::setenv("SLOW_CXX_MS", std::to_string(ms).c_str(), 1), 0);
  ASSERT_EQ(::setenv("SLOW_CXX", compiler != nullptr ? compiler : real.c_str(),
                     1),
            0);
}

class CompilerLifetimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cxx = std::getenv("AVM_CXX");
    ASSERT_NE(cxx, nullptr) << "run through ctest, which sets AVM_CXX";
    ASSERT_NE(std::string(cxx).find("slow_cxx.sh"), std::string::npos) << cxx;
    ASSERT_EQ(::unsetenv("AVM_TRACE_CACHE_DIR"), 0);
    ASSERT_TRUE(jit::HostCompilerAvailable());
  }

  /// Nothing compiles any more, and the compiles left nothing behind.
  void ExpectNothingLeft() {
    EXPECT_FALSE(HasChildProcesses());
    EXPECT_TRUE(std::filesystem::is_empty(jit::JitScratchDir()))
        << jit::JitScratchDir();
  }
};

dsl::Program Checked(dsl::Program p) {
  dsl::TypeCheck(&p).Abort("type check");
  return p;
}

/// A map query `out = src * mul + add` over `n` rows.
struct MapQuery {
  MapQuery(int64_t mul, int64_t add, int64_t n)
      : src(DataGen(static_cast<uint64_t>(mul)).UniformI64(n, -1000, 1000)),
        out(static_cast<size_t>(n), 0),
        ctx(Checked(dsl::MakeMapPipeline(
            TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(mul) +
                                                 dsl::ConstI(add))))),
        mul(mul),
        add(add) {
    ctx.BindInput("src",
                  interp::DataBinding::Raw(TypeId::kI64, src.data(), n));
    ctx.BindOutput(
        "out", interp::DataBinding::Raw(TypeId::kI64, out.data(), n, true));
  }
  bool RowsOk() const {
    for (size_t i = 0; i < src.size(); ++i) {
      if (out[i] != src[i] * mul + add) return false;
    }
    return true;
  }

  std::vector<int64_t> src;
  std::vector<int64_t> out;
  ExecContext ctx;
  int64_t mul;
  int64_t add;
};

QueryOptions Jit() {
  QueryOptions qo;
  qo.strategy = ExecutionStrategy::kAdaptiveJit;
  qo.vm.optimize_after_iterations = 2;
  return qo;
}

// A 4-worker Q1 whose one compile sleeps 2 s returns the oracle's groups
// long before the compile lands: every morsel interprets.
TEST_F(CompilerLifetimeTest, NoMorselWaitsForTheCompiler) {
  SlowCompiler(2000);
  LineitemSpec spec;
  spec.num_rows = 16 * 8 * 1024;
  std::unique_ptr<Table> lineitem = MakeLineitem(spec);
  const relational::Q1Result oracle =
      relational::RunQ1Scalar(*lineitem).ValueOrDie();
  Session session({.num_workers = 4});
  Query q = relational::MakeQ1Query(*lineitem).ValueOrDie();
  Stopwatch sw;
  auto r = session.Run(q.context(), Jit());
  const double seconds = sw.ElapsedSeconds();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(relational::Q1ResultFromQuery(q), oracle);
  EXPECT_EQ(r.value().morsels, 16u);
  EXPECT_LT(seconds, 1.0) << "a morsel waited for the compiler";
  EXPECT_EQ(r.value().traces_compiled, 1u);
  EXPECT_EQ(r.value().injection_runs, 0u);
  EXPECT_EQ(r.value().compile_seconds, 0.0);
  EXPECT_EQ(session.stats().compiles_pending, 1u);
}

// Destroying a Session with compiles queued returns once they finished:
// no compiler process is left, the scratch directory is empty, and a
// Session created later finds every code the destroyed one requested.
TEST_F(CompilerLifetimeTest, NoCompilerProcessOutlivesItsSession) {
  SlowCompiler(300);
  std::vector<std::unique_ptr<MapQuery>> queries;
  {
    Session session({.num_workers = 4});
    std::vector<QueryHandle> handles;
    for (int64_t add = 1; add <= 3; ++add) {
      queries.push_back(std::make_unique<MapQuery>(31, add, 64 * 1024));
      handles.push_back(session.Submit(queries.back()->ctx, Jit()));
    }
    for (size_t i = 0; i < handles.size(); ++i) {
      auto r = handles[i].Wait();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(queries[i]->RowsOk()) << i;
      EXPECT_EQ(r.value().traces_compiled, 1u) << i;
    }
    EXPECT_GT(session.stats().compiles_pending, 0u);
  }
  ExpectNothingLeft();

  Session later({.num_workers = 4});
  for (int64_t add = 1; add <= 3; ++add) {
    MapQuery again(31, add, 64 * 1024);
    auto r = later.Run(again.ctx, Jit());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(again.RowsOk()) << add;
    EXPECT_EQ(r.value().traces_compiled, 0u) << add;
    EXPECT_GT(r.value().injection_runs, 0u) << add;
  }
  EXPECT_EQ(later.stats().traces_compiled, 0u);
}

// A query cancelled while its compile is pending completes Cancelled
// without waiting for the compiler.
TEST_F(CompilerLifetimeTest, CancelledQueryDoesNotWaitForItsCompile) {
  SlowCompiler(2000);
  MapQuery query(37, 5, 64 * 1024);
  // Each task holds its worker until the query is cancelled, so the query
  // is still running when its compile is pending.
  std::mutex mu;
  std::condition_variable cv;
  bool cancelled = false;
  query.ctx.set_task_hook([&](const interp::Interpreter&, const Morsel&) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return cancelled; });
    return Status::OK();
  });
  Session session({.num_workers = 4});
  QueryHandle h = session.Submit(query.ctx, Jit());
  while (session.stats().compiles_pending == 0 && !h.done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(h.done());
  Stopwatch sw;
  h.Cancel();
  {
    std::lock_guard<std::mutex> lock(mu);
    cancelled = true;
  }
  cv.notify_all();
  auto r = h.Wait();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0) << "the query waited for its compile";
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_EQ(session.stats().compiles_pending, 1u);
}

// A compile that fails after its query finished leaves nothing behind,
// and the failure is not cached: the next query requests it again.
TEST_F(CompilerLifetimeTest, FailureAfterItsQueryFinishedIsNotCached) {
  SlowCompiler(300, "/bin/false");
  for (int attempt = 0; attempt < 2; ++attempt) {
    Session session({.num_workers = 1});
    MapQuery query(41, 7, 16 * 1024);
    auto r = session.Run(query.ctx, Jit());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(query.RowsOk());
    EXPECT_EQ(r.value().traces_compiled, 1u) << attempt;
    EXPECT_EQ(r.value().injection_runs, 0u) << attempt;
    EXPECT_EQ(session.stats().compiles_pending, 1u) << attempt;
    WaitForCompiles(session);
    EXPECT_EQ(session.stats().traces_compiled, 1u) << attempt;
    EXPECT_EQ(session.stats().compile_seconds, 0.0) << attempt;
  }
  ExpectNothingLeft();
}

}  // namespace
}  // namespace avm::engine
