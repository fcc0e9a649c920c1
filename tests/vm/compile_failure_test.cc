// Host-compiler failure path. CMakeLists.txt runs this binary with
// AVM_CXX=/bin/false, so every compile the JIT attempts fails. A failing
// situation must cost one compile request per submission — not one per
// recheck pass, and not none on a re-submission of the same Query — and
// every submission must still return the interpreter's rows, report the
// failure once it lands, and leave no compiler files behind.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "engine/session.h"
#include "jit/jit_backend.h"
#include "relational/q1.h"
#include "tests/wait_for_compiles.h"

namespace avm::vm {
namespace {

TEST(CompileFailureTest, FailingSituationCompilesOncePerRun) {
  // Precondition: without the variable the test would pass vacuously.
  const char* cxx = std::getenv("AVM_CXX");
  ASSERT_NE(cxx, nullptr) << "run through ctest, which sets AVM_CXX";
  ASSERT_EQ(std::string(cxx), "/bin/false");
  ASSERT_TRUE(jit::HostCompilerAvailable());

  LineitemSpec spec;
  spec.num_rows = 100'000;  // ~98 chunks
  auto table = MakeLineitem(spec);
  auto oracle = relational::RunQ1Scalar(*table);
  ASSERT_TRUE(oracle.ok());

  // One optimize pass and no recheck: every situation is tried once.
  // A recheck every 2 iterations must not try any of them again. The
  // Session queues each compile on its compiler thread, where it fails; a
  // run reports the failure only if it lands before the run ends, so each
  // configuration runs until one does (a /bin/false compile fails within
  // milliseconds, so the first run normally does).
  uint64_t checked_once = 0;
  uint64_t compiled_once = 0;
  for (uint64_t recheck : {uint64_t{0}, uint64_t{2}}) {
    engine::QueryOptions opts;
    opts.strategy = engine::ExecutionStrategy::kAdaptiveJit;
    opts.vm.recheck_interval = recheck;
    engine::ExecReport rep;
    for (int attempt = 0; attempt < 20 && rep.jit_declined.empty();
         ++attempt) {
      engine::Session session({.num_workers = 1});
      engine::Query q = relational::MakeQ1Query(*table).ValueOrDie();
      auto run = session.Run(q.context(), opts);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(relational::Q1ResultFromQuery(q), oracle.value());
      rep = run.value();
      // Each situation is requested once: the thread runs the compiler
      // once per request.
      EXPECT_GT(rep.traces_compiled, 0u);
      EXPECT_EQ(rep.injection_runs, 0u);
      EXPECT_EQ(rep.compile_seconds, 0.0);
      WaitForCompiles(session);
      EXPECT_EQ(session.stats().traces_compiled, rep.traces_compiled);
      // A failed compile leaves the Query's plan when its submission ends,
      // so the re-submission requests each situation once more, as the
      // fresh Query did.
      q.ResetAggregates();
      auto again = session.Run(q.context(), opts);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(relational::Q1ResultFromQuery(q), oracle.value());
      EXPECT_EQ(again.value().traces_compiled, rep.traces_compiled);
      EXPECT_EQ(again.value().verifier_checked, rep.verifier_checked);
      EXPECT_EQ(again.value().injection_runs, 0u);
      WaitForCompiles(session);
      EXPECT_EQ(session.stats().traces_compiled, 2 * rep.traces_compiled);
    }
    EXPECT_FALSE(rep.jit_declined.empty());
    EXPECT_GT(rep.verifier_checked, 0u);
    if (recheck == 0) {
      checked_once = rep.verifier_checked;
      compiled_once = rep.traces_compiled;
    } else {
      EXPECT_EQ(rep.verifier_checked, checked_once)
          << "a failed situation was verified again at a recheck";
      EXPECT_EQ(rep.traces_compiled, compiled_once)
          << "a failed situation was compiled again at a recheck";
    }
  }

  // Failed compiles leave no source, log or object in the scratch dir.
  size_t entries = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(jit::JitScratchDir())) {
    ADD_FAILURE() << "left behind: " << e.path();
    ++entries;
  }
  EXPECT_EQ(entries, 0u);
}

}  // namespace
}  // namespace avm::vm
