// F1 — the Fig. 1 state machine in action, and the cost of adaptivity.
//
// Measures the pure-interpretation baseline against the adaptive VM with
// profiling + heartbeat but JIT disabled (observation overhead must be a
// few percent), and prints one state-machine timeline for documentation.
//
// NOTE: this microbench deliberately constructs AdaptiveVm below
// engine::Session — it measures VM internals (state machine, partitioner)
// the session intentionally hides. Application-level code goes through
// engine::Session.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>

#include "analysis/verify_program.h"
#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "jit/jit_backend.h"
#include "storage/datagen.h"
#include "vm/adaptive_vm.h"

namespace {

using namespace avm;
using interp::DataBinding;

constexpr int64_t kN = 1 << 20;

struct Fig2Fixture {
  dsl::Program program = dsl::MakeFigure2Program();
  std::vector<int64_t> data, v, w;
  Fig2Fixture() {
    dsl::TypeCheck(&program).Abort();
    // Below-Session construction: give it the same gate QueryBuilder-built
    // programs get (docs/VERIFIER.md).
    const analysis::VerifyResult vr = analysis::VerifyProgram(program);
    if (!vr.clean()) {
      std::fprintf(stderr, "verifier: %s\n", vr.ToString().c_str());
      std::abort();
    }
    DataGen gen(51);
    data = gen.UniformI64(kN, -100, 100);
    v.assign(kN, 0);
    w.assign(kN, 0);
  }
  void Bind(interp::Interpreter& in) {
    in.BindData("some_data", DataBinding::Raw(TypeId::kI64, data.data(), kN))
        .Abort();
    in.BindData("v", DataBinding::Raw(TypeId::kI64, v.data(), kN, true))
        .Abort();
    in.BindData("w", DataBinding::Raw(TypeId::kI64, w.data(), kN, true))
        .Abort();
  }
};

Fig2Fixture& Fixture() {
  static Fig2Fixture* f = new Fig2Fixture();
  return *f;
}

void BM_StateMachine_NoProfiling(benchmark::State& state) {
  vm::VmOptions opts;
  opts.enable_jit = false;
  opts.interp.enable_profiling = false;
  for (auto _ : state) {
    vm::AdaptiveVm vmach(&Fixture().program, opts);
    Fixture().Bind(vmach.interpreter());
    vmach.Run().Abort();
  }
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(kN) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StateMachine_NoProfiling)->Unit(benchmark::kMillisecond);

void BM_StateMachine_ProfiledInterpret(benchmark::State& state) {
  vm::VmOptions opts;
  opts.enable_jit = false;
  opts.interp.enable_profiling = true;
  for (auto _ : state) {
    vm::AdaptiveVm vmach(&Fixture().program, opts);
    Fixture().Bind(vmach.interpreter());
    vmach.Run().Abort();
  }
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(kN) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StateMachine_ProfiledInterpret)->Unit(benchmark::kMillisecond);

void BM_StateMachine_FullAdaptiveCycle(benchmark::State& state) {
  if (!jit::HostCompilerAvailable()) {
    state.SkipWithError("no host compiler");
    return;
  }
  vm::VmOptions opts;
  opts.optimize_after_iterations = 8;
  std::string timeline;
  for (auto _ : state) {
    vm::AdaptiveVm vmach(&Fixture().program, opts);
    Fixture().Bind(vmach.interpreter());
    vmach.Run().Abort();
    timeline = vmach.state_machine().Timeline();
  }
  // Print the Fig. 1 timeline once (documentation artifact).
  static bool printed = false;
  if (!printed && !timeline.empty()) {
    printed = true;
    std::fprintf(stderr, "--- Fig.1 state machine timeline ---\n%s\n",
                 timeline.c_str());
  }
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(kN) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StateMachine_FullAdaptiveCycle)->Unit(benchmark::kMillisecond);

}  // namespace
