// Heterogeneous placement demo (Plan step 3): map fragments submitted
// to an engine::Session under the kGpuOffload strategy. The engine
// recognizes offloadable map fragments, asks the adaptive placer to choose
// between the CPU and the simulated GPU (ARCHITECTURE.md §Substitutions),
// and calibrates the placer's cost model from every observed run.
//
// Two fragments show the tradeoff:
//   light (x*2+x)       — transfer-dominated: PCIe both ways costs more
//                         than the CPU just doing the work; stays on CPU.
//   heavy (8-deep chain) — compute-dominated: device throughput wins once
//                         the fragment carries enough ops per byte.
//
//   $ ./gpu_offload
#include <cstdio>
#include <vector>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "engine/session.h"
#include "storage/datagen.h"

using namespace avm;

namespace {

dsl::Program MapProgram(int depth) {
  using namespace dsl;
  ExprPtr body = Var("x");
  for (int d = 0; d < depth; ++d) body = body * ConstI(3) + Var("x");
  Program p = MakeMapPipeline(TypeId::kI64, Lambda({"x"}, std::move(body)));
  TypeCheck(&p).Abort("type check");
  return p;
}

int64_t Reference(int depth, int64_t x) {
  int64_t v = x;
  for (int d = 0; d < depth; ++d) v = v * 3 + x;
  return v;
}

int RunSweep(const char* label, int depth) {
  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kGpuOffload;
  // One session per fragment shape: its placer calibrates run over run.
  engine::Session session({.num_workers = 1});

  std::printf("%s fragment (%d ops/row):\n", label, 2 * depth);
  std::printf("%12s %10s %12s %12s\n", "rows", "device", "wall_ms",
              "gpu_sim_ms");
  DataGen gen(9);
  for (uint32_t n : {64u << 10, 1u << 20, 8u << 20}) {
    auto col = gen.UniformI64(n, -1000, 1000);
    std::vector<int64_t> out(n);
    engine::ExecContext ctx(MapProgram(depth));
    ctx.BindInput("src",
                  interp::DataBinding::Raw(TypeId::kI64, col.data(), n))
        .BindOutput("out", interp::DataBinding::Raw(TypeId::kI64, out.data(),
                                                    n, true));
    engine::ExecReport report = session.Run(ctx, opts).ValueOrDie();
    for (uint32_t i = 0; i < n; i += 4097) {
      if (out[i] != Reference(depth, col[i])) {
        std::printf("!! result mismatch at %u\n", i);
        return 1;
      }
    }
    std::printf("%12u %10s %12.3f %12.3f\n", n, report.device.c_str(),
                report.wall_seconds * 1e3, report.gpu_sim_seconds * 1e3);
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main() {
  std::printf("strategy=gpu-offload: the engine places each map fragment on\n"
              "the CPU or the simulated GPU via the adaptive cost model\n\n");
  if (RunSweep("light", 1) != 0) return 1;
  if (RunSweep("heavy", 8) != 0) return 1;
  std::printf(
      "Transfer-dominated fragments stay on the CPU; compute-dominated ones\n"
      "offload. The engine feeds every observed run back into the placer,\n"
      "so the crossover self-adjusts to the hardware.\n");
  return 0;
}
