// Compressed execution demo (§III-C): a column whose per-block compression
// scheme changes mid-stream. Run through an engine::Session under the
// adaptive strategy, the VM JIT-compiles a trace specialized for FOR blocks
// (operating on narrow deltas + the block reference), transparently falls
// back to interpretation when a block with a different scheme arrives, and
// installs a second variant for the new situation — the trace cache keeps
// both.
//
//   $ ./compressed_scan
#include <cstdio>
#include <vector>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "engine/session.h"
#include "jit/jit_backend.h"
#include "storage/datagen.h"

using namespace avm;

int main() {
  constexpr uint32_t kBlock = 16 * 1024;
  constexpr uint32_t kBlocks = 64;
  constexpr uint64_t kRows = uint64_t{kBlock} * kBlocks;

  // Blocks 0..31: FOR-friendly narrow values; 32..47 plain wide values;
  // 48..63 FOR again.
  Column prices(TypeId::kI64, kBlock);
  DataGen gen(5);
  for (uint32_t b = 0; b < kBlocks; ++b) {
    if (b < 32 || b >= 48) {
      auto v = gen.UniformI64(kBlock, 100000, 104000);
      prices.AppendBlockWithScheme(Scheme::kFor, v.data(), kBlock)
          .Abort("append");
    } else {
      auto v = gen.UniformI64(kBlock, 0, int64_t{1} << 44);
      prices.AppendBlockWithScheme(Scheme::kPlain, v.data(), kBlock)
          .Abort("append");
    }
  }
  std::printf("column: %u blocks, schemes FOR x32 | PLAIN x16 | FOR x16\n",
              kBlocks);
  std::printf("compression ratio: %.2fx\n\n", prices.CompressionRatio());

  std::vector<int64_t> out(kRows);
  dsl::Program program = dsl::MakeMapPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(110) / dsl::ConstI(100)));
  dsl::TypeCheck(&program).Abort("type check");
  engine::ExecContext ctx(std::move(program));
  ctx.BindInputColumn("src", &prices)
      .BindOutput("out", interp::DataBinding::Raw(TypeId::kI64, out.data(),
                                                  kRows, true));

  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kAdaptiveJit;
  opts.vm.optimize_after_iterations = 4;
  opts.vm.recheck_interval = 8;
  opts.vm.specialize_compression = true;
  engine::ExecReport report =
      engine::Session({.num_workers = 1}).Run(ctx, opts).ValueOrDie();

  std::printf("=== Fig.1 timeline ===\n%s\n", report.state_timeline.c_str());
  std::printf("traces compiled : %llu (one per compression situation)\n",
              (unsigned long long)report.traces_compiled);
  std::printf("cache reuses    : %llu\n",
              (unsigned long long)report.traces_reused);
  std::printf("compiled runs   : %llu chunks\n",
              (unsigned long long)report.injection_runs);
  std::printf("fallback events : %llu (scheme mismatch -> interpret)\n",
              (unsigned long long)report.injection_fallbacks);
  if (!jit::HostCompilerAvailable()) {
    std::printf("(no host compiler: everything was interpreted)\n");
  }

  // Verify against a straight decode.
  std::vector<int64_t> raw(kRows);
  prices.Read(0, kRows, raw.data()).Abort("read");
  for (uint64_t i = 0; i < kRows; ++i) {
    if (out[i] != raw[i] * 110 / 100) {
      std::printf("MISMATCH at %llu\n", (unsigned long long)i);
      return 1;
    }
  }
  std::printf("\nresult verified: out[i] == price[i] * 110 / 100 for all "
              "%llu rows\n",
              (unsigned long long)kRows);
  return 0;
}
