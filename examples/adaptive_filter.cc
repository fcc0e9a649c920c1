// Micro-adaptivity demo (§III-C / [24]): a filter over data whose
// selectivity drifts from ~1% to ~99% mid-stream. The per-node
// micro-adaptive chooser re-tests its flavors periodically and switches
// implementation as the workload changes. Each flavor runs through a
// one-worker engine::Session under the pure-interpretation strategy.
//
//   $ ./adaptive_filter
#include <cstdio>
#include <vector>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "engine/session.h"
#include "storage/datagen.h"

using namespace avm;

namespace {

const char* FlavorName(interp::FilterFlavor f) {
  switch (f) {
    case interp::FilterFlavor::kBranchless: return "branchless";
    case interp::FilterFlavor::kBranching: return "branching";
    case interp::FilterFlavor::kFullCompute: return "full-compute";
    case interp::FilterFlavor::kAdaptive: return "adaptive";
  }
  return "?";
}

double RunWith(interp::FilterFlavor flavor, const std::vector<int64_t>& data,
               interp::FilterFlavor* final_choice) {
  std::vector<int64_t> out(data.size());

  // Filter pipelines condense their output, so the row-partitioned form
  // does not apply: the engine runs this context serially.
  dsl::Program program = dsl::MakeFilterPipeline(
      TypeId::kI64, dsl::Lambda({"x"}, dsl::Call(dsl::ScalarOp::kLt,
                                                 {dsl::Var("x"),
                                                  dsl::ConstI(500)})));
  dsl::TypeCheck(&program).Abort("type check");
  engine::ExecContext ctx(std::move(program));
  ctx.BindInput("src", interp::DataBinding::Raw(
                           TypeId::kI64,
                           const_cast<int64_t*>(data.data()), data.size()))
      .BindOutput("out", interp::DataBinding::Raw(TypeId::kI64, out.data(),
                                                  out.size(), true));
  if (final_choice != nullptr) {
    ctx.set_task_hook([&](const interp::Interpreter& in,
                          const engine::Morsel&) {
      // Find the filter node and ask what the chooser settled on.
      dsl::VisitExprs(in.program(), [&](const dsl::ExprPtr& e) {
        if (e->kind == dsl::ExprKind::kSkeleton &&
            e->skeleton == dsl::SkeletonKind::kFilter) {
          *final_choice = in.PreferredFilterFlavor(e->id);
        }
      });
      return Status::OK();
    });
  }

  engine::QueryOptions opts;
  opts.strategy = engine::ExecutionStrategy::kInterpret;
  opts.vm.interp.filter_flavor = flavor;
  engine::ExecReport report =
      engine::Session({.num_workers = 1}).Run(ctx, opts).ValueOrDie();
  return report.wall_seconds * 1e3;
}

}  // namespace

int main() {
  // Phase 1: ~1% selectivity; phase 2: ~50%; phase 3: ~99%.
  DataGen gen(77);
  std::vector<int64_t> data;
  auto phase1 = gen.UniformI64(2'000'000, 500, 50000);   // almost none < 500
  auto phase2 = gen.UniformI64(2'000'000, 0, 999);       // half < 500
  auto phase3 = gen.UniformI64(2'000'000, 0, 505);       // almost all < 500
  data.insert(data.end(), phase1.begin(), phase1.end());
  data.insert(data.end(), phase2.begin(), phase2.end());
  data.insert(data.end(), phase3.begin(), phase3.end());

  std::printf("filter x < 500 over 6M values with drifting selectivity "
              "(1%% -> 50%% -> 99%%)\n\n");
  for (auto flavor :
       {interp::FilterFlavor::kBranchless, interp::FilterFlavor::kBranching,
        interp::FilterFlavor::kFullCompute,
        interp::FilterFlavor::kAdaptive}) {
    interp::FilterFlavor final_choice = flavor;
    double ms = RunWith(flavor, data, &final_choice);
    std::printf("%-14s %8.2f ms", FlavorName(flavor), ms);
    if (flavor == interp::FilterFlavor::kAdaptive) {
      std::printf("   (settled on '%s' by the end)",
                  FlavorName(final_choice));
    }
    std::printf("\n");
  }
  std::printf(
      "\nThe adaptive flavor re-tests alternatives every few chunks, so it\n"
      "switches implementation when the drift flips which one is fastest.\n");
  return 0;
}
