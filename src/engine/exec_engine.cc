#include "engine/exec_engine.h"

#include <algorithm>

#include "util/string_util.h"

namespace avm::engine {

const char* StrategyName(ExecutionStrategy s) {
  switch (s) {
    case ExecutionStrategy::kInterpret: return "interpret";
    case ExecutionStrategy::kAdaptiveJit: return "adaptive-jit";
    case ExecutionStrategy::kGpuOffload: return "gpu-offload";
  }
  return "?";
}

std::string ExecReport::ToString() const {
  std::string out = StrFormat(
      "strategy=%s device=%s kernel_tier=%s workers=%zu morsels=%zu "
      "rows=%llu wall=%.2fms\n",
      StrategyName(strategy), device.c_str(), kernel_tier.c_str(), workers,
      morsels, (unsigned long long)rows, wall_seconds * 1e3);
  out += StrFormat(
      "iterations=%llu partitions=%llu traces: compiled=%llu reused=%llu "
      "injected_runs=%llu fallbacks=%llu compile=%.1fms",
      (unsigned long long)iterations, (unsigned long long)partitions,
      (unsigned long long)traces_compiled, (unsigned long long)traces_reused,
      (unsigned long long)injection_runs,
      (unsigned long long)injection_fallbacks, compile_seconds * 1e3);
  if (disk_cache_hits + disk_cache_misses + disk_cache_corrupt > 0) {
    out += StrFormat(
        "\ndisk cache: hits=%llu misses=%llu corrupt_recompiled=%llu",
        (unsigned long long)disk_cache_hits,
        (unsigned long long)disk_cache_misses,
        (unsigned long long)disk_cache_corrupt);
  }
  if (gpu_sim_seconds > 0) {
    out += StrFormat(" gpu_sim=%.2fms", gpu_sim_seconds * 1e3);
  }
  if (merge_parts > 0) {
    out += StrFormat("\nrow merge: parts=%llu",
                     (unsigned long long)merge_parts);
  }
  if (bytes_spilled + spill_runs + peak_tracked_bytes + chunks_streamed > 0) {
    out += StrFormat(
        "\nout-of-core: spilled=%llu bytes in %llu runs peak_tracked=%llu "
        "chunks_streamed=%llu",
        (unsigned long long)bytes_spilled, (unsigned long long)spill_runs,
        (unsigned long long)peak_tracked_bytes,
        (unsigned long long)chunks_streamed);
  }
  if (!jit_declined.empty()) {
    out += "\njit declined: " + jit_declined;
  }
  if (!ran_serial_reason.empty()) {
    out += "\nran serial: " + ran_serial_reason;
  }
  return out;
}

// ------------------------------------------------------------- ExecContext

ExecContext::ExecContext(dsl::Program program)
    : program_(std::move(program)) {}

ExecContext& ExecContext::Bind(Bound b) {
  // Inputs and shared arrays are what the plan's decisions observed.
  if (b.role == BindRole::kInput || b.role == BindRole::kShared) {
    plan_.reset();
  }
  for (Bound& existing : bound_) {
    if (existing.name == b.name) {
      existing = std::move(b);
      return *this;
    }
  }
  bound_.push_back(std::move(b));
  return *this;
}

ExecContext& ExecContext::BindInput(const std::string& name,
                                    interp::DataBinding b) {
  return Bind({name, BindRole::kInput, b});
}

ExecContext& ExecContext::BindInputColumn(const std::string& name,
                                          const Column* col) {
  return BindInput(name, interp::DataBinding::FromColumn(col));
}

ExecContext& ExecContext::BindShared(const std::string& name,
                                     interp::DataBinding b) {
  return Bind({name, BindRole::kShared, b});
}

ExecContext& ExecContext::BindOutput(const std::string& name,
                                     interp::DataBinding b) {
  b.writable = true;
  return Bind({name, BindRole::kOutput, b});
}

ExecContext& ExecContext::BindPartialOutput(const std::string& name,
                                            interp::DataBinding b,
                                            uint64_t row_scale) {
  b.writable = true;
  return Bind({name, BindRole::kPartialOutput, b,
               std::max<uint64_t>(row_scale, 1), false});
}

ExecContext& ExecContext::BindPartialOutputScratch(const std::string& name,
                                                   TypeId type,
                                                   uint64_t row_scale) {
  // Shape-only binding: no storage; the engine allocates a window per task.
  interp::DataBinding b = interp::DataBinding::Raw(type, nullptr, 0, true);
  return Bind({name, BindRole::kPartialOutput, b,
               std::max<uint64_t>(row_scale, 1), true});
}

ExecContext& ExecContext::BindAccumulator(const std::string& name, TypeId type,
                                          void* data, uint64_t len) {
  return Bind({name, BindRole::kAccumulator,
               interp::DataBinding::Raw(type, data, len, true)});
}

std::vector<analysis::BindingInfo> ExecContext::BindingTable() const {
  std::vector<analysis::BindingInfo> table;
  table.reserve(bound_.size());
  for (const Bound& b : bound_) table.push_back({b.name, b.role, b.row_scale});
  return table;
}

}  // namespace avm::engine
