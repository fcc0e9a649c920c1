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

ExecContext::ExecContext(ProgramFactory make_program, uint64_t total_rows)
    : make_program_(std::move(make_program)), total_rows_(total_rows) {}

ExecContext::ExecContext(const dsl::Program* program)
    : fixed_program_(program) {}

ExecContext& ExecContext::BindInput(const std::string& name,
                                    interp::DataBinding b) {
  if (total_rows_ == 0) total_rows_ = b.len;
  bound_.push_back({name, BindRole::kInput, b});
  return *this;
}

ExecContext& ExecContext::BindInputColumn(const std::string& name,
                                          const Column* col) {
  return BindInput(name, interp::DataBinding::FromColumn(col));
}

ExecContext& ExecContext::BindShared(const std::string& name,
                                     interp::DataBinding b) {
  bound_.push_back({name, BindRole::kShared, b});
  return *this;
}

ExecContext& ExecContext::BindOutput(const std::string& name,
                                     interp::DataBinding b) {
  b.writable = true;
  bound_.push_back({name, BindRole::kOutput, b});
  return *this;
}

ExecContext& ExecContext::BindPartialOutput(const std::string& name,
                                            interp::DataBinding b,
                                            uint64_t row_scale) {
  b.writable = true;
  Bound nb{name, BindRole::kPartialOutput, b,
           std::max<uint64_t>(row_scale, 1), false};
  // Upsert: the prepare hook re-decides in-memory vs scratch windows per
  // submission, replacing the previous binding of the same name.
  for (auto& existing : bound_) {
    if (existing.role == BindRole::kPartialOutput && existing.name == name) {
      existing = std::move(nb);
      return *this;
    }
  }
  bound_.push_back(std::move(nb));
  return *this;
}

ExecContext& ExecContext::BindPartialOutputScratch(const std::string& name,
                                                   TypeId type,
                                                   uint64_t row_scale) {
  // Shape-only binding: no storage; the engine allocates a window per task.
  interp::DataBinding b = interp::DataBinding::Raw(type, nullptr, 0, true);
  Bound nb{name, BindRole::kPartialOutput, b,
           std::max<uint64_t>(row_scale, 1), true};
  for (auto& existing : bound_) {
    if (existing.role == BindRole::kPartialOutput && existing.name == name) {
      existing = std::move(nb);
      return *this;
    }
  }
  bound_.push_back(std::move(nb));
  return *this;
}

ExecContext& ExecContext::BindAccumulator(const std::string& name, TypeId type,
                                          void* data, uint64_t len) {
  bound_.push_back({name, BindRole::kAccumulator,
                    interp::DataBinding::Raw(type, data, len, true)});
  return *this;
}

std::vector<analysis::BindingInfo> ExecContext::BindingTable() const {
  std::vector<analysis::BindingInfo> table;
  table.reserve(bound_.size());
  for (const Bound& b : bound_) table.push_back({b.name, b.role, b.row_scale});
  return table;
}

}  // namespace avm::engine
