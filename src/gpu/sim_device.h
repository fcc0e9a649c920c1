// Simulated GPU device (substitution for real CUDA hardware — see
// ARCHITECTURE.md §Substitutions).
//
// The paper's third research target is *adaptive device placement*: deciding
// per pipeline fragment whether CPU or GPU executes it. The decision-relevant
// structure of a discrete GPU is (a) a fixed kernel-launch/sync overhead,
// (b) a PCIe transfer cost to/from device memory, and (c) much higher
// streaming bandwidth + arithmetic throughput once data is resident.
//
// SimGpuDevice executes kernels on host threads (so results are real and
// testable) while accounting *simulated time* with a calibrated analytic
// model of (a)-(c). Device memory is modeled as host allocations tracked in
// a resident set, so transfer amortization behaves like the real thing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/status.h"
#include "util/thread_pool.h"

namespace avm::gpu {

struct GpuDeviceParams {
  double launch_overhead_s = 30e-6;   ///< kernel launch + sync
  double pcie_bytes_per_s = 12e9;     ///< host<->device transfer bandwidth
  double mem_bytes_per_s = 500e9;     ///< device memory streaming bandwidth
  double ops_per_s = 2e12;            ///< scalar-op throughput (all SMs)
  size_t memory_bytes = 8ull << 30;   ///< device memory capacity
  unsigned num_sms = 32;              ///< parallel slices per launch

  /// A smaller, integrated-GPU-like profile (tests cover both regimes).
  static GpuDeviceParams Integrated() {
    GpuDeviceParams p;
    p.launch_overhead_s = 8e-6;
    p.pcie_bytes_per_s = 30e9;  // shared memory: cheap "transfers"
    p.mem_bytes_per_s = 60e9;
    p.ops_per_s = 2e11;
    p.memory_bytes = 2ull << 30;
    p.num_sms = 8;
    return p;
  }
};

/// Timing breakdown of simulated operations (seconds of simulated time).
struct GpuTiming {
  double transfer_s = 0;
  double launch_s = 0;
  double compute_s = 0;
  double Total() const { return transfer_s + launch_s + compute_s; }
};

class SimGpuDevice {
 public:
  explicit SimGpuDevice(GpuDeviceParams params = {},
                        ThreadPool* pool = nullptr);

  using BufferId = uint64_t;

  /// Allocate device memory (fails when capacity is exceeded — the
  /// placement policy must react, like a real engine would).
  Result<BufferId> Alloc(size_t bytes);
  Status Free(BufferId id);
  Result<void*> Ptr(BufferId id);
  Result<size_t> SizeOf(BufferId id) const;

  /// Host -> device transfer; advances the simulated clock.
  Status CopyToDevice(BufferId dst, const void* src, size_t bytes);
  /// Device -> host transfer; advances the simulated clock.
  Status CopyToHost(void* dst, BufferId src, size_t bytes);

  /// Launch a data-parallel kernel over [0, n): `body(begin, end)` runs on
  /// host worker threads, one slice per SM. Simulated time is charged as
  /// launch overhead + max(memory-bound, compute-bound) term.
  Status Launch(uint32_t n, size_t bytes_touched, double ops_per_item,
                const std::function<void(uint32_t, uint32_t)>& body);

  /// Simulated seconds consumed so far.
  double clock_seconds() const { return clock_s_; }
  void ResetClock() { clock_s_ = 0; timing_ = {}; }
  const GpuTiming& timing() const { return timing_; }

  size_t allocated_bytes() const { return allocated_; }
  const GpuDeviceParams& params() const { return params_; }

  /// Predicted (not executed) cost of a launch / a transfer, for planning.
  double PredictLaunchSeconds(uint32_t n, size_t bytes_touched,
                              double ops_per_item) const;
  double PredictTransferSeconds(size_t bytes) const;

 private:
  GpuDeviceParams params_;
  ThreadPool* pool_;
  std::unordered_map<BufferId, std::vector<uint8_t>> buffers_;
  BufferId next_id_ = 1;
  size_t allocated_ = 0;
  double clock_s_ = 0;
  GpuTiming timing_;
};

}  // namespace avm::gpu
