// Shared pieces of the benchmark driver: per-query records of the closed
// loop and the per-layer ladder the traced run prices.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/spans.h"
#include "driver/workloads.h"
#include "engine/session.h"

namespace perfbench {

/// What the driver keeps of one finished query.
struct QueryRecord {
  Shape shape = Shape::kQ1;
  int64_t id = 0;
  bool ok = false;       ///< the engine returned a report
  bool correct = false;  ///< ... and its result equals the oracle's
  double latency_ms = 0;  ///< Submit call start to Wait return
  int64_t end_ns = 0;     ///< Wait return on the SpanRecorder clock
  double submit_us = 0;   ///< duration of the Submit call
  uint64_t rows = 0;      ///< input rows the query read
  // ExecReport fields the metrics use.
  double exec_ms = 0;
  uint64_t morsels = 0;
  uint64_t traces_compiled = 0;
  uint64_t traces_reused = 0;
  uint64_t injection_runs = 0;
  uint64_t injection_fallbacks = 0;
  double compile_ms = 0;  ///< fast + optimized tier compile time
  uint64_t tier_upgrades_requested = 0;
  bool jit_declined = false;
  uint64_t verifier_checked = 0;
  uint64_t bytes_spilled = 0;
  uint64_t spill_runs = 0;
  uint64_t peak_tracked_bytes = 0;
  uint64_t chunks_streamed = 0;
  uint64_t result_rows = 0;
  std::string kernel_tier;
  std::string jit_tier;
};

/// Copy the metric-relevant ExecReport fields into `rec`.
void FillFromReport(const avm::engine::ExecReport& r, QueryRecord* rec);

/// Online logical CPUs of this process (the Session worker count).
size_t OnlineCpus();

/// True while any thread of this process has a live child process (the
/// engine runs the host compiler as a child, also from detached tier-upgrade
/// threads).
bool HasChildProcesses();

/// Everything the ladder needs from the driver.
struct LadderInput {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  const Inputs* inputs = nullptr;      ///< the workload's own tables
  const Oracle* oracle = nullptr;
  /// Steady-state records of the traced window (spill volume, morsels).
  const std::vector<QueryRecord>* steady = nullptr;
  double budget_s = 5;  ///< wall time shared by all rungs
  SpanRecorder* spans = nullptr;
};

/// Price each layer of the workload's queries rung by rung (see
/// WORKLOADS.md): relational floors, interpreted and JIT programs on a
/// 1-worker Session, Sessions at 2 and nproc workers, 4 concurrent clients,
/// Build / lowering / typecheck / verify, ORDER BY cost, a direct SpillFile
/// pass and a direct column decode pass. Returns per-layer metrics by name.
std::map<std::string, double> RunLadder(const LadderInput& in);

}  // namespace perfbench
