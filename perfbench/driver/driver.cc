#include "driver/driver.h"

#include <dirent.h>
#include <sched.h>

#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

void FillFromReport(const avm::engine::ExecReport& r, QueryRecord* rec) {
  rec->exec_ms = r.wall_seconds * 1e3;
  rec->morsels = r.morsels;
  rec->traces_compiled = r.traces_compiled;
  rec->traces_reused = r.traces_reused;
  rec->injection_runs = r.injection_runs;
  rec->injection_fallbacks = r.injection_fallbacks;
  rec->compile_ms = (r.fast_compile_seconds + r.opt_compile_seconds) * 1e3;
  rec->tier_upgrades_requested = r.tier_upgrades_requested;
  rec->jit_declined = !r.jit_declined.empty();
  rec->verifier_checked = r.verifier_checked;
  rec->bytes_spilled = r.bytes_spilled;
  rec->spill_runs = r.spill_runs;
  rec->peak_tracked_bytes = r.peak_tracked_bytes;
  rec->chunks_streamed = r.chunks_streamed;
  rec->kernel_tier = r.kernel_tier;
  rec->jit_tier = r.jit_tier;
}

size_t OnlineCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

bool HasChildProcesses() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return false;
  bool any = false;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream f(std::string("/proc/self/task/") + e->d_name + "/children");
    std::string pid;
    if (f >> pid) {
      any = true;
      break;
    }
  }
  closedir(dir);
  return any;
}

}  // namespace perfbench
