#include "interp/profiler.h"

#include <algorithm>
#include <sstream>

#include "util/string_util.h"

namespace avm::interp {

std::vector<uint32_t> Profiler::HotNodes() const {
  std::vector<uint32_t> ids;
  ids.reserve(stats_.size());
  for (const auto& [id, s] : stats_) ids.push_back(id);
  std::sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
    return stats_.at(a).cycles > stats_.at(b).cycles;
  });
  return ids;
}

std::string Profiler::ToString() const {
  std::ostringstream os;
  os << StrFormat("%-6s %-32s %10s %12s %12s %8s %6s\n", "node", "op", "calls",
                  "cycles", "tuples", "cyc/tup", "sel");
  for (uint32_t id : HotNodes()) {
    const OpStats& s = stats_.at(id);
    os << StrFormat("%-6u %-32s %10llu %12llu %12llu %8.2f %6.3f\n", id,
                    s.label.c_str(), (unsigned long long)s.calls,
                    (unsigned long long)s.cycles, (unsigned long long)s.tuples,
                    s.CyclesPerTuple(), s.Selectivity());
  }
  return os.str();
}

}  // namespace avm::interp
