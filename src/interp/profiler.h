// Runtime profiling: the VM's eyes.
//
// Section III: "the VM collects profiling information (time spent in each
// operation, number of calls) to identify hot paths and potential targets
// for further optimization". We additionally track tuple counts and observed
// filter selectivities (Section III-C adaptations key off them).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace avm::interp {

struct OpStats {
  uint64_t calls = 0;
  uint64_t cycles = 0;
  uint64_t tuples = 0;
  uint64_t tuples_out = 0;  ///< after filtering (selectivity signal)
  std::string label;

  double CyclesPerTuple() const {
    return tuples == 0 ? 0.0 : static_cast<double>(cycles) /
                                   static_cast<double>(tuples);
  }
  /// Fraction of tuples surviving (1.0 for non-selective ops).
  double Selectivity() const {
    return tuples == 0 ? 1.0 : static_cast<double>(tuples_out) /
                                   static_cast<double>(tuples);
  }
};

class Profiler {
 public:
  void Record(uint32_t node_id, const std::string& label, uint64_t cycles,
              uint64_t tuples_in, uint64_t tuples_out) {
    OpStats& s = stats_[node_id];
    if (s.label.empty()) s.label = label;
    ++s.calls;
    s.cycles += cycles;
    s.tuples += tuples_in;
    s.tuples_out += tuples_out;
  }

  const OpStats* Find(uint32_t node_id) const {
    auto it = stats_.find(node_id);
    return it == stats_.end() ? nullptr : &it->second;
  }

  const std::unordered_map<uint32_t, OpStats>& stats() const { return stats_; }

  void Reset() { stats_.clear(); }

  /// Node ids ordered by total cycles, hottest first.
  std::vector<uint32_t> HotNodes() const;

  /// Human-readable profile dump.
  std::string ToString() const;

 private:
  std::unordered_map<uint32_t, OpStats> stats_;
};

}  // namespace avm::interp
