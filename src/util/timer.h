// Timing utilities: wall-clock stopwatch and cycle counter.
//
// The interpreter's profiler attributes cycles to primitive operations; the
// adaptive VM compares flavors by per-tuple cost, so cheap high-resolution
// timing matters.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace avm {

/// Read the CPU timestamp counter (falls back to steady_clock nanos).
inline uint64_t ReadCycleCounter() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Wall-clock stopwatch with nanosecond resolution.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }
  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace avm
