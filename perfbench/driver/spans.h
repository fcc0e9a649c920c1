// In-memory spans recorded by the benchmark around each public engine call
// it makes (Build, Submit, Wait, the oracle check, every ladder rung). The
// engine itself is not instrumented. Spans are kept in memory and written
// out once when the run ends; the untimed ("traced") run is the only one
// that records them.
//
// The driver is single-threaded (queries run on the Session's workers, the
// driver only submits and waits), so the recorder takes no locks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       ///< index of the enclosing span, -1 at top level
  int64_t query = -1;    ///< query id the span belongs to, -1 if none
};

/// Self time of span `index`: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once,
/// children clipped to the parent's interval).
int64_t SelfTimeNs(const std::vector<SpanRecord>& spans, size_t index);

class SpanRecorder {
 public:
  /// Monotonic nanoseconds since the recorder was created.
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span nested in the innermost open one; returns its index, or
  /// -1 when recording is off.
  int Begin(const std::string& name, int64_t query = -1);
  void End(int index);

  /// Record an already-measured interval as a child of the innermost open
  /// span (asynchronous intervals such as a query's time in flight).
  void Add(const std::string& name, int64_t start_ns, int64_t end_ns,
           int64_t query = -1);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Summed self time per span name, in milliseconds.
  std::map<std::string, double> SelfMsByName() const;

  /// Write every span plus the per-name self times as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span on a recorder (no-op while recording is off).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, int64_t query = -1)
      : rec_(rec), index_(rec.Begin(name, query)) {}
  ~ScopedSpan() { rec_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace perfbench
