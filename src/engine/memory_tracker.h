// engine::MemoryTracker — byte accounting against a per-query or shared
// memory budget (docs/SPILL.md: out-of-core execution).
//
// The tracker is deliberately a pure accountant: it never allocates and it
// never blocks. Consumers charge in two modes with different failure
// semantics, and the tracker counts the two kinds separately:
//
//  - PERSISTENT charges (TryCharge/Release) cover allocations that live for
//    the whole query — join build tables, in-memory ORDER BY output windows.
//    They fail only when the persistent charges would exceed the budget
//    (scratch that running tasks hold must not fail a concurrent query),
//    and the caller reacts by switching to an out-of-core plan (spilled
//    sorted runs, capped morsel windows) or failing the query with
//    kResourceExhausted.
//
//  - TRANSIENT charges (ChargeTransient/ReleaseTransient) cover bounded
//    per-task scratch — morsel output windows in spill mode, privatized
//    accumulator copies, per-column block-decode buffers, merge read
//    buffers. They always succeed: a task that already started must be
//    able to finish (blocking it on memory would risk deadlock across
//    queries sharing one tracker), and the overshoot is bounded by workers
//    x one morsel's scratch, which the spill planner sized to a fraction of
//    the budget. The overshoot is visible in peak() and reported as
//    ExecReport::peak_tracked_bytes.
//
// used(), peak() and available() count both kinds, so the spill planner
// still shrinks morsels while scratch is in flight. Never-blocking is what
// makes concurrent Session clients sharing one global tracker
// (AVM_MEMORY_BUDGET) deadlock-free by construction.
#pragma once

#include <cstdint>
#include <mutex>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace avm::engine {

/// Thread-safe byte accounting against an optional budget (0 = unlimited).
/// Shared either per query (QueryOptions::memory_budget) or session-wide
/// (AVM_MEMORY_BUDGET); see the file comment for the charge semantics.
class MemoryTracker {
 public:
  /// `budget_bytes` == 0 means unlimited (the tracker still tracks usage
  /// and peak for observability).
  explicit MemoryTracker(uint64_t budget_bytes = 0)
      : budget_(budget_bytes) {}

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// Reserve `bytes` of budget for a query-lifetime allocation. Fails with
  /// kResourceExhausted (naming `what`) when the persistent charges would
  /// exceed the budget; on failure nothing is charged.
  Status TryCharge(uint64_t bytes, const char* what);

  /// Return `bytes` previously charged with TryCharge.
  void Release(uint64_t bytes);

  /// Account `bytes` of bounded task scratch. Always succeeds — see the
  /// file comment for why transient charges may overshoot the budget.
  void ChargeTransient(uint64_t bytes);

  /// Return `bytes` previously charged with ChargeTransient.
  void ReleaseTransient(uint64_t bytes);

  /// Budget this tracker enforces; 0 = unlimited.
  uint64_t budget() const { return budget_; }

  /// Bytes currently charged, persistent plus transient.
  uint64_t used() const;

  /// High-water mark of used() over the tracker's lifetime.
  uint64_t peak() const;

  /// Budget minus used(); UINT64_MAX when unlimited.
  uint64_t available() const;

  /// Budget from the AVM_MEMORY_BUDGET environment variable, in bytes
  /// (0 when unset/unparsable = unlimited). Read once per call.
  static uint64_t EnvBudget();

 private:
  const uint64_t budget_;
  mutable std::mutex mu_;
  uint64_t persistent_ AVM_GUARDED_BY(mu_) = 0;
  uint64_t transient_ AVM_GUARDED_BY(mu_) = 0;
  uint64_t peak_ AVM_GUARDED_BY(mu_) = 0;
};

/// RAII helper for transient charges: charges `bytes` on construction (via
/// ChargeTransient) and releases on destruction. A null tracker is a no-op.
class ScopedTransientCharge {
 public:
  ScopedTransientCharge(MemoryTracker* tracker, uint64_t bytes)
      : tracker_(tracker), bytes_(bytes) {
    if (tracker_ != nullptr && bytes_ > 0) tracker_->ChargeTransient(bytes_);
  }
  ~ScopedTransientCharge() {
    if (tracker_ != nullptr && bytes_ > 0) tracker_->ReleaseTransient(bytes_);
  }
  ScopedTransientCharge(const ScopedTransientCharge&) = delete;
  ScopedTransientCharge& operator=(const ScopedTransientCharge&) = delete;

 private:
  MemoryTracker* tracker_;
  uint64_t bytes_;
};

}  // namespace avm::engine
