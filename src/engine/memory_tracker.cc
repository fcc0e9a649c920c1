#include "engine/memory_tracker.h"

#include <algorithm>
#include <cstdlib>

#include "util/string_util.h"

namespace avm::engine {

Status MemoryTracker::TryCharge(uint64_t bytes, const char* what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (budget_ > 0 && (bytes > budget_ || persistent_ > budget_ - bytes)) {
    return Status::ResourceExhausted(StrFormat(
        "%s needs %llu bytes but only %llu of the %llu-byte memory budget "
        "remain",
        what, (unsigned long long)bytes,
        (unsigned long long)(budget_ > persistent_ ? budget_ - persistent_
                                                   : 0),
        (unsigned long long)budget_));
  }
  persistent_ += bytes;
  peak_ = std::max(peak_, persistent_ + transient_);
  return Status::OK();
}

void MemoryTracker::Release(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  persistent_ -= std::min(bytes, persistent_);
}

void MemoryTracker::ChargeTransient(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  transient_ += bytes;
  peak_ = std::max(peak_, persistent_ + transient_);
}

void MemoryTracker::ReleaseTransient(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  transient_ -= std::min(bytes, transient_);
}

uint64_t MemoryTracker::used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return persistent_ + transient_;
}

uint64_t MemoryTracker::peak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

uint64_t MemoryTracker::available() const {
  if (budget_ == 0) return UINT64_MAX;
  const uint64_t in_use = used();
  return budget_ > in_use ? budget_ - in_use : 0;
}

uint64_t MemoryTracker::EnvBudget() {
  const char* env = std::getenv("AVM_MEMORY_BUDGET");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env) return 0;
  return static_cast<uint64_t>(v);
}

}  // namespace avm::engine
