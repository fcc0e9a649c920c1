#include "jit/trace_cache.h"

#include <sstream>

#include "util/hash.h"

namespace avm::jit {

uint64_t Situation::Key() const {
  uint64_t h = trace_fingerprint;
  for (const auto& [name, scheme] : schemes) {
    h = HashCombine(h, HashString(name));
    h = HashCombine(h, static_cast<uint64_t>(scheme));
  }
  for (const auto& name : sel_inputs) {
    h = HashCombine(h, HashString(name));
    h = HashCombine(h, uint64_t{0x5e1});
  }
  return h;
}

std::string Situation::ToString() const {
  std::ostringstream os;
  os << "situation{fp=" << trace_fingerprint;
  for (const auto& [name, scheme] : schemes) {
    os << " " << name << "=" << SchemeName(scheme);
  }
  for (const auto& name : sel_inputs) {
    os << " sel:" << name;
  }
  os << "}";
  return os.str();
}

uint64_t TraceFingerprint(const ir::DepGraph& graph, const ir::Trace& trace) {
  uint64_t h = 0xabcdef12345678ull;
  for (uint32_t id : trace.node_ids) {
    h = HashCombine(h, HashString(graph.nodes()[id].label));
    h = HashCombine(h, id);
  }
  return h;
}

std::shared_ptr<TraceEntry> TraceCache::Find(const Situation& s) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(s.Key());
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

std::shared_ptr<TraceEntry> TraceCache::Insert(const Situation& s,
                                               CompiledTrace trace) {
  auto entry = std::make_shared<TraceEntry>(std::move(trace), s.Key());
  std::lock_guard<std::mutex> lock(mu_);
  entries_[s.Key()] = entry;
  return entry;
}

std::shared_ptr<TraceEntry> TraceCache::Lookup(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

Result<std::shared_ptr<TraceEntry>> TraceCache::GetOrCompile(
    const Situation& s, const std::function<Result<CompiledTrace>()>& compile,
    bool* compiled_fresh) {
  *compiled_fresh = false;
  const uint64_t key = s.Key();
  // One counted probe per logical lookup; the re-check and insert below go
  // through the uncounted paths so hits()/misses() stay meaningful.
  if (std::shared_ptr<TraceEntry> hit = Find(s)) return hit;

  // Per-key in-flight lock: duplicate compiles of one situation are
  // deduplicated without serializing compiles of distinct situations.
  std::shared_ptr<std::mutex> key_mu;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = compiling_[key];
    if (slot == nullptr) slot = std::make_shared<std::mutex>();
    key_mu = slot;
  }
  std::lock_guard<std::mutex> compile_lock(*key_mu);
  // A concurrent winner may have inserted while we waited for the lock.
  if (std::shared_ptr<TraceEntry> hit = Lookup(key)) return hit;
  Result<CompiledTrace> fresh = compile();
  std::shared_ptr<TraceEntry> entry;
  if (fresh.ok()) entry = Insert(s, std::move(fresh).value());
  {
    // Erased after the insert so a latecomer that misses the in-flight map
    // is guaranteed to hit the cache. Waiters hold key_mu via shared_ptr.
    std::lock_guard<std::mutex> lock(mu_);
    compiling_.erase(key);
  }
  AVM_RETURN_NOT_OK(fresh.status());
  *compiled_fresh = true;
  return entry;
}

size_t TraceCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t TraceCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t TraceCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace avm::jit
