#include "jit/disk_cache.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>

#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace avm::jit {

namespace {

// On-disk entry layout: header then payload, all host-endian (the cache is
// host-local by construction — artifacts are native shared objects).
constexpr char kMagic[8] = {'A', 'V', 'M', 'T', 'R', 'C', '1', '\0'};

struct EntryHeader {
  char magic[8];
  uint64_t version_hash;
  uint64_t situation_key;
  uint64_t source_hash;
  uint64_t reserved;  // written as zero, not checksummed
  uint64_t payload_len;
  uint64_t checksum;
};
static_assert(sizeof(EntryHeader) == 56, "on-disk header layout");

uint64_t EntryChecksum(const EntryHeader& h,
                       const std::vector<uint8_t>& payload) {
  uint64_t c = HashBytes(payload.data(), payload.size());
  c = HashCombine(c, h.version_hash);
  c = HashCombine(c, h.situation_key);
  c = HashCombine(c, h.source_hash);
  return HashCombine(c, h.payload_len);
}

// mkdir -p: create every missing component of `path`.
Status MakeDirs(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    partial = path.substr(0, i == path.size() ? i : i + 1);
    if (partial.empty() || partial == "/") continue;
    if (mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::RuntimeError(
          StrFormat("mkdir %s: %s", partial.c_str(), std::strerror(errno)));
    }
  }
  return Status::OK();
}

uint64_t DefaultBudget() {
  const char* env = std::getenv("AVM_TRACE_CACHE_BUDGET");
  if (env != nullptr && *env != '\0') {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<uint64_t>(v);
  }
  return 256ull << 20;
}

}  // namespace

DiskTraceCache::DiskTraceCache(std::string dir, uint64_t budget_bytes)
    : dir_(std::move(dir)), budget_bytes_(budget_bytes) {
  Status st = MakeDirs(dir_);
  if (!st.ok()) {
    AVM_LOG(kWarning) << "trace cache dir unusable: " << st.ToString();
  }
}

std::shared_ptr<DiskTraceCache> DiskTraceCache::ForDir(const std::string& dir,
                                                       uint64_t budget_bytes) {
  // Leaked registry: one instance per directory, alive for the process so
  // a Session's worker still compiling while exit() runs static destructors
  // can store into it.
  static std::mutex* mu = new std::mutex();
  static auto* registry =
      new std::map<std::string, std::shared_ptr<DiskTraceCache>>();
  std::lock_guard<std::mutex> lock(*mu);
  auto it = registry->find(dir);
  if (it != registry->end()) return it->second;
  auto cache = std::make_shared<DiskTraceCache>(dir, budget_bytes);
  registry->emplace(dir, cache);
  return cache;
}

std::shared_ptr<DiskTraceCache> DiskTraceCache::FromEnv() {
  const char* env = std::getenv("AVM_TRACE_CACHE_DIR");
  if (env == nullptr || *env == '\0') return nullptr;
  return ForDir(env, DefaultBudget());
}

std::string DiskTraceCache::EntryPath(uint64_t situation_key,
                                      uint64_t version_hash) const {
  return StrFormat("%s/t%016llxv%016llx.avmtc", dir_.c_str(),
                   (unsigned long long)situation_key,
                   (unsigned long long)version_hash);
}

Result<JitArtifact> DiskTraceCache::LoadEntry(uint64_t situation_key,
                                              uint64_t source_hash,
                                              uint64_t version_hash,
                                              uint64_t* corrupt_dropped) {
  const std::string path = EntryPath(situation_key, version_hash);
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::NotFound(path);

  EntryHeader h{};
  f.read(reinterpret_cast<char*>(&h), sizeof h);
  bool corrupt = !f || std::memcmp(h.magic, kMagic, sizeof kMagic) != 0 ||
                 h.payload_len > (1ull << 32);
  std::vector<uint8_t> payload;
  if (!corrupt) {
    payload.resize(h.payload_len);
    f.read(reinterpret_cast<char*>(payload.data()),
           static_cast<std::streamsize>(h.payload_len));
    // A trailing byte after the payload, a short read, or a checksum
    // mismatch all mean the entry is not what Store published.
    corrupt = !f || f.peek() != std::ifstream::traits_type::eof() ||
              EntryChecksum(h, payload) != h.checksum;
  }
  f.close();
  if (corrupt) {
    ++corrupt_dropped_;
    if (corrupt_dropped != nullptr) ++*corrupt_dropped;
    std::remove(path.c_str());
    AVM_LOG(kWarning) << "trace cache: dropped corrupt entry " << path;
    return Status::NotFound(path + " (corrupt, dropped)");
  }
  // Defense in depth: the filename already encodes situation and version,
  // but a renamed/cross-linked file must not load into the wrong trace.
  if (h.version_hash != version_hash || h.situation_key != situation_key ||
      h.source_hash != source_hash) {
    std::remove(path.c_str());
    return Status::NotFound(path + " (stale key, dropped)");
  }
  // Touch so LRU eviction sees the hit.
  (void)utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
  return JitArtifact{std::move(payload)};
}

Result<JitArtifact> DiskTraceCache::TryLoad(uint64_t situation_key,
                                            uint64_t source_hash,
                                            uint64_t version_hash,
                                            uint64_t* corrupt_dropped) {
  Result<JitArtifact> r =
      LoadEntry(situation_key, source_hash, version_hash, corrupt_dropped);
  if (r.ok()) {
    ++hits_;
  } else {
    ++misses_;
  }
  return r;
}

Status DiskTraceCache::Store(uint64_t situation_key, uint64_t source_hash,
                             uint64_t version_hash,
                             const JitArtifact& artifact) {
  EntryHeader h{};
  std::memcpy(h.magic, kMagic, sizeof kMagic);
  h.version_hash = version_hash;
  h.situation_key = situation_key;
  h.source_hash = source_hash;
  h.payload_len = artifact.bytes.size();
  h.checksum = EntryChecksum(h, artifact.bytes);

  const std::string path = EntryPath(situation_key, version_hash);
  // Unique temp name per (process, store): concurrent writers of the same
  // entry each publish a complete file; last rename wins with identical
  // content.
  const std::string tmp =
      StrFormat("%s.tmp%d.%llu", path.c_str(), (int)getpid(),
                (unsigned long long)tmp_seq_.fetch_add(1));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return Status::RuntimeError("cannot write " + tmp);
    f.write(reinterpret_cast<const char*>(&h), sizeof h);
    f.write(reinterpret_cast<const char*>(artifact.bytes.data()),
            static_cast<std::streamsize>(artifact.bytes.size()));
    if (!f) {
      f.close();
      std::remove(tmp.c_str());
      return Status::RuntimeError("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::RuntimeError(
        StrFormat("rename %s: %s", path.c_str(), std::strerror(errno)));
  }
  ++stores_;
  EvictOverBudget();
  return Status::OK();
}

void DiskTraceCache::EvictOverBudget() {
  std::lock_guard<std::mutex> lock(mu_);
  DIR* d = opendir(dir_.c_str());
  if (d == nullptr) return;
  struct Entry {
    std::string path;
    uint64_t size;
    int64_t mtime_ns;
  };
  std::vector<Entry> entries;
  uint64_t total = 0;
  while (struct dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    // Entries plus abandoned temp files from crashed writers both count
    // against the budget and are both evictable.
    const bool is_entry = name.size() > 6 &&
                          name.compare(name.size() - 6, 6, ".avmtc") == 0;
    const bool is_tmp = name.find(".avmtc.tmp") != std::string::npos;
    if (!is_entry && !is_tmp) continue;
    const std::string path = dir_ + "/" + name;
    struct stat st {};
    if (stat(path.c_str(), &st) != 0) continue;
    const int64_t mtime_ns =
        int64_t{st.st_mtim.tv_sec} * 1000000000 + st.st_mtim.tv_nsec;
    entries.push_back({path, (uint64_t)st.st_size, mtime_ns});
    total += (uint64_t)st.st_size;
  }
  closedir(d);
  if (total <= budget_bytes_) return;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.mtime_ns < b.mtime_ns;
            });
  for (const Entry& e : entries) {
    if (total <= budget_bytes_) break;
    if (std::remove(e.path.c_str()) != 0) continue;
    total -= e.size;
    ++evictions_;
    AVM_LOG(kDebug) << "trace cache: evicted " << e.path;
  }
}

DiskCacheStats DiskTraceCache::stats() const {
  DiskCacheStats s;
  s.hits = hits_.load();
  s.misses = misses_.load();
  s.corrupt_dropped = corrupt_dropped_.load();
  s.stores = stores_.load();
  s.evictions = evictions_.load();
  return s;
}

}  // namespace avm::jit
