#include "storage/spill_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/string_util.h"

namespace avm::storage {

namespace {

// Streaming 64-bit checksum of one run's payload: four independent lanes
// over 32-byte stripes, each 8-byte word mixed in with xxHash64's round
// (its high bits fold down through the rotate), then xxHash64's tail and
// avalanche. A partial stripe carries over between Update calls, so the
// digest depends only on the bytes, not on how AppendRun (column by
// column) and ValidateChecksums (fixed-size reads) split them.
class RunHasher {
 public:
  void Update(const void* data, size_t n) {
    if (n == 0) return;  // `data` may be null
    const auto* p = static_cast<const uint8_t*>(data);
    total_ += n;
    if (held_ > 0) {
      const size_t take = std::min(n, kStripe - held_);
      std::memcpy(stripe_ + held_, p, take);
      held_ += take;
      p += take;
      n -= take;
      if (held_ < kStripe) return;
      Stripe(stripe_);
      held_ = 0;
    }
    for (; n >= kStripe; p += kStripe, n -= kStripe) Stripe(p);
    std::memcpy(stripe_, p, n);
    held_ = n;
  }

  uint64_t Digest() const {
    uint64_t h = kP5;
    if (total_ >= kStripe) {
      h = std::rotl(lane_[0], 1) + std::rotl(lane_[1], 7) +
          std::rotl(lane_[2], 12) + std::rotl(lane_[3], 18);
      for (uint64_t lane : lane_) h = (h ^ Round(0, lane)) * kP1 + kP4;
    }
    h += total_;
    size_t i = 0;
    for (; i + 8 <= held_; i += 8) {
      h = std::rotl(h ^ Round(0, Load<uint64_t>(stripe_ + i)), 27) * kP1 + kP4;
    }
    if (i + 4 <= held_) {
      h = std::rotl(h ^ Load<uint32_t>(stripe_ + i) * kP1, 23) * kP2 + kP3;
      i += 4;
    }
    for (; i < held_; ++i) h = std::rotl(h ^ stripe_[i] * kP5, 11) * kP1;
    h = (h ^ (h >> 33)) * kP2;
    h = (h ^ (h >> 29)) * kP3;
    return h ^ (h >> 32);
  }

 private:
  static constexpr size_t kStripe = 32;
  static constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
  static constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  static constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

  template <typename W>
  static uint64_t Load(const uint8_t* p) {
    W w;
    std::memcpy(&w, p, sizeof(w));
    return w;
  }
  static uint64_t Round(uint64_t acc, uint64_t word) {
    return std::rotl(acc + word * kP2, 31) * kP1;
  }
  void Stripe(const uint8_t* p) {
    for (size_t l = 0; l < 4; ++l) {
      lane_[l] = Round(lane_[l], Load<uint64_t>(p + 8 * l));
    }
  }

  uint64_t lane_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  uint8_t stripe_[kStripe] = {};
  size_t held_ = 0;
  uint64_t total_ = 0;
};

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

std::string ResolveSpillDir() {
  const char* env = std::getenv("AVM_SPILL_DIR");
  if (env != nullptr && *env != '\0') return env;
  const char* tmp = std::getenv("TMPDIR");
  if (tmp != nullptr && *tmp != '\0') return tmp;
  return "/tmp";
}

// Simulated-ENOSPC test hook: remaining writable bytes; negative = off.
std::atomic<int64_t> g_write_limit{-1};

Status PreadAll(int fd, void* out, size_t n, uint64_t offset,
                const char* what) {
  auto* p = static_cast<uint8_t*>(out);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = pread(fd, p + done, n - done,
                            static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::RuntimeError(StrFormat("spill file read (%s): %s", what,
                                            std::strerror(errno)));
    }
    if (r == 0) {
      return Status::RuntimeError(
          StrFormat("spill file truncated (%s): wanted %zu bytes at offset "
                    "%llu, got %zu",
                    what, n, (unsigned long long)offset, done));
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

void SpillFile::SetWriteLimitForTesting(int64_t bytes) {
  g_write_limit.store(bytes, std::memory_order_relaxed);
}

Status SpillFile::WriteAll(const void* data, size_t n, uint64_t offset) {
  // The fault hook decrements the allowance first, so a capped run fails
  // exactly like a full disk: possibly mid-payload, after a short write.
  size_t allowed = n;
  int64_t limit = g_write_limit.load(std::memory_order_relaxed);
  if (limit >= 0) {
    allowed = std::min<size_t>(n, static_cast<size_t>(limit));
    g_write_limit.store(limit - static_cast<int64_t>(allowed),
                        std::memory_order_relaxed);
  }
  const auto* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < allowed) {
    const ssize_t w = pwrite(fd_, p + done, allowed - done,
                             static_cast<off_t>(offset + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC) {
        return Status::ResourceExhausted(
            StrFormat("spill write: disk full at %s", path_.c_str()));
      }
      return Status::RuntimeError(StrFormat("spill write %s: %s",
                                            path_.c_str(),
                                            std::strerror(errno)));
    }
    done += static_cast<size_t>(w);
  }
  if (done < n) {
    return Status::ResourceExhausted(StrFormat(
        "spill write: disk full at %s (short write, %zu of %zu bytes)",
        path_.c_str(), done, n));
  }
  return Status::OK();
}

Result<std::unique_ptr<SpillFile>> SpillFile::Create(
    std::vector<TypeId> col_types) {
  if (col_types.empty()) {
    return Status::InvalidArgument("SpillFile: no columns");
  }
  const std::string dir = ResolveSpillDir();
  AVM_RETURN_NOT_OK(MakeDirs(dir));
  static std::atomic<uint64_t> seq{0};
  auto f = std::unique_ptr<SpillFile>(new SpillFile());
  f->path_ = StrFormat("%s/avm-spill-%d-%llu.avmsp", dir.c_str(),
                       static_cast<int>(getpid()),
                       (unsigned long long)seq.fetch_add(1));
  f->fd_ = open(f->path_.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (f->fd_ < 0) {
    return Status::RuntimeError(StrFormat("open %s: %s", f->path_.c_str(),
                                          std::strerror(errno)));
  }
  f->col_types_ = std::move(col_types);
  return f;
}

Result<uint64_t> SpillFile::AppendRun(uint64_t morsel, uint64_t rows,
                                      const std::vector<const uint8_t*>& cols) {
  if (fd_ < 0 || sealed_) {
    return Status::InvalidArgument("AppendRun on a sealed or closed spill file");
  }
  if (cols.size() != col_types_.size()) {
    return Status::InvalidArgument(
        StrFormat("AppendRun: %zu columns, spill file has %zu", cols.size(),
                  col_types_.size()));
  }
  RunInfo info;
  info.morsel = morsel;
  info.rows = rows;
  info.offset = bytes_written_;
  RunHasher sum;
  uint64_t bytes = 0;
  for (size_t c = 0; c < cols.size(); ++c) {
    const size_t n = static_cast<size_t>(rows) * TypeWidth(col_types_[c]);
    sum.Update(cols[c], n);
    AVM_RETURN_NOT_OK(WriteAll(cols[c], n, info.offset + bytes));
    bytes += n;
  }
  info.checksum = sum.Digest();
  runs_.push_back(info);
  bytes_written_ += bytes;
  return static_cast<uint64_t>(runs_.size() - 1);
}

Status SpillFile::Seal() {
  sealed_ = true;
  return Status::OK();
}

Status SpillFile::ValidateChecksums() {
  std::vector<uint8_t> buf(256 * 1024);
  for (size_t r = 0; r < runs_.size(); ++r) {
    const RunInfo& info = runs_[r];
    uint64_t bytes = 0;
    for (TypeId t : col_types_) bytes += info.rows * TypeWidth(t);
    RunHasher sum;
    uint64_t off = info.offset;
    uint64_t left = bytes;
    while (left > 0) {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(left,
                                                              buf.size()));
      AVM_RETURN_NOT_OK(PreadAll(fd_, buf.data(), n, off, "run payload"));
      sum.Update(buf.data(), n);
      off += n;
      left -= n;
    }
    if (sum.Digest() != info.checksum) {
      return Status::RuntimeError(StrFormat(
          "spill run %zu corrupt (checksum mismatch) in %s", r,
          path_.c_str()));
    }
  }
  return Status::OK();
}

Status SpillFile::ReadRunChunk(uint64_t run, size_t col, uint64_t row_begin,
                               uint64_t rows, void* out) const {
  if (run >= runs_.size() || col >= col_types_.size()) {
    return Status::OutOfRange(
        StrFormat("spill read: run %llu col %zu out of range",
                  (unsigned long long)run, col));
  }
  const RunInfo& info = runs_[run];
  if (row_begin + rows > info.rows) {
    return Status::OutOfRange(StrFormat(
        "spill read: rows [%llu, %llu) past run of %llu rows",
        (unsigned long long)row_begin, (unsigned long long)(row_begin + rows),
        (unsigned long long)info.rows));
  }
  uint64_t off = info.offset;
  for (size_t c = 0; c < col; ++c) off += info.rows * TypeWidth(col_types_[c]);
  const size_t w = TypeWidth(col_types_[col]);
  off += row_begin * w;
  return PreadAll(fd_, out, static_cast<size_t>(rows) * w, off, "run chunk");
}

void SpillFile::Close() {
  if (fd_ < 0) return;
  close(fd_);
  fd_ = -1;
  // Spill files are query scratch: fault paths must not leak them (tests
  // assert the directory drains).
  (void)unlink(path_.c_str());
}

SpillFile::~SpillFile() { Close(); }

}  // namespace avm::storage
