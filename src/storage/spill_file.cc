#include "storage/spill_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/string_util.h"

namespace avm::storage {

namespace {

// Incremental FNV-1a, self-consistent between the write path (AppendRun)
// and the streaming re-read (ValidateChecksums).
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvUpdate(uint64_t state, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    state ^= p[i];
    state *= kFnvPrime;
  }
  return state;
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

std::string ResolveSpillDir(const std::string& requested) {
  if (!requested.empty()) return requested;
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
    std::vector<TypeId> col_types, Options options) {
  if (col_types.empty()) {
    return Status::InvalidArgument("SpillFile: no columns");
  }
  const std::string dir = ResolveSpillDir(options.dir);
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
  uint64_t sum = kFnvOffset;
  uint64_t bytes = 0;
  for (size_t c = 0; c < cols.size(); ++c) {
    const size_t n = static_cast<size_t>(rows) * TypeWidth(col_types_[c]);
    sum = FnvUpdate(sum, cols[c], n);
    AVM_RETURN_NOT_OK(WriteAll(cols[c], n, info.offset + bytes));
    bytes += n;
  }
  info.checksum = sum;
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
    uint64_t sum = kFnvOffset;
    uint64_t off = info.offset;
    uint64_t left = bytes;
    while (left > 0) {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(left,
                                                              buf.size()));
      AVM_RETURN_NOT_OK(PreadAll(fd_, buf.data(), n, off, "run payload"));
      sum = FnvUpdate(sum, buf.data(), n);
      off += n;
      left -= n;
    }
    if (sum != info.checksum) {
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
