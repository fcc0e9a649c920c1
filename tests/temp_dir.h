// Private temporary directory for one test: created under $TMPDIR (fallback
// /tmp) and removed, with everything in it, when the helper goes out of
// scope — so a test run leaves nothing behind in the temp directory. A
// ScopedSpillDir points the spill files of its lifetime into one.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

namespace avm {

class TempDir {
 public:
  /// Creates `<$TMPDIR>/<prefix>_XXXXXX`.
  explicit TempDir(const std::string& prefix) {
    const char* env = std::getenv("TMPDIR");
    std::string tmpl = env != nullptr && *env != '\0' ? env : "/tmp";
    tmpl += "/" + prefix + "_XXXXXX";
    const char* dir = ::mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr) << tmpl;
    if (dir != nullptr) path_ = dir;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Points AVM_SPILL_DIR at a not yet existing directory inside a fresh
/// private TempDir for its lifetime, restoring the previous value after.
/// The first spill file creates the directory, so `used()` shows that a
/// query spilled there and `files()` what it left behind. Set it while no
/// Session runs: workers read the variable.
class ScopedSpillDir {
 public:
  explicit ScopedSpillDir(const std::string& prefix)
      : parent_(prefix), dir_(parent_.path() + "/spill") {
    if (const char* old = std::getenv("AVM_SPILL_DIR")) old_ = old;
    ::setenv("AVM_SPILL_DIR", dir_.c_str(), 1);
  }
  ~ScopedSpillDir() {
    if (old_.has_value()) {
      ::setenv("AVM_SPILL_DIR", old_->c_str(), 1);
    } else {
      ::unsetenv("AVM_SPILL_DIR");
    }
  }
  ScopedSpillDir(const ScopedSpillDir&) = delete;
  ScopedSpillDir& operator=(const ScopedSpillDir&) = delete;

  bool used() const { return std::filesystem::is_directory(dir_); }
  size_t files() const {
    if (!used()) return 0;
    size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      (void)e;
      ++n;
    }
    return n;
  }

 private:
  TempDir parent_;
  std::string dir_;
  std::optional<std::string> old_;
};

}  // namespace avm
