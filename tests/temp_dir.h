// Private temporary directory for one test: created under $TMPDIR (fallback
// /tmp) and removed, with everything in it, when the helper goes out of
// scope — so a test run leaves nothing behind in the temp directory.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
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

}  // namespace avm
