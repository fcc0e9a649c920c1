// Minimal leveled logging. The adaptive VM logs strategy switches at kDebug
// so benchmark output stays clean by default.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>

namespace avm {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Global log threshold; messages below it are dropped.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal {
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line) : level_(level) {
    stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line
            << "] ";
  }
  ~LogMessage() {
    if (level_ >= GetLogLevel()) {
      std::fprintf(stderr, "%s\n", stream_.str().c_str());
    }
  }
  std::ostringstream& stream() { return stream_; }

 private:
  static const char* LevelName(LogLevel l) {
    switch (l) {
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO";
      case LogLevel::kWarning: return "WARN";
      case LogLevel::kError: return "ERROR";
    }
    return "?";
  }
  static const char* Basename(const char* path) {
    const char* base = path;
    for (const char* p = path; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    return base;
  }
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace internal

/// Streams one message at `level`. Below the threshold nothing is
/// evaluated or formatted: the statement costs one load.
#define AVM_LOG(level)                                                     \
  if (::avm::LogLevel::level < ::avm::GetLogLevel()) {                     \
  } else                                                                   \
    ::avm::internal::LogMessage(::avm::LogLevel::level, __FILE__, __LINE__) \
        .stream()

}  // namespace avm
