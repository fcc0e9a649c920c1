// Small string helpers (formatting, prefix tests) used by codegen and printers.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

namespace avm {

/// printf-style formatting into a std::string.
inline std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

inline std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

inline bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace avm
