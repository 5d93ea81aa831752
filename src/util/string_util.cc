#include "util/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cctype>

namespace stisan {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

Result<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty number");
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size())
    return Status::InvalidArgument("malformed double: '" + buf + "'");
  return v;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty number");
  std::string buf(s);
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size())
    return Status::InvalidArgument("malformed int: '" + buf + "'");
  return static_cast<int64_t>(v);
}

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return fallback;
  return static_cast<int64_t>(parsed);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

}  // namespace stisan
