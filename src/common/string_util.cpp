#include "common/string_util.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace pimcomp {

std::string format_double(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return std::string(buf);
}

std::string format_ratio(double value, int digits) {
  return format_double(value, digits) + "x";
}

std::string format_bytes(double bytes) {
  const char* units[] = {"B", "kB", "MB", "GB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 3) {
    bytes /= 1024.0;
    ++unit;
  }
  return format_double(bytes, unit == 0 ? 0 : 1) + " " + units[unit];
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) oss << sep;
    oss << parts[i];
  }
  return oss.str();
}

std::optional<long long> parse_decimal(const std::string& token) {
  // from_chars, unlike stoll, takes no leading whitespace or '+'.
  long long value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value, 10);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

long long parse_int_flag(const std::string& flag, const std::string& token,
                         long long min, long long max) {
  const std::optional<long long> value = parse_decimal(token);
  if (!value.has_value() || *value < min || *value > max) {
    throw ConfigError(flag + " wants an integer in [" + std::to_string(min) +
                      ", " + std::to_string(max) + "], got '" + token + "'");
  }
  return *value;
}

}  // namespace pimcomp
