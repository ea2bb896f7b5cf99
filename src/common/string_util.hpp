#ifndef PIMCOMP_COMMON_STRING_UTIL_HPP
#define PIMCOMP_COMMON_STRING_UTIL_HPP

#include <optional>
#include <string>
#include <vector>

namespace pimcomp {

/// Formats a double with `digits` places after the decimal point.
std::string format_double(double value, int digits = 2);

/// Formats a value as "1.23x" multiplier notation used in the paper's plots.
std::string format_ratio(double value, int digits = 2);

/// Formats a byte count with a binary-unit suffix (e.g. "63.4 kB").
std::string format_bytes(double bytes);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Joins strings with a separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Strict base-10 integer parse: the whole token must be an optional '-'
/// and digits (no whitespace, no '+', no trailing characters, no empty
/// string) within long long, else nullopt. The one integer parse every
/// flag/endpoint parser shares.
std::optional<long long> parse_decimal(const std::string& token);

/// The one integer-flag rule of every frontend (pimcomp_cli, pimcompd,
/// pimcomp_router): `token` must be a decimal integer in [min, max], else
/// ConfigError "<flag> wants an integer in [min, max], got '<token>'".
long long parse_int_flag(const std::string& flag, const std::string& token,
                         long long min, long long max);

}  // namespace pimcomp

#endif  // PIMCOMP_COMMON_STRING_UTIL_HPP
