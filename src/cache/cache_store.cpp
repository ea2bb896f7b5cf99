#include "cache/cache_store.hpp"

namespace pimcomp {

std::string cache_key_hex(std::uint64_t key) {
  static constexpr const char* digits = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = digits[key & 0xf];
    key >>= 4;
  }
  return hex;
}

std::optional<std::uint64_t> cache_key_from_hex(const std::string& hex) {
  if (hex.size() != 16) return std::nullopt;
  std::uint64_t key = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return std::nullopt;
    key = (key << 4) | static_cast<std::uint64_t>(digit);
  }
  return key;
}

bool envelope_matches(const Json& artifact, std::uint64_t key) {
  if (!artifact.contains("schema") || !artifact.contains("key")) return false;
  const Json& schema = artifact.at("schema");
  const Json& stamped = artifact.at("key");
  return schema.is_number() && schema.as_number() == kCacheSchemaVersion &&
         stamped.is_string() && stamped.as_string() == cache_key_hex(key);
}

}  // namespace pimcomp
