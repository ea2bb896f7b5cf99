#ifndef PIMCOMP_COMMON_FNV1A_HPP
#define PIMCOMP_COMMON_FNV1A_HPP

#include <cstddef>
#include <cstdint>

namespace pimcomp {

/// FNV-1a: the one hash behind every persisted identity (cache keys and
/// artifact fingerprints), so its constants must never change across
/// processes or releases.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

inline std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                           std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace pimcomp

#endif  // PIMCOMP_COMMON_FNV1A_HPP
