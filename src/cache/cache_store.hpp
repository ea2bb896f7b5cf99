#ifndef PIMCOMP_CACHE_CACHE_STORE_HPP
#define PIMCOMP_CACHE_CACHE_STORE_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "cache/cache_config.hpp"
#include "common/json.hpp"

namespace pimcomp {

/// One cached artifact as it moves between tiers: the canonical versioned
/// JSON the disk tier persists and peers exchange. The session encodes it
/// only when a disk or remote tier is configured, so the memory-only
/// default never pays for encoding; its in-process results live in its
/// claim map, not in a store.
struct CacheEntry {
  Json artifact;

  bool has_artifact() const { return !artifact.is_null(); }
};

/// A successful load. The caller knows which tier it asked, so the hit
/// carries only the entry.
struct CacheHit {
  CacheEntry entry;
};

/// Lifetime counters of one store (monotonic except entries/bytes, which
/// track the current contents).
struct CacheStoreStats {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;  ///< disk tier: artifact bytes on disk; memory
                            ///< tier: 0 (in-process sizes are unknowable)
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;
};

/// A keyed artifact store: one slot per 64-bit fingerprint. This is the
/// seam the session's persistent caching is built on — DiskStore adds
/// cross-process persistence and fleet::RemoteStore reaches peer daemons.
/// The session holds them as one ordered tier list below its in-process
/// claim map and walks it itself (see docs/api.md).
/// Implementations are thread-safe; keys are content fingerprints, so two
/// racing writers of one key always carry identical payloads and "first
/// writer wins" is a correctness-preserving policy everywhere.
class CacheStore {
 public:
  virtual ~CacheStore() = default;

  /// Tier name for diagnostics and cache events: one of cache_sources
  /// ("memory", "disk", "remote").
  virtual const char* name() const = 0;

  /// Looks `key` up. Never throws: any unreadable/corrupt/mismatched
  /// persisted entry is a miss.
  virtual std::optional<CacheHit> load(std::uint64_t key) = 0;

  /// Stores `entry` under `key`. Returns true when this store newly
  /// accepted the entry, false when nothing was stored (slot already
  /// occupied or I/O failure — stores are best-effort and never throw).
  virtual bool store(std::uint64_t key, const CacheEntry& entry) = 0;

  /// Drops `key` where this store can (e.g. after the caller found a
  /// persisted artifact undecodable at a level the store cannot check).
  virtual void erase(std::uint64_t key) = 0;

  virtual CacheStoreStats stats() const = 0;
  /// stats() without work that grows with the contents: a store whose
  /// entries/bytes take a walk (DiskStore) reports them as 0 here.
  virtual CacheStoreStats counters() const { return stats(); }
};

/// Formats a cache key the way the disk tier names files: 16 lowercase hex
/// digits, zero-padded ("00c0ffee00c0ffee"). Json numbers are doubles, so
/// 64-bit fingerprints travel as these strings inside artifacts too.
std::string cache_key_hex(std::uint64_t key);

/// Inverse of cache_key_hex; std::nullopt for anything that is not exactly
/// 16 hex digits.
std::optional<std::uint64_t> cache_key_from_hex(const std::string& hex);

/// True when `artifact` is an object whose envelope names this build's
/// schema (kCacheSchemaVersion) and `key`. Never throws: a wrongly typed
/// envelope field is simply a mismatch.
bool envelope_matches(const Json& artifact, std::uint64_t key);

}  // namespace pimcomp

#endif  // PIMCOMP_CACHE_CACHE_STORE_HPP
