#ifndef PIMCOMP_CACHE_TIERED_STORE_HPP
#define PIMCOMP_CACHE_TIERED_STORE_HPP

#include <memory>
#include <vector>

#include "cache/cache_store.hpp"

namespace pimcomp {

/// Read-through / write-through composition of cache tiers, fastest first
/// (the session composes InMemoryStore over DiskStore):
///  * load() consults tiers in order and reports the first hit with that
///    tier's source attribution. It does NOT auto-promote: a deeper tier's
///    artifact is only JSON, and promotion without the decoded object
///    would poison the fast tier with entries that still need parsing.
///    The caller decodes the artifact and store()s the enriched entry
///    back, which is the promotion (the already-populated deeper tiers
///    keep their first-written file untouched).
///  * store() writes through every tier and returns the deepest tier that
///    newly accepted the entry (nullptr when none did).
/// Thread-safe because every tier is.
class TieredStore final : public CacheStore {
 public:
  explicit TieredStore(std::vector<std::unique_ptr<CacheStore>> tiers);

  const char* name() const override { return "tiered"; }

  std::optional<CacheHit> load(std::uint64_t key) override;
  const char* store(std::uint64_t key, const CacheEntry& entry) override;
  void erase(std::uint64_t key) override;
  std::uint64_t purge() override;
  /// Aggregated counters; `entries` is the deepest (most complete) tier's.
  CacheStoreStats stats() const override;

 private:
  std::vector<std::unique_ptr<CacheStore>> tiers_;
};

}  // namespace pimcomp

#endif  // PIMCOMP_CACHE_TIERED_STORE_HPP
