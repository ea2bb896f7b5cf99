#ifndef PIMCOMP_CACHE_MEMORY_STORE_HPP
#define PIMCOMP_CACHE_MEMORY_STORE_HPP

#include <deque>
#include <unordered_map>

#include "cache/cache_store.hpp"
#include "common/thread_annotations.hpp"

namespace pimcomp {

/// The in-process cache tier: CompilerSession's historical mutex-guarded
/// map, extracted. Bounded FIFO when `max_entries > 0` (the session's
/// mapping cache keeps a long-lived sweep's memory flat; 0 = unbounded).
/// Insertion keeps the first writer: when two
/// identical scenarios raced to compute one key, their payloads are
/// bit-identical anyway, and keeping the first preserves the deterministic
/// hit accounting the pre-refactor session had. Entries carrying a decoded
/// object are stored decoded-only (the JSON artifact is redundant in
/// process — the persistent tier keeps it); artifact-only entries are kept
/// as-is.
class InMemoryStore final : public CacheStore {
 public:
  explicit InMemoryStore(std::size_t max_entries = 0)
      : max_entries_(max_entries) {}

  const char* name() const override { return cache_sources::kMemory; }

  std::optional<CacheHit> load(std::uint64_t key) override;
  bool store(std::uint64_t key, const CacheEntry& entry) override;
  void erase(std::uint64_t key) override;
  CacheStoreStats stats() const override;

 private:
  const std::size_t max_entries_;

  mutable Mutex mutex_;
  // shared_ptr values so a hit only copies a pointer under the lock; the
  // (potentially large) payload copy happens in the caller, outside it.
  std::unordered_map<std::uint64_t, std::shared_ptr<const CacheEntry>>
      entries_ PIMCOMP_GUARDED_BY(mutex_);
  /// insertion order for FIFO eviction
  std::deque<std::uint64_t> order_ PIMCOMP_GUARDED_BY(mutex_);
  CacheStoreStats stats_ PIMCOMP_GUARDED_BY(mutex_);  ///< counters only
};

}  // namespace pimcomp

#endif  // PIMCOMP_CACHE_MEMORY_STORE_HPP
