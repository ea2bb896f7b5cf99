#include "cache/memory_store.hpp"

#include <utility>

namespace pimcomp {

std::optional<CacheHit> InMemoryStore::load(std::uint64_t key) {
  std::shared_ptr<const CacheEntry> found;
  {
    MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    found = it->second;
  }
  return CacheHit{*found};
}

bool InMemoryStore::store(std::uint64_t key, const CacheEntry& entry) {
  // An in-process consumer only ever uses the decoded object; when one is
  // present the (possibly megabytes-large) JSON artifact is redundant here
  // — the persistent tier is the one that keeps it. Entries without a
  // decoded object keep their artifact, so a pure-JSON store still works.
  CacheEntry kept;
  if (entry.decoded != nullptr) {
    kept.decoded = entry.decoded;  // don't even copy the dropped artifact
  } else {
    kept = entry;
  }
  auto stored = std::make_shared<const CacheEntry>(std::move(kept));
  MutexLock lock(mutex_);
  if (!entries_.emplace(key, std::move(stored)).second) return false;
  ++stats_.stores;
  order_.push_back(key);
  // FIFO eviction: outstanding shared_ptr copies handed to callers keep
  // their payloads alive; only the cache's reference is dropped.
  while (max_entries_ != 0 && order_.size() > max_entries_) {
    entries_.erase(order_.front());
    order_.pop_front();
    ++stats_.evictions;
  }
  return true;
}

void InMemoryStore::erase(std::uint64_t key) {
  MutexLock lock(mutex_);
  if (entries_.erase(key) == 0) return;
  // O(entries) scan, but erase() only runs on the rare undecodable-artifact
  // path; leaving the stale key would make FIFO eviction over-evict later.
  for (auto it = order_.begin(); it != order_.end(); ++it) {
    if (*it == key) {
      order_.erase(it);
      break;
    }
  }
}

CacheStoreStats InMemoryStore::stats() const {
  MutexLock lock(mutex_);
  CacheStoreStats stats = stats_;
  stats.entries = entries_.size();
  stats.bytes = 0;
  return stats;
}

}  // namespace pimcomp
