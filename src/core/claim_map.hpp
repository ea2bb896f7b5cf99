#ifndef PIMCOMP_CORE_CLAIM_MAP_HPP
#define PIMCOMP_CORE_CLAIM_MAP_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cache/cache_store.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/thread_annotations.hpp"

namespace pimcomp {

/// Once-per-key production whose results stay as the cache: the session's
/// workload and mapping caches are one ClaimMap each. The first caller to
/// claim a key owns it and produces the value; callers arriving meanwhile
/// wait for the owner instead of producing it again. A claim settled with a
/// value *is* the cache entry every later claim hits. A failed claim either
/// stays, as a negative entry whose failure waiters and later claimants
/// rethrow, or is retired, and its waiters claim the key afresh. With
/// `max_entries` > 0 the settled values are a bounded FIFO.
template <typename T>
class ClaimMap {
 public:
  struct Claim {
    Mutex mutex;
    CondVar settled;
    bool done PIMCOMP_GUARDED_BY(mutex) = false;
    std::shared_ptr<const T> value PIMCOMP_GUARDED_BY(mutex);
    std::exception_ptr failure PIMCOMP_GUARDED_BY(mutex);
    /// Claimant; written once under the map's mutex at claim time, before
    /// the shared_ptr is published to any peer — immutable (and safe to
    /// read without `mutex`) afterwards.
    std::thread::id owner;
  };

  /// What claim() found. Exactly one of the two is set, except when the
  /// key's in-flight owner is the calling thread itself (a re-entrant call
  /// from the owner's own observer callback): then neither is, and the
  /// caller produces a private value without waiting on itself.
  struct Ticket {
    std::shared_ptr<const T> value;  ///< settled: a hit
    std::shared_ptr<Claim> owned;    ///< the caller must settle() or fail()
  };

  explicit ClaimMap(std::size_t max_entries = 0) : max_entries_(max_entries) {}

  /// Takes `key`'s claim. Waits while another thread owns it, polling
  /// `cancel` (nullable) every 50 ms so a cancelled waiter leaves promptly;
  /// rethrows a kept failure.
  Ticket claim(std::uint64_t key, const CancelToken* cancel) {
    for (;;) {
      std::shared_ptr<Claim> claim;
      {
        MutexLock lock(mutex_);
        std::shared_ptr<Claim>& slot = claims_[key];
        if (slot == nullptr) {
          slot = std::make_shared<Claim>();
          slot->owner = std::this_thread::get_id();
          ++stats_.misses;
          return Ticket{nullptr, slot};
        }
        claim = slot;
      }
      std::shared_ptr<const T> value;
      {
        MutexLock lock(claim->mutex);
        if (!claim->done && claim->owner == std::this_thread::get_id()) {
          return Ticket{};
        }
        while (!claim->done) {
          claim->settled.wait_for(claim->mutex, std::chrono::milliseconds(50));
          if (cancel != nullptr && cancel->cancelled()) {
            throw CancelledError(
                "cancelled while waiting for an identical in-flight "
                "compilation");
          }
        }
        if (claim->failure != nullptr) std::rethrow_exception(claim->failure);
        value = claim->value;
      }
      // A retired claim carries neither value nor failure: claim afresh.
      if (value != nullptr) {
        MutexLock lock(mutex_);
        ++stats_.hits;
        return Ticket{std::move(value), nullptr};
      }
    }
  }

  /// Publishes the owner's value to its waiters and keeps it as the entry,
  /// evicting the oldest settled entry past the bound.
  void settle(std::uint64_t key, const std::shared_ptr<Claim>& claim,
              std::shared_ptr<const T> value) {
    {
      MutexLock lock(claim->mutex);
      claim->value = std::move(value);
      claim->done = true;
    }
    claim->settled.notify_all();
    MutexLock lock(mutex_);
    ++stats_.stores;
    order_.push_back(key);
    while (max_entries_ != 0 && order_.size() > max_entries_) {
      claims_.erase(order_.front());
      order_.pop_front();
      ++stats_.evictions;
    }
  }

  /// Publishes the owner's failure (nullptr: none to pass on) to its
  /// waiters. With `keep` the claim stays as a negative entry; otherwise it
  /// is retired first, so waiters that wake claim the key afresh.
  void fail(std::uint64_t key, const std::shared_ptr<Claim>& claim,
            std::exception_ptr failure, bool keep) {
    if (!keep) {
      // Only the owner retires its in-flight claim, so the slot is it.
      MutexLock lock(mutex_);
      claims_.erase(key);
    }
    {
      MutexLock lock(claim->mutex);
      claim->failure = std::move(failure);
      claim->done = true;
    }
    claim->settled.notify_all();
  }

  /// hits / misses / stores / evictions since construction; `entries` is
  /// the settled values held now, `bytes` is 0.
  CacheStoreStats stats() const {
    MutexLock lock(mutex_);
    CacheStoreStats stats = stats_;
    stats.entries = order_.size();
    return stats;
  }

 private:
  const std::size_t max_entries_;

  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Claim>> claims_
      PIMCOMP_GUARDED_BY(mutex_);
  /// Keys of the settled values, oldest first.
  std::deque<std::uint64_t> order_ PIMCOMP_GUARDED_BY(mutex_);
  CacheStoreStats stats_ PIMCOMP_GUARDED_BY(mutex_);
};

}  // namespace pimcomp

#endif  // PIMCOMP_CORE_CLAIM_MAP_HPP
