#ifndef PIMCOMP_CACHE_DISK_STORE_HPP
#define PIMCOMP_CACHE_DISK_STORE_HPP

#include <atomic>
#include <string>

#include "cache/cache_store.hpp"
#include "common/thread_annotations.hpp"

namespace pimcomp {

/// The persistent cache tier: a content-addressed, versioned, on-disk
/// artifact store. One JSON artifact per key at
///
///   <dir>/v<kCacheSchemaVersion>/<first-2-hex>/<16-hex-key>.json
///
/// Discipline, chosen so any number of processes (several pimcompd
/// daemons, CLI runs, CI jobs) can share one directory with no lock file:
///  * writes go to a unique temp file in the destination directory and
///    land via rename(2) — readers never observe a partial artifact;
///  * loads that find an unreadable, unparseable, or wrong-envelope file
///    treat it as a miss and unlink the garbage (crash tolerance: a torn
///    tmp file or a truncated artifact self-heals on next touch);
///  * a slot that already holds a readable artifact is never rewritten
///    (keys are content fingerprints — a racing writer carries identical
///    bytes);
///  * total size is bounded by LRU eviction: loads bump the artifact's
///    mtime, stores evict oldest-mtime files (any schema version) until
///    the configured budget fits again.
/// read_only mode does none of the writes: no stores, no mtime bumps, no
/// unlinks, no eviction. Destructive maintenance (eviction, purge) walks
/// ONLY the store's own layout — paths matching
/// `v<digits>/<2-hex>/<16-hex>.json` and this store's temp-file pattern —
/// so pointing `dir` at a populated directory never endangers foreign
/// files.
class DiskStore final : public CacheStore {
 public:
  /// Does not touch the filesystem; directories appear on first store.
  /// Requires config.enabled().
  explicit DiskStore(CacheConfig config);

  const char* name() const override { return cache_sources::kDisk; }
  const CacheConfig& config() const { return config_; }

  std::optional<CacheHit> load(std::uint64_t key) override;
  bool store(std::uint64_t key, const CacheEntry& entry) override;
  void erase(std::uint64_t key) override;
  /// Removes every artifact file under `dir` (all schema versions); backs
  /// `pimcomp_cli cache purge`.
  std::uint64_t purge();
  /// `entries`/`bytes` are a directory walk at call time: artifact files of
  /// the *current* schema version / bytes across all versions.
  CacheStoreStats stats() const override;

  /// Path the artifact for `key` lives at (exposed for tests/tooling).
  std::string artifact_path(std::uint64_t key) const;

 private:
  /// Drops oldest-mtime artifacts until total bytes fit the budget.
  void evict_to_budget();

  const CacheConfig config_;
  std::atomic<std::uint64_t> tmp_counter_{0};  ///< unique temp-file names

  mutable Mutex stats_mutex_;
  /// hit/miss/store/eviction counters only; the artifacts themselves are
  /// deliberately lock-free — rename(2) discipline keeps multi-process
  /// sharing safe (see class comment).
  CacheStoreStats counters_ PIMCOMP_GUARDED_BY(stats_mutex_);
};

}  // namespace pimcomp

#endif  // PIMCOMP_CACHE_DISK_STORE_HPP
