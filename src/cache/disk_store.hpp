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
///    mtime, and a walk of the directory evicts oldest-mtime files (any
///    schema version) until the configured budget fits again.
/// A store costs O(its own bytes), not O(directory): each instance keeps a
/// running byte count of the directory, seeded and reset to the true total
/// by every walk and raised by each artifact it writes. store() walks only
/// when this instance has not walked yet, when the count exceeds
/// max_bytes, or when it has written more than max_bytes / 8 since its
/// last walk (unbounded stores walk once, to sweep stale temp files). A
/// single writer therefore evicts exactly when the directory exceeds the
/// budget. Other writers of the same directory (processes, or other
/// instances in one process) are invisible to the count until the next
/// walk, so k writers may overshoot by about k x max_bytes / 8 between
/// walks; every walk brings the directory back within budget.
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
  /// The lifetime counters alone, without the walk (entries/bytes are 0).
  CacheStoreStats counters() const override;

  /// Path the artifact for `key` lives at (exposed for tests/tooling).
  std::string artifact_path(std::uint64_t key) const;

 private:
  /// Whether the running byte count calls for a walk (see class comment).
  bool walk_due() const PIMCOMP_REQUIRES(stats_mutex_);
  /// The walk: sweeps stale temp files, resets the byte count to the true
  /// total, and drops oldest-mtime artifacts until it fits the budget.
  void evict_to_budget() PIMCOMP_EXCLUDES(stats_mutex_);

  const CacheConfig config_;
  std::atomic<std::uint64_t> tmp_counter_{0};  ///< unique temp-file names

  /// Serializes this instance's walks, so a store queued behind one
  /// re-checks the fresh count instead of walking again.
  Mutex walk_mutex_;
  mutable Mutex stats_mutex_;
  /// hit/miss/store/eviction counters and the byte count only; the
  /// artifacts themselves are deliberately lock-free — rename(2) discipline
  /// keeps multi-process sharing safe (see class comment).
  CacheStoreStats counters_ PIMCOMP_GUARDED_BY(stats_mutex_);
  bool walked_ PIMCOMP_GUARDED_BY(stats_mutex_) = false;
  /// Directory bytes as of the last walk plus what this instance wrote.
  std::uint64_t bytes_ PIMCOMP_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t written_since_walk_ PIMCOMP_GUARDED_BY(stats_mutex_) = 0;
};

}  // namespace pimcomp

#endif  // PIMCOMP_CACHE_DISK_STORE_HPP
