#ifndef PIMCOMP_FLEET_REMOTE_STORE_HPP
#define PIMCOMP_FLEET_REMOTE_STORE_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_store.hpp"
#include "common/thread_annotations.hpp"
#include "serve/net.hpp"

namespace pimcomp::fleet {

/// The network cache tier: a CacheStore that resolves misses from peer
/// `pimcompd` daemons over the wire protocol (cache_get) and pushes freshly
/// computed artifacts to them (cache_put). The session holds it as the
/// deepest tier of its list — memory, then disk, then remote — so a daemon
/// restarted with an empty disk answers its first request from a peer
/// instead of recomputing the mapping. A hit here is promoted into the
/// tiers above it only; nothing the session reads is pushed back.
///
/// Trust model: a peer's artifact is treated exactly like a disk file, not
/// like an RPC result. load() checks the versioned envelope (schema +
/// embedded key) before reporting a hit, and the caller revalidates the
/// content fingerprints the same way it does for disk artifacts — a lying,
/// stale, or corrupted peer therefore costs one recompute, never a wrong
/// result.
///
/// Failure model: every peer operation is best-effort with a bounded
/// budget. Each peer gets one pooled connection, guarded by its own mutex;
/// socket send/recv timeouts (CacheConfig::peer_timeout_seconds) turn a
/// hung peer into a miss, and a failed peer is skipped until an
/// exponential-backoff deadline passes (100ms doubling to a 2s cap), so a
/// dead daemon costs at most one connect attempt per backoff window, not
/// one per lookup.
///
/// erase() is deliberately a local no-op: the protocol carries no remote
/// delete, and because remote entries revalidate on every load, a bad
/// entry left on a peer can never propagate — peers self-heal when their
/// own DiskStore unlinks the garbage.
class RemoteStore final : public CacheStore {
 public:
  /// Requires config.remote_enabled(). Does not connect; connections are
  /// opened lazily on first use and re-opened after failures.
  explicit RemoteStore(CacheConfig config);

  const char* name() const override { return cache_sources::kRemote; }
  const CacheConfig& config() const { return config_; }

  /// Asks each peer in configuration order; first valid answer wins.
  std::optional<CacheHit> load(std::uint64_t key) override;

  /// Offers the artifact to every peer (first writer wins on each, like a
  /// local store). Returns true when at least one peer newly accepted it.
  /// An entry without an artifact (its encoding failed) is not sent.
  bool store(std::uint64_t key, const CacheEntry& entry) override;

  /// No-op (see class comment).
  void erase(std::uint64_t key) override;

  /// Counters only; `entries`/`bytes` are 0 (peer contents are theirs to
  /// report via their own stats request).
  CacheStoreStats stats() const override;

 private:
  /// One pooled peer connection. The mutex serializes the whole
  /// request/response round trip — the protocol is synchronous per
  /// connection, so interleaving two lookups would cross-wire replies.
  struct Peer {
    explicit Peer(std::string ep) : endpoint(std::move(ep)) {}

    const std::string endpoint;
    Mutex mutex;
    std::unique_ptr<serve::LineChannel> channel PIMCOMP_GUARDED_BY(mutex);
    int failures PIMCOMP_GUARDED_BY(mutex) = 0;
    std::chrono::steady_clock::time_point retry_at
        PIMCOMP_GUARDED_BY(mutex){};
  };

  /// Connects the peer if needed; false while its backoff window is open
  /// or the connect failed (which opens the next window).
  bool ensure_connected_locked(Peer& peer) PIMCOMP_REQUIRES(peer.mutex);
  void mark_failed_locked(Peer& peer) PIMCOMP_REQUIRES(peer.mutex);

  /// Sends the request `line` and reads frames until the cache_result (or
  /// error) matching `id`; std::nullopt on any failure (connection
  /// dropped, timeout, rejection), after which the peer is backed off.
  std::optional<Json> roundtrip(Peer& peer, const std::string& line,
                                std::int64_t id) PIMCOMP_EXCLUDES(peer.mutex);

  const CacheConfig config_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::atomic<std::int64_t> next_id_{1};

  mutable Mutex stats_mutex_;
  CacheStoreStats counters_ PIMCOMP_GUARDED_BY(stats_mutex_);
};

}  // namespace pimcomp::fleet

#endif  // PIMCOMP_FLEET_REMOTE_STORE_HPP
