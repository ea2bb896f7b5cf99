#ifndef PIMCOMP_CACHE_CACHE_CONFIG_HPP
#define PIMCOMP_CACHE_CACHE_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace pimcomp {

/// Version of the persisted artifact schema. Artifacts live under
/// `<dir>/v<kCacheSchemaVersion>/...`, so a version bump makes every older
/// artifact invisible (a clean miss) instead of a parse error. Bump this
/// whenever the artifact JSON shape *or* any fingerprint algorithm changes —
/// the fingerprint-golden tests (tests/test_fingerprint_goldens.cpp) exist
/// to force that decision to be explicit: if they fail, either revert the
/// drift or bump this constant alongside new goldens.
/// v2: fingerprint(CompileOptions) hashes the lowering backend key, and
/// artifacts optionally carry a lowered "stream" section.
/// v3: fingerprint(CompileOptions) hashes the island-model GA knobs
/// (ga.islands, ga.migration_interval) — every option fingerprint moved.
inline constexpr int kCacheSchemaVersion = 3;

/// Where a cache hit or store landed, as reported to observers
/// (CacheEvent::source) and on the wire. The memory tier is the session's
/// in-process store; the disk tier survives the process; the remote tier
/// is a peer pimcompd daemon's disk tier, reached over the wire protocol.
namespace cache_sources {
inline constexpr const char kMemory[] = "memory";
inline constexpr const char kDisk[] = "disk";
inline constexpr const char kRemote[] = "remote";
}  // namespace cache_sources

/// Configuration of a session's persistent artifact tier. An empty `dir`
/// disables the disk tier entirely (the in-memory tier always runs), which
/// keeps the default CompilerSession byte-for-byte at its historical
/// behavior. Deliberately excluded from fingerprint(CompileOptions): where
/// artifacts are stored must never change what is computed.
struct CacheConfig {
  /// Root directory of the disk tier ("" = disabled). Created on demand;
  /// shared safely between concurrent processes (writes are atomic
  /// renames, readers treat partial/corrupt entries as misses).
  std::string dir;

  /// Soft bound on the disk tier's total artifact bytes. Once a store's
  /// running byte count passes it, the least-recently-used artifacts (by
  /// file mtime; reads bump it) are evicted until the total fits again
  /// (DiskStore documents when it walks). 0 = unbounded.
  std::uint64_t max_bytes = 256ull << 20;  // 256 MiB

  /// Read the disk tier but never write it: no stores, no mtime bumps, no
  /// eviction. For fleets where one producer warms a cache many read-only
  /// consumers share.
  bool read_only = false;

  /// Peer pimcompd endpoints ("unix:/run/a.sock", "10.0.0.2:7878") forming
  /// the remote cache tier: misses that fall through memory and disk are
  /// resolved against these daemons' caches over the wire protocol
  /// (cache_get), and freshly computed artifacts are pushed to them
  /// (cache_put). Empty (the default) disables the tier. Remote artifacts
  /// revalidate exactly like disk artifacts, so a lying peer costs a
  /// recompute, never correctness.
  std::vector<std::string> peers;

  /// Per-peer socket send/recv timeout: a hung peer turns into a miss
  /// after this many seconds instead of stalling a compile job.
  int peer_timeout_seconds = 5;

  /// Authentication token attached to every peer request (daemons started
  /// with --auth-token require it). Empty = no auth.
  std::string auth_token;

  /// Disk tier configured (the historical "cache on" predicate — remote
  /// peers are deliberately not part of it; see remote_enabled()).
  bool enabled() const { return !dir.empty(); }

  /// Remote tier configured.
  bool remote_enabled() const { return !peers.empty(); }
};

}  // namespace pimcomp

#endif  // PIMCOMP_CACHE_CACHE_CONFIG_HPP
