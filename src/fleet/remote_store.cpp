#include "fleet/remote_store.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "cache/remote_tier.hpp"
#include "common/error.hpp"
#include "serve/protocol.hpp"

namespace pimcomp::fleet {

namespace {

/// Ceiling of the reconnect backoff: a dead peer costs one connect attempt
/// per window at most, and recovers within 2s of coming back.
constexpr std::chrono::milliseconds kMaxBackoff{2000};

}  // namespace

RemoteStore::RemoteStore(CacheConfig config) : config_(std::move(config)) {
  PIMCOMP_CHECK(config_.remote_enabled(),
                "RemoteStore needs at least one peer endpoint");
  peers_.reserve(config_.peers.size());
  for (const std::string& endpoint : config_.peers) {
    peers_.push_back(std::make_unique<Peer>(endpoint));
  }
}

bool RemoteStore::ensure_connected_locked(Peer& peer) {
  if (peer.channel != nullptr) return true;
  if (peer.failures > 0 &&
      std::chrono::steady_clock::now() < peer.retry_at) {
    return false;  // backoff window still open
  }
  try {
    serve::Socket socket = serve::connect_endpoint(peer.endpoint);
    socket.set_send_timeout(config_.peer_timeout_seconds);
    socket.set_recv_timeout(config_.peer_timeout_seconds);
    peer.channel = std::make_unique<serve::LineChannel>(std::move(socket));
    peer.failures = 0;
    return true;
  } catch (const std::exception&) {
    mark_failed_locked(peer);
    return false;
  }
}

void RemoteStore::mark_failed_locked(Peer& peer) {
  peer.channel.reset();
  peer.failures = std::min(peer.failures + 1, 8);
  const std::chrono::milliseconds backoff = std::min(
      std::chrono::milliseconds(100) * (1 << std::min(peer.failures - 1, 5)),
      kMaxBackoff);
  peer.retry_at = std::chrono::steady_clock::now() + backoff;
}

std::optional<Json> RemoteStore::roundtrip(Peer& peer, const std::string& line,
                                           std::int64_t id) {
  MutexLock lock(peer.mutex);
  if (!ensure_connected_locked(peer)) return std::nullopt;
  try {
    peer.channel->write_line(line);
    for (;;) {
      std::optional<std::string> line = peer.channel->read_line();
      if (!line.has_value()) {
        mark_failed_locked(peer);  // peer closed mid-request
        return std::nullopt;
      }
      if (line->empty()) continue;
      Json reply = Json::parse(*line);
      const std::string type = reply.get("type", std::string());
      if (type == "cache_result" &&
          reply.get("id", std::int64_t{0}) == id) {
        return reply;
      }
      if (type == "error") {
        const std::int64_t error_id = reply.get("id", std::int64_t{0});
        if (error_id == id || error_id == 0) {
          // Rejection (bad auth, malformed frame as the peer sees it):
          // dropping the connection and backing off rate-limits a
          // misconfiguration to one attempt per window.
          mark_failed_locked(peer);
          return std::nullopt;
        }
      }
      // Anything else is a stale or foreign frame: skip it; the socket
      // recv timeout bounds how long we will keep looking.
    }
  } catch (const std::exception&) {
    mark_failed_locked(peer);  // timeout, broken pipe, garbage JSON
    return std::nullopt;
  }
}

std::optional<CacheHit> RemoteStore::load(std::uint64_t key) {
  for (const std::unique_ptr<Peer>& peer : peers_) {
    const std::int64_t id = next_id_.fetch_add(1);
    serve::CacheGetRequest request;
    request.id = id;
    request.key = key;
    request.auth = config_.auth_token;
    std::optional<Json> reply =
        roundtrip(*peer, to_json(request).dump(-1), id);
    if (!reply.has_value() || !reply->get("found", false) ||
        !reply->contains("artifact")) {
      continue;
    }
    // Same envelope check DiskStore applies to its own files: a peer's
    // answer earns no extra trust for having arrived over a socket. The
    // caller then revalidates content fingerprints before adopting it.
    Json artifact = std::move((*reply)["artifact"]);
    if (!envelope_matches(artifact, key)) continue;
    {
      MutexLock lock(stats_mutex_);
      ++counters_.hits;
    }
    CacheEntry entry;
    entry.artifact = std::move(artifact);
    return CacheHit{std::move(entry)};
  }
  MutexLock lock(stats_mutex_);
  ++counters_.misses;
  return std::nullopt;
}

bool RemoteStore::store(std::uint64_t key, const CacheEntry& entry) {
  if (!entry.has_artifact()) return false;
  bool any_stored = false;
  for (const std::unique_ptr<Peer>& peer : peers_) {
    const std::int64_t id = next_id_.fetch_add(1);
    serve::CachePutRequest request;  // the artifact goes straight to the line
    request.id = id;
    request.key = key;
    request.auth = config_.auth_token;
    std::optional<Json> reply =
        roundtrip(*peer, serve::cache_put_line(request, entry.artifact), id);
    if (reply.has_value() && reply->get("stored", false)) any_stored = true;
  }
  if (!any_stored) return false;
  MutexLock lock(stats_mutex_);
  ++counters_.stores;
  return true;
}

void RemoteStore::erase(std::uint64_t /*key*/) {
  // Deliberately local-only (see header): no wire-level delete exists, and
  // revalidation on load means a stale peer entry cannot do damage.
}

CacheStoreStats RemoteStore::stats() const {
  MutexLock lock(stats_mutex_);
  return counters_;
}

namespace {

/// Installs RemoteStore as the session's remote cache tier through the
/// cache/remote_tier.hpp seam — linking this TU is what makes
/// CacheConfig::peers usable, the same way PIMCOMP_REGISTER_MAPPER TUs
/// make a --mapper key usable.
[[maybe_unused]] const bool remote_tier_registered = [] {
  register_remote_tier_factory(
      +[](const CacheConfig& config) -> std::unique_ptr<CacheStore> {
        return std::make_unique<RemoteStore>(config);
      });
  return true;
}();

}  // namespace

}  // namespace pimcomp::fleet
