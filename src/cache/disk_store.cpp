#include "cache/disk_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace pimcomp {

namespace fs = std::filesystem;

namespace {

/// A store walks once its own writes since the last walk pass this share
/// of the budget: other writers of the directory are invisible to its byte
/// count, so this bounds how far each of them can push the directory over
/// before some walk sees it.
constexpr std::uint64_t kBudgetShareBetweenWalks = 8;

/// Everything the eviction scan needs about one on-disk file.
struct ArtifactFile {
  fs::path path;
  fs::file_time_type mtime;
  std::uint64_t bytes = 0;
};

/// One pass over the store's directory tree.
struct StoreScan {
  std::vector<ArtifactFile> artifacts;  ///< layout-valid artifact files
  std::vector<ArtifactFile> temps;      ///< this store's temp-file pattern
};

bool is_version_dir_name(const std::string& name) {
  if (name.size() < 2 || name[0] != 'v') return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return true;
}

bool stat_file(const fs::directory_entry& entry, ArtifactFile* out) {
  std::error_code ec;
  if (!entry.is_regular_file(ec) || ec) return false;
  out->path = entry.path();
  out->mtime = entry.last_write_time(ec);
  if (ec) return false;
  out->bytes = entry.file_size(ec);
  return !ec;
}

/// Walks ONLY the store's own layout — `<root>/v<digits>/<2-hex>/
/// <16-hex>.json` plus the `.<name>.tmp.<pid>.<n>` temp files next to the
/// artifacts. Every destructive operation (eviction, purge) is fed by this
/// scan, so a --cache-dir pointed at a populated directory can never put
/// foreign files at risk: nothing outside the layout is even looked at.
/// Error-tolerant: files racing concurrent eviction/purge drop out.
StoreScan scan_store(const fs::path& root) {
  StoreScan scan;
  std::error_code ec;
  for (const fs::directory_entry& version_dir :
       fs::directory_iterator(root, ec)) {
    if (ec) break;
    std::error_code dir_ec;
    if (!version_dir.is_directory(dir_ec) || dir_ec ||
        !is_version_dir_name(version_dir.path().filename().string())) {
      continue;
    }
    std::error_code prefix_ec;
    for (const fs::directory_entry& prefix_dir :
         fs::directory_iterator(version_dir.path(), prefix_ec)) {
      if (prefix_ec) break;
      std::error_code sub_ec;
      if (!prefix_dir.is_directory(sub_ec) || sub_ec) continue;
      const std::string prefix = prefix_dir.path().filename().string();
      std::error_code file_ec;
      for (const fs::directory_entry& entry :
           fs::directory_iterator(prefix_dir.path(), file_ec)) {
        if (file_ec) break;
        const std::string name = entry.path().filename().string();
        ArtifactFile file;
        if (entry.path().extension() == ".json") {
          // `<16-hex>.json`, filed under its own 2-hex prefix.
          const std::string stem = entry.path().stem().string();
          if (cache_key_from_hex(stem).has_value() &&
              stem.compare(0, 2, prefix) == 0 && stat_file(entry, &file)) {
            scan.artifacts.push_back(std::move(file));
          }
        } else if (name.size() > 1 && name[0] == '.' &&
                   name.find(".json.tmp.") != std::string::npos &&
                   stat_file(entry, &file)) {
          scan.temps.push_back(std::move(file));
        }
      }
    }
  }
  return scan;
}

}  // namespace

DiskStore::DiskStore(CacheConfig config) : config_(std::move(config)) {
  PIMCOMP_CHECK(config_.enabled(), "DiskStore needs a cache directory");
}

std::string DiskStore::artifact_path(std::uint64_t key) const {
  const std::string hex = cache_key_hex(key);
  return (fs::path(config_.dir) /
          ("v" + std::to_string(kCacheSchemaVersion)) / hex.substr(0, 2) /
          (hex + ".json"))
      .string();
}

std::optional<CacheHit> DiskStore::load(std::uint64_t key) {
  const fs::path path = artifact_path(key);
  const auto miss = [this]() -> std::optional<CacheHit> {
    MutexLock lock(stats_mutex_);
    ++counters_.misses;
    return std::nullopt;
  };

  const std::optional<std::string> text = read_file(path.string());
  if (!text.has_value()) return miss();

  Json artifact;
  bool valid = false;
  try {
    artifact = Json::parse(*text);
    valid = envelope_matches(artifact, key);
  } catch (const std::exception&) {
    valid = false;
  }
  if (!valid) {
    // Corrupt, truncated, or foreign content in our slot: a miss — and the
    // garbage is removed so the next store() can lay down a good artifact
    // (stores never overwrite an existing file). Narrow the unlink races
    // with a concurrent writer renaming a *valid* artifact onto this path
    // between our read and our remove: only unlink while the file still
    // has the size we actually read. A racing rename that slips through
    // anyway costs one recompute, never correctness.
    std::error_code ec;
    const std::uintmax_t size_now = fs::file_size(path, ec);
    if (!ec && size_now == text->size()) fs::remove(path, ec);
    return miss();
  }

  // LRU bookkeeping: a hit makes this artifact the youngest. Best-effort;
  // a filesystem that refuses just ages the entry faster.
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  {
    MutexLock lock(stats_mutex_);
    ++counters_.hits;
  }
  CacheEntry entry;
  entry.artifact = std::move(artifact);
  return CacheHit{std::move(entry)};
}

bool DiskStore::store(std::uint64_t key, const CacheEntry& entry) {
  if (!entry.has_artifact()) return false;
  const fs::path path = artifact_path(key);
  std::error_code ec;
  if (fs::exists(path, ec)) return false;  // first writer won already

  // An artifact whose envelope already names this slot (every artifact the
  // session encodes) is dumped as it is; only a foreign envelope is copied
  // to restamp it.
  std::string text;
  if (envelope_matches(entry.artifact, key)) {
    entry.artifact.dump_to(text);
  } else {
    if (!entry.artifact.is_object()) return false;
    Json artifact = entry.artifact;
    artifact["schema"] = kCacheSchemaVersion;
    artifact["key"] = cache_key_hex(key);
    artifact.dump_to(text);
  }
  text.push_back('\n');

  // Unique temp name in the destination directory (rename must not cross
  // filesystems): pid disambiguates processes, the counter disambiguates
  // threads, and a crashed writer's leftover is swept by a later walk.
  const fs::path tmp =
      path.parent_path() /
      ("." + path.filename().string() + ".tmp." +
       std::to_string(::getpid()) + "." +
       std::to_string(tmp_counter_.fetch_add(1)));
  try {
    fs::create_directories(path.parent_path());
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return false;
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
      out.flush();
      if (!out.good()) {
        out.close();
        fs::remove(tmp, ec);
        return false;
      }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
      fs::remove(tmp, ec);
      return false;
    }
  } catch (const std::exception&) {
    fs::remove(tmp, ec);
    return false;
  }
  bool walk = false;
  {
    MutexLock lock(stats_mutex_);
    ++counters_.stores;
    bytes_ += text.size();
    written_since_walk_ += text.size();
    walk = walk_due();
  }
  if (walk) evict_to_budget();
  return true;
}

void DiskStore::erase(std::uint64_t key) {
  std::error_code ec;
  fs::remove(artifact_path(key), ec);
}

std::uint64_t DiskStore::purge() {
  std::uint64_t removed = 0;
  std::error_code ec;
  const StoreScan scan = scan_store(config_.dir);
  for (const ArtifactFile& file : scan.artifacts) {
    if (fs::remove(file.path, ec)) ++removed;
  }
  // Temp files are this store's garbage too; purging means empty.
  for (const ArtifactFile& file : scan.temps) fs::remove(file.path, ec);
  return removed;
}

bool DiskStore::walk_due() const {
  if (!walked_) return true;
  if (config_.max_bytes == 0) return false;  // unbounded: one temp sweep
  return bytes_ > config_.max_bytes ||
         written_since_walk_ > config_.max_bytes / kBudgetShareBetweenWalks;
}

void DiskStore::evict_to_budget() {
  MutexLock walk_lock(walk_mutex_);
  std::uint64_t written_before = 0;
  {
    MutexLock lock(stats_mutex_);
    if (!walk_due()) return;  // the walk this one queued behind covered it
    written_before = written_since_walk_;
  }
  StoreScan scan = scan_store(config_.dir);

  // Leftover temp files from crashed writers are unreachable garbage, but
  // a *young* temp file may be a concurrent writer mid-store — only sweep
  // ones old enough that no live write can still own them. An unbounded
  // (max_bytes == 0) store walks too, once: orphaned temps would otherwise
  // accumulate there forever, with nothing but an explicit purge to remove
  // them.
  std::error_code ec;
  const auto tmp_cutoff =
      fs::file_time_type::clock::now() - std::chrono::hours(1);
  for (const ArtifactFile& tmp : scan.temps) {
    if (tmp.mtime < tmp_cutoff) fs::remove(tmp.path, ec);
  }
  std::uint64_t total = 0;
  for (const ArtifactFile& file : scan.artifacts) total += file.bytes;
  std::uint64_t evicted = 0;
  // Unbounded (max_bytes == 0) stores never evict artifacts.
  if (config_.max_bytes != 0 && total > config_.max_bytes) {
    std::sort(scan.artifacts.begin(), scan.artifacts.end(),
              [](const ArtifactFile& a, const ArtifactFile& b) {
                return a.mtime < b.mtime;
              });
    for (const ArtifactFile& file : scan.artifacts) {
      if (total <= config_.max_bytes) break;
      if (!fs::remove(file.path, ec) || ec) continue;
      total -= std::min(total, file.bytes);
      ++evicted;
    }
  }

  MutexLock lock(stats_mutex_);
  counters_.evictions += evicted;
  walked_ = true;
  // Stores that landed during the scan may or may not be in `total`; they
  // stay in the count, so it errs high (an early walk), never low.
  written_since_walk_ -= written_before;
  bytes_ = total + written_since_walk_;
}

CacheStoreStats DiskStore::counters() const {
  MutexLock lock(stats_mutex_);
  return counters_;
}

CacheStoreStats DiskStore::stats() const {
  CacheStoreStats stats = counters();
  const std::string version_dir =
      "v" + std::to_string(kCacheSchemaVersion);
  for (const ArtifactFile& file : scan_store(config_.dir).artifacts) {
    stats.bytes += file.bytes;
    // Current-schema artifacts only count as entries; older versions are
    // dead weight awaiting eviction.
    const fs::path version = file.path.parent_path().parent_path();
    if (version.filename() == version_dir) ++stats.entries;
  }
  return stats;
}

}  // namespace pimcomp
