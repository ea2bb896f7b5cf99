// Unit tests of the src/cache/ stores: the persistent disk tier (atomic
// writes, corrupt-entry self-healing, LRU eviction, read-only mode). The
// session's memory tier (its mapping claim map) is covered in
// test_session_concurrency, its walk over the persistent tiers in
// test_disk_cache and test_fleet. These run under the CI
// ThreadSanitizer job like every other test, which keeps the concurrent
// store paths race-free.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache_store.hpp"
#include "cache/disk_store.hpp"

namespace pimcomp {
namespace {

namespace fs = std::filesystem;

/// RAII temp directory for disk-store tests.
struct TempDir {
  TempDir() {
    std::string pattern = (fs::temp_directory_path() /
                           "pimcomp-cache-test-XXXXXX")
                              .string();
    char* made = ::mkdtemp(pattern.data());
    EXPECT_NE(made, nullptr);
    path = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

Json payload(int value) {
  Json json = Json::object();
  json["value"] = value;
  return json;
}

CacheEntry artifact_entry(int value) {
  CacheEntry entry;
  entry.artifact = payload(value);
  return entry;
}

// ---------------------------------------------------------------------------
// Hex keys.
// ---------------------------------------------------------------------------

TEST(CacheKeyHex, RoundTripsAndRejectsGarbage) {
  for (std::uint64_t key :
       {0ull, 1ull, 0xdeadbeefull, 0xffffffffffffffffull,
        0x0123456789abcdefull}) {
    const std::string hex = cache_key_hex(key);
    EXPECT_EQ(hex.size(), 16u);
    ASSERT_TRUE(cache_key_from_hex(hex).has_value());
    EXPECT_EQ(*cache_key_from_hex(hex), key);
  }
  EXPECT_EQ(cache_key_hex(0xdeadbeefull), "00000000deadbeef");
  EXPECT_FALSE(cache_key_from_hex("").has_value());
  EXPECT_FALSE(cache_key_from_hex("deadbeef").has_value());          // short
  EXPECT_FALSE(cache_key_from_hex("00000000DEADBEEF").has_value());  // upper
  EXPECT_FALSE(cache_key_from_hex("00000000deadbeeg").has_value());
}

// ---------------------------------------------------------------------------
// DiskStore.
// ---------------------------------------------------------------------------

CacheConfig disk_config(const std::string& dir,
                        std::uint64_t max_bytes = 0) {
  CacheConfig config;
  config.dir = dir;
  config.max_bytes = max_bytes;
  return config;
}

TEST(DiskStoreTest, StoreThenLoadRoundTripsThroughTheFilesystem) {
  TempDir dir;
  DiskStore store(disk_config(dir.path));
  EXPECT_FALSE(store.load(0xabcdef).has_value());
  EXPECT_TRUE(store.store(0xabcdef, artifact_entry(42)));

  // A fresh store instance (a new process, conceptually) sees the entry.
  DiskStore reopened(disk_config(dir.path));
  const auto hit = reopened.load(0xabcdef);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.artifact.get("value", 0), 42);
  // The envelope was stamped on the way in.
  EXPECT_EQ(hit->entry.artifact.get("schema", -1), kCacheSchemaVersion);
  EXPECT_EQ(hit->entry.artifact.get("key", std::string()),
            cache_key_hex(0xabcdef));
}

TEST(DiskStoreTest, NeverRewritesAnExistingArtifact) {
  TempDir dir;
  DiskStore store(disk_config(dir.path));
  EXPECT_TRUE(store.store(1, artifact_entry(1)));
  EXPECT_FALSE(store.store(1, artifact_entry(2)));
  EXPECT_EQ(store.load(1)->entry.artifact.get("value", 0), 1);
}

TEST(DiskStoreTest, ArtifactlessEntriesAreNotPersisted) {
  TempDir dir;
  DiskStore store(disk_config(dir.path));
  EXPECT_FALSE(store.store(1, CacheEntry{}));
  EXPECT_FALSE(store.load(1).has_value());
}

TEST(DiskStoreTest, CorruptArtifactIsAMissAndSelfHeals) {
  TempDir dir;
  DiskStore store(disk_config(dir.path));
  store.store(1, artifact_entry(42));

  // Truncate the artifact mid-file, as a crashed writer without the atomic
  // rename discipline would have.
  const std::string path = store.artifact_path(1);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"schema\": 1, \"ke";
  }
  EXPECT_FALSE(store.load(1).has_value());
  EXPECT_FALSE(fs::exists(path));  // the garbage was unlinked...
  EXPECT_TRUE(store.store(1, artifact_entry(42)));  // ...so a fresh
  EXPECT_TRUE(store.load(1).has_value());                  // store heals it
}

TEST(DiskStoreTest, WrongSchemaOrForeignKeyIsAMiss) {
  TempDir dir;
  DiskStore store(disk_config(dir.path));
  store.store(1, artifact_entry(42));

  // Rewrite the artifact under key 2's path: the envelope still says key 1,
  // so serving it for key 2 would be path aliasing — must be a miss.
  const std::string source_path = store.artifact_path(1);
  const std::string target_path = store.artifact_path(2);
  fs::create_directories(fs::path(target_path).parent_path());
  fs::copy_file(source_path, target_path);
  EXPECT_FALSE(store.load(2).has_value());
  EXPECT_TRUE(store.load(1).has_value());
}

TEST(DiskStoreTest, ReadOnlyModeNeverWrites) {
  TempDir dir;
  {
    DiskStore writer(disk_config(dir.path));
    writer.store(1, artifact_entry(42));
  }
  CacheConfig config = disk_config(dir.path);
  config.read_only = true;
  DiskStore store(config);
  EXPECT_TRUE(store.load(1).has_value());
  EXPECT_FALSE(store.store(2, artifact_entry(2)));
  EXPECT_FALSE(store.load(2).has_value());
  store.erase(1);
  EXPECT_TRUE(store.load(1).has_value());  // erase was a no-op
  EXPECT_EQ(store.purge(), 0u);
  EXPECT_TRUE(store.load(1).has_value());
}

TEST(DiskStoreTest, EvictsOldestWhenOverBudget) {
  TempDir dir;
  // Budget of one artifact-ish: every store pushes the total over and
  // evicts back down to the newest entries that fit.
  DiskStore probe(disk_config(dir.path));
  probe.store(1, artifact_entry(1));
  const std::uint64_t one_artifact = probe.stats().bytes;
  ASSERT_GT(one_artifact, 0u);
  probe.purge();

  DiskStore store(disk_config(dir.path, /*max_bytes=*/one_artifact * 2));
  store.store(1, artifact_entry(1));
  // mtime granularity on some filesystems is coarse; force distinct ages.
  fs::last_write_time(store.artifact_path(1),
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(2));
  store.store(2, artifact_entry(2));
  fs::last_write_time(store.artifact_path(2),
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(1));
  store.store(3, artifact_entry(3));  // over budget: key 1 (oldest) goes
  EXPECT_FALSE(store.load(1).has_value());
  EXPECT_TRUE(store.load(2).has_value());
  EXPECT_TRUE(store.load(3).has_value());
  EXPECT_GE(store.stats().evictions, 1u);
}

TEST(DiskStoreTest, LoadBumpsRecencySoHotEntriesSurviveEviction) {
  TempDir dir;
  DiskStore probe(disk_config(dir.path));
  probe.store(1, artifact_entry(1));
  const std::uint64_t one_artifact = probe.stats().bytes;
  probe.purge();

  DiskStore store(disk_config(dir.path, /*max_bytes=*/one_artifact * 2));
  store.store(1, artifact_entry(1));
  store.store(2, artifact_entry(2));
  // Age both, then touch key 1 via a load: key 2 becomes the LRU victim.
  for (std::uint64_t key : {1ull, 2ull}) {
    fs::last_write_time(store.artifact_path(key),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(key + 1));
  }
  ASSERT_TRUE(store.load(1).has_value());
  store.store(3, artifact_entry(3));
  EXPECT_TRUE(store.load(1).has_value());
  EXPECT_FALSE(store.load(2).has_value());
  EXPECT_TRUE(store.load(3).has_value());
}

TEST(DiskStoreTest, PurgeRemovesEverythingStatsReflectIt) {
  TempDir dir;
  DiskStore store(disk_config(dir.path));
  store.store(1, artifact_entry(1));
  store.store(2, artifact_entry(2));
  EXPECT_EQ(store.stats().entries, 2u);
  EXPECT_GT(store.stats().bytes, 0u);
  EXPECT_EQ(store.purge(), 2u);
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.stats().bytes, 0u);
}

TEST(DiskStoreTest, DestructiveOperationsNeverTouchForeignFiles) {
  // A --cache-dir pointed at a populated directory must be harmless: only
  // files matching the store's own layout (v<N>/<2-hex>/<16-hex>.json and
  // its temp pattern) are eligible for purge or eviction.
  TempDir dir;
  const fs::path root(dir.path);
  fs::create_directories(root / "data");
  const std::vector<fs::path> foreign = {
      root / "report.json",                // .json, but not in the layout
      root / "data" / "results.json",      // nested foreign .json
      root / "data" / "notes.txt",         // old non-json file
      root / "v1" / "ab" / "readme.txt",   // inside the layout dirs, wrong
  };                                       // name shape
  fs::create_directories(root / "v1" / "ab");
  for (const fs::path& path : foreign) {
    std::ofstream out(path);
    out << "precious";
    // Old enough that an unscoped temp sweep would have taken it.
    out.close();
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::hours(48));
  }

  DiskStore store(disk_config(dir.path, /*max_bytes=*/1));  // evict always
  store.store(1, artifact_entry(1));
  store.store(2, artifact_entry(2));  // budget of 1 byte: eviction runs
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.purge(), 0u);
  for (const fs::path& path : foreign) {
    EXPECT_TRUE(fs::exists(path)) << path;
  }
}

/// On-disk bytes of the largest artifact_entry() the tests below store.
std::uint64_t artifact_bytes(const std::string& dir) {
  DiskStore probe(disk_config(dir));
  probe.store(1, artifact_entry(999));
  const std::uint64_t bytes = probe.stats().bytes;
  probe.purge();
  return bytes;
}

TEST(DiskStoreTest, SharedDirectoryOvershootIsBoundedAndWalksRestoreIt) {
  // Two writers of one directory each count only their own bytes between
  // walks, so together they may overshoot the budget by what each writes
  // before it next walks — and a walk by either brings it back.
  TempDir dir;
  const std::uint64_t one = artifact_bytes(dir.path);
  ASSERT_GT(one, 0u);
  const std::uint64_t budget = 16 * one;
  const std::uint64_t bound = budget + 2 * (budget / 8 + one);

  // Alone, a writer's count is the truth: it never leaves the directory
  // over budget.
  {
    TempDir alone_dir;
    DiskStore alone(disk_config(alone_dir.path, budget));
    const DiskStore observer(disk_config(alone_dir.path));  // stats() only
    for (int n = 100; n < 148; ++n) {
      ASSERT_TRUE(
          alone.store(static_cast<std::uint64_t>(n), artifact_entry(n)));
      EXPECT_LE(observer.stats().bytes, budget) << "after store " << n;
    }
    EXPECT_GT(alone.stats().evictions, 0u);
  }

  DiskStore first(disk_config(dir.path, budget));
  DiskStore second(disk_config(dir.path, budget));
  const DiskStore observer(disk_config(dir.path));
  DiskStore* writers[] = {&first, &second};
  std::uint64_t overshoots = 0;
  for (int n = 100; n < 196; ++n) {
    DiskStore& writer = *writers[n % 2];
    const std::uint64_t evictions = writer.stats().evictions;
    ASSERT_TRUE(writer.store(static_cast<std::uint64_t>(n),
                             artifact_entry(n)));
    const std::uint64_t total = observer.stats().bytes;
    EXPECT_LE(total, bound) << "after store " << n;
    if (total > budget) ++overshoots;
    // A walk that evicted stopped only once the directory fit.
    if (writer.stats().evictions > evictions) {
      EXPECT_LE(total, budget) << "after store " << n;
    }
  }
  EXPECT_GT(overshoots, 0u);  // the drift is real, not just allowed
  EXPECT_GT(first.stats().evictions, 0u);
  EXPECT_GT(second.stats().evictions, 0u);
}

TEST(DiskStoreTest, LowOwnCountStillEvictsOtherWritersFilesOnItsWalk) {
  TempDir dir;
  const std::uint64_t one = artifact_bytes(dir.path);
  const std::uint64_t budget = 16 * one;
  DiskStore store(disk_config(dir.path, budget));
  ASSERT_TRUE(store.store(1, artifact_entry(1)));  // first store walks

  // Another writer, unbounded, fills the directory far past the budget.
  DiskStore other(disk_config(dir.path));
  for (std::uint64_t key = 100; key < 124; ++key) {
    ASSERT_TRUE(other.store(key, artifact_entry(static_cast<int>(key))));
    fs::last_write_time(other.artifact_path(key),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(2));
  }

  // `store` counts 3 of its own artifacts, far under budget, and has
  // written no more than budget / 8 since its walk: no walk yet.
  ASSERT_TRUE(store.store(2, artifact_entry(2)));
  ASSERT_TRUE(store.store(3, artifact_entry(3)));
  EXPECT_EQ(store.stats().evictions, 0u);
  EXPECT_GT(store.stats().bytes, budget);

  // Past budget / 8 written since its walk, it walks and evicts the other
  // writer's older files until the directory fits.
  ASSERT_TRUE(store.store(4, artifact_entry(4)));
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_LE(store.stats().bytes, budget);
  EXPECT_FALSE(fs::exists(other.artifact_path(100)));
  for (std::uint64_t key = 1; key <= 4; ++key) {
    EXPECT_TRUE(fs::exists(store.artifact_path(key))) << key;
  }
}

TEST(DiskStoreTest, ConcurrentStoresAndLoadsAreSafe) {
  TempDir dir;
  DiskStore store(disk_config(dir.path));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 16; ++i) {
        const auto key = static_cast<std::uint64_t>(i % 8);
        store.store(key, artifact_entry(static_cast<int>(key)));
        const auto hit = store.load(key);
        if (hit.has_value()) {
          EXPECT_EQ(hit->entry.artifact.get("value", -1),
                    static_cast<int>(key));
        }
      }
      (void)t;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(store.stats().entries, 8u);
}

}  // namespace
}  // namespace pimcomp
