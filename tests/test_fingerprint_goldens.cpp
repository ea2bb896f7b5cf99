// Pinned fingerprint goldens. The disk tier names persisted artifacts by
// fingerprint(Graph/HardwareConfig/CompileOptions) and
// combine_fingerprints, so these values are an on-disk schema shared
// across processes and releases: if any of them drifts, every warm cache
// silently goes cold (or worse, a changed-but-colliding hash serves stale
// artifacts). A failure here is a one-bit decision, made explicit:
//  * unintended drift — revert the change that altered hashing; or
//  * intended drift — bump kCacheSchemaVersion in src/cache/ AND update
//    these goldens in the same commit.
//
// The values are pinned for the platform CI runs on (x86-64 Linux, LP64):
// scalar fields are hashed through their in-memory bytes, so a different
// ABI would legitimately produce different keys — and gets a disjoint
// cache namespace for free.

#include <gtest/gtest.h>

#include <string>

#include "cache/cache_store.hpp"
#include "core/session.hpp"
#include "graph/zoo/zoo.hpp"

namespace pimcomp {
namespace {

std::string hex_fingerprint(std::uint64_t fp) { return cache_key_hex(fp); }

TEST(FingerprintGoldens, CombineFingerprintsIsPinned) {
  EXPECT_EQ(hex_fingerprint(combine_fingerprints(0, 0)),
            "88201fb960ff6465");
  EXPECT_EQ(hex_fingerprint(combine_fingerprints(1, 2)),
            "7717980363c8e066");
  // Order-dependent by design: (a, b) and (b, a) are different identities.
  EXPECT_NE(combine_fingerprints(1, 2), combine_fingerprints(2, 1));
}

TEST(FingerprintGoldens, DefaultHardwareIsPinned) {
  EXPECT_EQ(hex_fingerprint(fingerprint(HardwareConfig::puma_default())),
            "ddb7cc463b90c234");
}

TEST(FingerprintGoldens, DefaultOptionsArePinned) {
  // v2: the lowering backend key joined the hash; v3: the island-model GA
  // knobs (ga.islands, ga.migration_interval) joined it (each schema bump
  // recorded in kCacheSchemaVersion).
  EXPECT_EQ(hex_fingerprint(fingerprint(CompileOptions{})),
            "f28d664c108e4262");

  // The seed IS identity (equal seeds are the bit-identical contract).
  CompileOptions reseeded;
  reseeded.seed = 2;
  EXPECT_NE(fingerprint(reseeded), fingerprint(CompileOptions{}));

  // The lowering backend is identity too: an artifact with a stream must
  // never be served to a requester that asked for a different backend
  // (or none at all).
  CompileOptions lowered;
  lowered.backend = "isa-json";
  EXPECT_NE(fingerprint(lowered), fingerprint(CompileOptions{}));

  // The island-model GA knobs are identity: islands=1 and islands=4 walk
  // different GA trajectories, so their artifacts must never be confused.
  CompileOptions single_island;
  single_island.ga.islands = 1;
  EXPECT_NE(fingerprint(single_island), fingerprint(CompileOptions{}));
  CompileOptions eager_migration;
  eager_migration.ga.migration_interval = 1;
  EXPECT_NE(fingerprint(eager_migration), fingerprint(CompileOptions{}));
}

TEST(FingerprintGoldens, ZooModelGraphsArePinned) {
  Graph squeezenet = zoo::build("squeezenet", 32);
  squeezenet.finalize();
  EXPECT_EQ(hex_fingerprint(fingerprint(squeezenet)), "d5637a2f49526308");

  Graph resnet = zoo::build("resnet18", 64);
  resnet.finalize();
  EXPECT_EQ(hex_fingerprint(fingerprint(resnet)), "84e1f5241a11110f");
}

TEST(FingerprintGoldens, ComposedCacheKeysArePinned) {
  // The exact keys the disk tier files artifacts under for the two zoo
  // models at default hardware and default options — end-to-end pins of
  // fingerprint() x combine_fingerprints() together.
  Graph squeezenet = zoo::build("squeezenet", 32);
  squeezenet.finalize();
  const std::uint64_t workload_fp = combine_fingerprints(
      fingerprint(squeezenet), fingerprint(HardwareConfig::puma_default()));
  const std::uint64_t mapping_key =
      combine_fingerprints(workload_fp, fingerprint(CompileOptions{}));
  EXPECT_EQ(hex_fingerprint(workload_fp), "8eed0b2275a84a85");
  EXPECT_EQ(hex_fingerprint(mapping_key), "8f5cc47c4268f4be");
}

}  // namespace
}  // namespace pimcomp
