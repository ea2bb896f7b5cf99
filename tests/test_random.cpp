#include "common/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

namespace pimcomp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, ReseedRestoresStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next_u64(), first[static_cast<std::size_t>(i)]);
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(17);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 17);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(5);
  std::vector<bool> seen(8, false);
  for (int i = 0; i < 1000; ++i) {
    seen[static_cast<std::size_t>(rng.uniform_int(8))] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Rng, UniformIntLargeBoundStaysInRange) {
  Rng rng(23);
  const int bound = std::numeric_limits<int>::max();
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(bound);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, bound);
  }
}

TEST(Rng, UniformIntIsUnbiasedAcrossBuckets) {
  // Regression for the old modulo implementation: with Lemire rejection
  // sampling every bucket of a non-power-of-two bound is hit ~equally
  // (expectation 400 per bucket; bounds are ~5 sigma, and the seed is
  // fixed so the test is deterministic).
  Rng rng(29);
  const int bound = 3 * 7 * 11;
  std::vector<int> counts(static_cast<std::size_t>(bound), 0);
  for (int i = 0; i < bound * 400; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(bound))];
  }
  for (int count : counts) {
    EXPECT_GT(count, 300);
    EXPECT_LT(count, 500);
  }
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_range(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, PickIndexValid) {
  Rng rng(19);
  const std::vector<int> v{1, 2, 3};
  for (int i = 0; i < 100; ++i) {
    const int idx = rng.pick_index(v);
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 3);
  }
}

}  // namespace
}  // namespace pimcomp
