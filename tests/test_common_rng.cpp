// Deterministic RNG: reproducibility, bounds, and distribution sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.hpp"

namespace risa {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(1, 32);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 32);
  }
}

TEST(Rng, UniformIntSinglePoint) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_THROW((void)rng.uniform_int(6, 5), std::invalid_argument);
}

TEST(Rng, UniformIntCoversAllValuesRoughlyEqually) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int n = 80'000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 7))];
  }
  for (int c : counts) {
    // Expected 10000 each; 5-sigma band ~ +-500.
    EXPECT_NEAR(c, n / 8, 600);
  }
}

TEST(Rng, Uniform01Range) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  // The paper's arrival process: Poisson with mean inter-arrival 10 tu.
  Rng rng(17);
  double sum = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.25);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(19);
  for (double mean : {0.5, 4.0, 30.0, 100.0}) {
    double sum = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_THROW((void)rng.poisson(-1.0), std::invalid_argument);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(23);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(29);
  const std::vector<double> w{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30'000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.weighted_index(w)];
  }
  EXPECT_NEAR(counts[0], n * 0.1, 350);
  EXPECT_NEAR(counts[1], n * 0.3, 500);
  EXPECT_NEAR(counts[2], n * 0.6, 600);
  EXPECT_THROW((void)rng.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)rng.weighted_index({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, JumpProducesDecorrelatedStream) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace risa
