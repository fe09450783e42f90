#include "workload/ycsb.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "workload/zipf.h"

namespace faster {
namespace {

TEST(ZipfTest, RanksAreInRange) {
  ZipfianGenerator gen{1000, 0.99, 1};
  for (int i = 0; i < 100000; ++i) {
    EXPECT_LT(gen.Next(), 1000u);
  }
}

TEST(ZipfTest, LowRanksAreMostPopular) {
  ZipfianGenerator gen{100000, 0.99, 2};
  std::map<uint64_t, uint64_t> counts;
  constexpr int kSamples = 500000;
  for (int i = 0; i < kSamples; ++i) ++counts[gen.Next()];
  // Rank 0 should dominate: with theta=0.99 and n=1e5, p(0) ~ 8%.
  EXPECT_GT(counts[0], kSamples / 25);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[1000]);
}

TEST(ZipfTest, ScrambledPreservesSkewButSpreadsKeys) {
  ScrambledZipfianGenerator gen{100000, 0.99, 3};
  std::map<uint64_t, uint64_t> counts;
  constexpr int kSamples = 500000;
  for (int i = 0; i < kSamples; ++i) ++counts[gen.Next()];
  // The hottest key must not be key 0 deterministically; find the max.
  uint64_t max_count = 0, hot_key = 0;
  for (auto& [k, c] : counts) {
    if (c > max_count) {
      max_count = c;
      hot_key = k;
    }
  }
  EXPECT_GT(max_count, kSamples / 25);  // skew preserved
  // Hot keys spread across the space (scrambling): the hottest key is
  // essentially never in the first 100 slots by chance.
  EXPECT_GT(hot_key, 100u);
}

TEST(UniformTest, RoughlyUniform) {
  UniformKeyGenerator gen{100, 4};
  std::vector<uint64_t> counts(100, 0);
  constexpr int kSamples = 1000000;
  for (int i = 0; i < kSamples; ++i) ++counts[gen.Next()];
  for (uint64_t c : counts) {
    EXPECT_GT(c, kSamples / 100 * 0.9);
    EXPECT_LT(c, kSamples / 100 * 1.1);
  }
}

TEST(HotSetTest, HotSetGetsNinetyPercent) {
  constexpr uint64_t kKeys = 10000;
  HotSetKeyGenerator gen{kKeys, 5, 0.2, 0.9, /*shift_every=*/1u << 30};
  // No shifting: the hot set is [0, 2000).
  uint64_t hot = 0, total = 200000;
  for (uint64_t i = 0; i < total; ++i) {
    if (gen.Next() < kKeys / 5) ++hot;
  }
  double hot_fraction = static_cast<double>(hot) / total;
  EXPECT_GT(hot_fraction, 0.87);
  EXPECT_LT(hot_fraction, 0.93);
}

TEST(HotSetTest, HotSetDriftsOverTime) {
  constexpr uint64_t kKeys = 10000;
  HotSetKeyGenerator gen{kKeys, 6, 0.2, 0.9, /*shift_every=*/1000};
  // After many shifts the original hot window should no longer dominate.
  for (int i = 0; i < 2000000; ++i) gen.Next();
  uint64_t in_original_window = 0, total = 100000;
  for (uint64_t i = 0; i < total; ++i) {
    if (gen.Next() < kKeys / 5) ++in_original_window;
  }
  EXPECT_LT(static_cast<double>(in_original_window) / total, 0.5);
}

TEST(WorkloadSpecTest, MixFractionsAreRespected) {
  auto spec = WorkloadSpec::Ycsb(0.5, 0.0, Distribution::kUniform, 1000);
  auto counts = CountMix(spec, 100000, 7);
  EXPECT_NEAR(static_cast<double>(counts.reads) / 100000, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(counts.upserts) / 100000, 0.5, 0.02);
  EXPECT_EQ(counts.rmws, 0u);
}

TEST(WorkloadSpecTest, RmwMix) {
  auto spec = WorkloadSpec::Ycsb(0.0, 1.0, Distribution::kZipfian, 1000);
  auto counts = CountMix(spec, 50000, 8);
  EXPECT_EQ(counts.rmws, 50000u);
  EXPECT_EQ(spec.Name(), "0:100RMW/zipf");
}

TEST(WorkloadSpecTest, Names) {
  EXPECT_EQ(
      WorkloadSpec::Ycsb(0.5, 0.0, Distribution::kUniform, 1).Name(),
      "50:50/uniform");
  EXPECT_EQ(
      WorkloadSpec::Ycsb(1.0, 0.0, Distribution::kHotSet, 1).Name(),
      "100:0/hotset");
}

}  // namespace
}  // namespace faster
