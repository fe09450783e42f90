// Additional model-based sweeps: the variable-length store and the LSM
// baseline against reference maps, and an end-to-end check that
// HybridLog's implicit caching keeps a skewed workload's hot set in
// memory (the Sec. 6.4 behaviour, at store level rather than in the
// simulator).

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <unordered_map>

#include "baselines/minilsm/db.h"
#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "workload/keygen.h"

namespace faster {
namespace {

// ---------------------------------------------------------------------------
// FasterKv over byte strings vs. reference map under random mixed ops and
// sizes.
// ---------------------------------------------------------------------------

struct BlobParams {
  std::string name;
  uint64_t mem_pages;
  double mutable_fraction;
  uint32_t max_value;
  uint64_t num_ops;
};
std::ostream& operator<<(std::ostream& os, const BlobParams& p) {
  return os << p.name;
}

class BlobModelTest : public ::testing::TestWithParam<BlobParams> {};

using BlobStore = FasterKv<ByteStringFunctions>;

TEST_P(BlobModelTest, MatchesReferenceModel) {
  const BlobParams& p = GetParam();
  MemoryDevice device;
  BlobStore::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = p.mem_pages << Address::kOffsetBits;
  cfg.log.mutable_fraction = p.mutable_fraction;
  // A pending read's user context points at the Status it completes with.
  cfg.completion_callback = [](BlobStore::UserOp, Status result, void* ctx) {
    *static_cast<Status*>(ctx) = result;
  };
  BlobStore store{cfg, &device};
  store.StartSession();

  std::unordered_map<std::string, std::string> model;
  std::mt19937_64 rng(p.num_ops);
  auto make_key = [&](uint64_t i) {
    return "key:" + std::to_string(i % 5000);
  };
  auto read_store = [&](const std::string& key)
      -> std::pair<bool, std::string> {
    std::string out;
    Status s;
    s = store.Read(key, {}, &out, &s);
    if (s == Status::kPending) {
      EXPECT_TRUE(store.CompletePending(true));
    }
    EXPECT_TRUE(s == Status::kOk || s == Status::kNotFound) << key;
    return {s == Status::kOk, out};
  };

  for (uint64_t i = 0; i < p.num_ops; ++i) {
    std::string key = make_key(rng());
    switch (rng() % 3) {
      case 0: {
        std::string value(1 + rng() % p.max_value,
                          static_cast<char>('a' + rng() % 26));
        ASSERT_EQ(store.Upsert(key, value), Status::kOk);
        model[key] = value;
        break;
      }
      case 1: {
        Status s = store.Delete(key);
        bool existed = model.erase(key) > 0;
        ASSERT_EQ(s == Status::kOk, existed) << key << " op " << i;
        break;
      }
      case 2: {
        auto [found, value] = read_store(key);
        auto it = model.find(key);
        ASSERT_EQ(found, it != model.end()) << key << " op " << i;
        if (found) {
          ASSERT_EQ(value, it->second) << key << " op " << i;
        }
        break;
      }
    }
  }
  for (const auto& [key, value] : model) {
    auto [found, got] = read_store(key);
    ASSERT_TRUE(found) << key;
    ASSERT_EQ(got, value) << key;
  }
  store.StopSession();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BlobModelTest,
    ::testing::Values(
        BlobParams{"in_memory_small_values", 16, 0.9, 32, 40000},
        BlobParams{"spilling_mixed_sizes", 2, 0.5, 800, 60000},
        BlobParams{"with_slack", 4, 0.5, 200, 50000},
        BlobParams{"append_heavy", 2, 0.0, 120, 60000}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// MiniLsm vs. reference map under random mixed ops.
// ---------------------------------------------------------------------------

struct LsmParams {
  std::string name;
  uint64_t memtable_kb;
  uint32_t value_size;
  uint64_t key_space;
  uint64_t num_ops;
};
std::ostream& operator<<(std::ostream& os, const LsmParams& p) {
  return os << p.name;
}

class LsmModelTest : public ::testing::TestWithParam<LsmParams> {};

TEST_P(LsmModelTest, MatchesReferenceModel) {
  const LsmParams& p = GetParam();
  std::string dir = "/tmp/minilsm_model_" + p.name;
  std::filesystem::remove_all(dir);
  minilsm::LsmConfig cfg;
  cfg.dir = dir;
  cfg.value_size = p.value_size;
  cfg.memtable_bytes = p.memtable_kb << 10;
  minilsm::MiniLsm db{cfg};

  std::unordered_map<uint64_t, uint64_t> model;
  std::mt19937_64 rng(p.num_ops ^ 0xF00D);
  std::vector<uint8_t> buf(p.value_size, 0);
  for (uint64_t i = 0; i < p.num_ops; ++i) {
    uint64_t key = rng() % p.key_space;
    switch (rng() % 3) {
      case 0: {
        uint64_t v = rng();
        std::memcpy(buf.data(), &v, 8);
        ASSERT_EQ(db.Put(key, buf.data()), Status::kOk);
        model[key] = v;
        break;
      }
      case 1: {
        ASSERT_EQ(db.Delete(key), Status::kOk);
        model.erase(key);
        break;
      }
      case 2: {
        Status s = db.Get(key, buf.data());
        auto it = model.find(key);
        ASSERT_EQ(s == Status::kOk, it != model.end())
            << "key " << key << " op " << i;
        if (s == Status::kOk) {
          uint64_t v;
          std::memcpy(&v, buf.data(), 8);
          ASSERT_EQ(v, it->second) << "key " << key << " op " << i;
        }
        break;
      }
    }
  }
  for (const auto& [key, value] : model) {
    ASSERT_EQ(db.Get(key, buf.data()), Status::kOk) << key;
    uint64_t v;
    std::memcpy(&v, buf.data(), 8);
    ASSERT_EQ(v, value) << key;
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LsmModelTest,
    ::testing::Values(LsmParams{"tiny_memtable", 32, 8, 2000, 40000},
                      LsmParams{"wide_values", 64, 100, 1000, 25000},
                      LsmParams{"churny", 16, 8, 300, 50000}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// End-to-end HybridLog caching behaviour (Sec. 6.4): under a skewed
// workload over a larger-than-memory dataset, the hot set stays in memory
// — the storage-read rate must be far below the cold-key access rate and
// far below the uniform workload's.
// ---------------------------------------------------------------------------

TEST(HybridLogCachingTest, SkewKeepsHotSetInMemory) {
  using Store = FasterKv<CountStoreFunctions>;
  auto run = [](Distribution dist) {
    MemoryDevice device;
    Store::Config cfg;
    cfg.table_size = 1 << 16;
    cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;  // 8 MB
    cfg.log.mutable_fraction = 0.9;
    Store store{cfg, &device};
    store.StartSession();
    constexpr uint64_t kKeys = 1 << 20;  // 24 MB of records: 3x memory
    for (uint64_t k = 0; k < kKeys; ++k) store.Upsert(k, 1);
    auto keys = MakeKeyGenerator(dist, kKeys, 99);
    uint64_t before_ios = store.GetStats().pending_ios;
    constexpr uint64_t kOps = 400000;
    for (uint64_t i = 0; i < kOps; ++i) {
      Status s = store.Rmw(keys->Next(), 1);
      EXPECT_TRUE(s == Status::kOk || s == Status::kPending);
      if (i % 4096 == 0) store.CompletePending(false);
    }
    store.CompletePending(true);
    double miss_rate =
        static_cast<double>(store.GetStats().pending_ios - before_ios) /
        static_cast<double>(kOps);
    store.StopSession();
    return miss_rate;
  };
  double zipf_miss = run(Distribution::kZipfian);
  double uniform_miss = run(Distribution::kUniform);
  // Uniform over 3x-memory data: most accesses miss. Zipf: the hybrid
  // log's shaping keeps the hot set resident, so misses are far rarer.
  EXPECT_GT(uniform_miss, 0.4);
  EXPECT_LT(zipf_miss, uniform_miss / 3);
}

}  // namespace
}  // namespace faster
