// Checkpoint/recovery property tests (Sec. 6.5), parameterized over store
// configurations. A single-threaded history is applied, a checkpoint
// taken, more operations run (which must NOT appear after recovery), and a
// recovered store is compared against the model at checkpoint time.

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <unordered_map>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"

namespace faster {
namespace {

struct RecoveryParams {
  std::string name;
  uint64_t table_size;
  uint64_t mem_pages;
  double mutable_fraction;
  uint64_t key_space;
  uint64_t ops_before;
  uint64_t ops_after;
};
std::ostream& operator<<(std::ostream& os, const RecoveryParams& p) {
  return os << p.name;
}

using Store = FasterKv<CountStoreFunctions>;

Store::Config MakeConfig(const RecoveryParams& p) {
  Store::Config cfg;
  cfg.table_size = p.table_size;
  cfg.log.memory_size_bytes = p.mem_pages << Address::kOffsetBits;
  cfg.log.mutable_fraction = p.mutable_fraction;
  return cfg;
}

class RecoveryTest : public ::testing::TestWithParam<RecoveryParams> {};

TEST_P(RecoveryTest, RecoveredStateEqualsCheckpointState) {
  const RecoveryParams& p = GetParam();
  std::string dir = "/tmp/faster_recovery_prop_" + p.name;
  std::filesystem::remove_all(dir);
  MemoryDevice device;

  std::unordered_map<uint64_t, uint64_t> model;
  std::mt19937_64 rng(p.ops_before);
  {
    Store store{MakeConfig(p), &device};
    store.StartSession();
    for (uint64_t i = 0; i < p.ops_before; ++i) {
      uint64_t key = rng() % p.key_space;
      switch (rng() % 3) {
        case 0: {
          uint64_t v = rng() % 100000;
          ASSERT_EQ(store.Upsert(key, v), Status::kOk);
          model[key] = v;
          break;
        }
        case 1: {
          uint64_t d = rng() % 100;
          Status s = store.Rmw(key, d);
          ASSERT_TRUE(s == Status::kOk || s == Status::kPending);
          if (s == Status::kPending) {
            ASSERT_TRUE(store.CompletePending(true));
          }
          model[key] += d;  // InitialUpdater(d) on absent == 0 + d
          break;
        }
        case 2: {
          store.Delete(key);
          model.erase(key);
          break;
        }
      }
    }
    ASSERT_TRUE(store.CompletePending(true));
    ASSERT_EQ(store.Checkpoint(dir), Status::kOk);
    // Post-checkpoint writes: all of these must be absent after recovery.
    for (uint64_t i = 0; i < p.ops_after; ++i) {
      uint64_t key = rng() % p.key_space;
      ASSERT_EQ(store.Upsert(key, UINT64_MAX / 2), Status::kOk);
    }
    store.StopSession();
  }
  {
    Store store{MakeConfig(p), &device};
    ASSERT_EQ(store.Recover(dir), Status::kOk);
    store.StartSession();
    uint64_t checked = 0;
    for (const auto& [key, value] : model) {
      uint64_t out = UINT64_MAX;
      Status s = store.Read(key, 0, &out);
      if (s == Status::kPending) {
        ASSERT_TRUE(store.CompletePending(true));
        s = out == UINT64_MAX ? Status::kNotFound : Status::kOk;
      }
      ASSERT_EQ(s, Status::kOk) << "key " << key;
      ASSERT_EQ(out, value) << "key " << key;
      if (++checked >= 4000) break;  // bound test time on big models
    }
    // Deleted / never-written keys stay absent.
    uint64_t absent_checked = 0;
    for (uint64_t key = 0; key < p.key_space && absent_checked < 500; ++key) {
      if (model.count(key) != 0) continue;
      ++absent_checked;
      uint64_t out = UINT64_MAX;
      Status s = store.Read(key, 0, &out);
      if (s == Status::kPending) {
        store.CompletePending(true);
        s = out == UINT64_MAX ? Status::kNotFound : Status::kOk;
      }
      ASSERT_EQ(s, Status::kNotFound) << "key " << key;
    }
    store.StopSession();
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RecoveryTest,
    ::testing::Values(
        RecoveryParams{"small_in_memory", 1024, 16, 0.9, 500, 20000, 100},
        RecoveryParams{"spilled", 1024, 2, 0.5, 200000, 200000, 1000},
        RecoveryParams{"tiny_index", 64, 8, 0.9, 3000, 30000, 100},
        RecoveryParams{"append_like", 2048, 4, 0.1, 20000, 80000, 500}),
    [](const auto& info) { return info.param.name; });

// Checkpoint while another thread keeps writing: recovery must serve every
// key from before the checkpoint began with *some* legitimately written
// value (the fuzzy checkpoint covers a superset of t1-state).
TEST(ConcurrentCheckpointTest, CheckpointDoesNotQuiesceWriters) {
  std::string dir = "/tmp/faster_recovery_concurrent";
  std::filesystem::remove_all(dir);
  MemoryDevice device;
  Store::Config cfg;
  cfg.table_size = 4096;
  cfg.log.memory_size_bytes = 8ull << Address::kOffsetBits;
  constexpr uint64_t kKeys = 50000;
  {
    Store store{cfg, &device};
    store.StartSession();
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(store.Upsert(k, k + 1), Status::kOk);
    }
    store.StopSession();

    std::atomic<bool> stop{false};
    std::thread writer([&] {
      store.StartSession();
      std::mt19937_64 rng(9);
      while (!stop.load()) {
        // Writers only rewrite the canonical value, so any recovered
        // prefix still maps key -> key+1.
        uint64_t k = rng() % kKeys;
        store.Upsert(k, k + 1);
      }
      store.StopSession();
    });
    store.StartSession();
    ASSERT_EQ(store.Checkpoint(dir), Status::kOk);
    store.StopSession();
    stop.store(true);
    writer.join();
  }
  {
    Store store{cfg, &device};
    ASSERT_EQ(store.Recover(dir), Status::kOk);
    store.StartSession();
    for (uint64_t k = 0; k < kKeys; k += 503) {
      uint64_t out = UINT64_MAX;
      Status s = store.Read(k, 0, &out);
      if (s == Status::kPending) {
        ASSERT_TRUE(store.CompletePending(true));
        s = out == UINT64_MAX ? Status::kNotFound : Status::kOk;
      }
      ASSERT_EQ(s, Status::kOk) << "key " << k;
      ASSERT_EQ(out, k + 1) << "key " << k;
    }
    store.StopSession();
  }
  std::filesystem::remove_all(dir);
}

// A checkpoint of an index grown twice, with overflow chains in every
// version, recovers every key.
TEST(GrownIndexRecoveryTest, RecoversOverflowChainsAcrossGrow) {
  std::string dir = "/tmp/faster_recovery_grown";
  std::filesystem::remove_all(dir);
  MemoryDevice device;
  Store::Config cfg;
  cfg.table_size = 64;  // ~47 keys per bucket before the first Grow
  cfg.log.memory_size_bytes = 8ull << Address::kOffsetBits;
  constexpr uint64_t kKeys = 6000;
  {
    Store store{cfg, &device};
    store.StartSession();
    for (uint64_t k = 0; k < kKeys / 2; ++k) {
      ASSERT_EQ(store.Upsert(k, k + 1), Status::kOk);
    }
    ASSERT_EQ(store.GrowIndex(), Status::kOk);
    ASSERT_EQ(store.GrowIndex(), Status::kOk);
    for (uint64_t k = kKeys / 2; k < kKeys; ++k) {
      ASSERT_EQ(store.Upsert(k, k + 1), Status::kOk);
    }
    ASSERT_EQ(store.Checkpoint(dir), Status::kOk);
    store.StopSession();
  }
  Store store{cfg, &device};
  ASSERT_EQ(store.Recover(dir), Status::kOk);
  EXPECT_EQ(store.index().size(), 256u);
  store.StartSession();
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t out = 0;
    Status s = store.Read(k, 0, &out);
    if (s == Status::kPending) {
      ASSERT_TRUE(store.CompletePending(true));
      s = Status::kOk;
    }
    ASSERT_EQ(s, Status::kOk) << "key " << k;
    ASSERT_EQ(out, k + 1) << "key " << k;
  }
  store.StopSession();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace faster
