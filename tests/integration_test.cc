// End-to-end integration tests over the *real* storage path: FasterKv on a
// FileDevice (POSIX file, completion polling), exercising spill, async
// storage reads, checkpoint/recovery across process-like store instances,
// compaction, and index growth in one combined scenario — the moral
// equivalent of the paper's deployment (FASTER pointed at a file on SSD,
// Sec. 7.1).

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/file_device.h"

namespace faster {
namespace {

using Store = FasterKv<CountStoreFunctions>;

class FileIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/faster_integration_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string LogPath() const { return dir_ + "/hybridlog.dat"; }
  std::string CkptDir() const { return dir_ + "/ckpt"; }

  Store::Config Cfg(uint64_t pages = 2) {
    Store::Config cfg;
    cfg.table_size = 4096;
    cfg.log.memory_size_bytes = pages << Address::kOffsetBits;
    cfg.log.mutable_fraction = 0.5;
    return cfg;
  }

  std::string dir_;
};

TEST_F(FileIntegrationTest, SpillAndReadBackThroughRealFile) {
  FileDevice device{LogPath()};
  Store store{Cfg(), &device};
  store.StartSession();
  constexpr uint64_t kKeys = 400000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, k * 3 + 1), Status::kOk);
  }
  ASSERT_GT(store.hlog().head_address().control(), 64u);
  ASSERT_GT(std::filesystem::file_size(LogPath()), 0u);
  std::vector<uint64_t> outs(200, UINT64_MAX);
  for (uint64_t k = 0; k < 200; ++k) {
    Status s = store.Read(k * 1000, 0, &outs[k]);
    ASSERT_TRUE(s == Status::kOk || s == Status::kPending);
  }
  ASSERT_TRUE(store.CompletePending(true));
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_EQ(outs[k], k * 1000 * 3 + 1) << "key " << k * 1000;
  }
  store.StopSession();
}

TEST_F(FileIntegrationTest, FullLifecycleAcrossRestarts) {
  constexpr uint64_t kKeys = 200000;
  // Phase 1: load, mutate, grow the index, checkpoint, "crash".
  {
    FileDevice device{LogPath()};
    Store store{Cfg(), &device};
    store.StartSession();
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(store.Upsert(k, 1), Status::kOk);
    }
    for (uint64_t k = 0; k < kKeys; k += 2) {
      Status s = store.Rmw(k, 10);
      ASSERT_TRUE(s == Status::kOk || s == Status::kPending);
      if (k % 8192 == 0) store.CompletePending(false);
    }
    ASSERT_TRUE(store.CompletePending(true));
    store.GrowIndex();
    ASSERT_EQ(store.Checkpoint(CkptDir()), Status::kOk);
    // Post-checkpoint garbage that must vanish.
    for (uint64_t k = 0; k < 1000; ++k) store.Upsert(k, 777777);
    store.StopSession();
  }
  // Phase 2: recover from the file + checkpoint, verify, keep operating.
  {
    FileDevice device{LogPath()};
    Store store{Cfg(), &device};
    ASSERT_EQ(store.Recover(CkptDir()), Status::kOk);
    store.StartSession();
    for (uint64_t k = 0; k < kKeys; k += 997) {
      uint64_t expected = (k % 2 == 0) ? 11 : 1;
      uint64_t out = UINT64_MAX;
      Status s = store.Read(k, 0, &out);
      if (s == Status::kPending) {
        ASSERT_TRUE(store.CompletePending(true));
        s = Status::kOk;
      }
      ASSERT_EQ(s, Status::kOk) << "key " << k;
      ASSERT_EQ(out, expected) << "key " << k;
    }
    // The store stays fully operational post-recovery.
    for (uint64_t k = kKeys; k < kKeys + 5000; ++k) {
      ASSERT_EQ(store.Upsert(k, k), Status::kOk);
    }
    uint64_t out = 0;
    ASSERT_EQ(store.Read(kKeys + 4999, 0, &out), Status::kOk);
    ASSERT_EQ(out, kKeys + 4999);
    store.StopSession();
  }
}

TEST_F(FileIntegrationTest, MultiThreadedMixedWorkloadOnFile) {
  FileDevice device{LogPath()};
  Store store{Cfg(4), &device};
  constexpr uint64_t kKeys = 200000;
  store.StartSession();
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, 5), Status::kOk);
  }
  store.StopSession();

  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      store.StartSession();
      std::mt19937_64 rng(t + 100);
      for (int i = 0; i < 30000; ++i) {
        uint64_t k = rng() % kKeys;
        switch (rng() % 3) {
          case 0: {
            if (store.Upsert(k, 5) != Status::kOk) errors.fetch_add(1);
            break;
          }
          case 1: {
            Status s = store.Rmw(k, 0);  // +0: value must stay 5
            if (s != Status::kOk && s != Status::kPending) errors.fetch_add(1);
            break;
          }
          case 2: {
            thread_local uint64_t out;
            Status s = store.Read(k, 0, &out);
            if (s == Status::kOk && out != 5) errors.fetch_add(1);
            if (s == Status::kNotFound) errors.fetch_add(1);
            break;
          }
        }
        if (i % 1024 == 0) store.CompletePending(false);
      }
      store.StopSession();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0u);
}

TEST_F(FileIntegrationTest, CompactionOnRealFileReclaimsSpace) {
  FileDevice device{LogPath()};
  auto cfg = Cfg(2);
  cfg.force_rcu = true;
  Store store{cfg, &device};
  store.StartSession();
  constexpr uint64_t kKeys = 10000;
  std::mt19937_64 rng(17);
  for (uint64_t i = 0; i < 300000; ++i) {
    ASSERT_EQ(store.Upsert(rng() % kKeys, i), Status::kOk);
  }
  store.hlog().ShiftReadOnlyToTail(true);
  Store::CompactionStats stats;
  ASSERT_EQ(store.CompactLog(store.hlog().safe_read_only_address(), &stats),
            Status::kOk);
  EXPECT_LE(stats.copied, kKeys);
  // All keys still readable.
  for (uint64_t k = 0; k < kKeys; k += 239) {
    uint64_t out = UINT64_MAX;
    Status s = store.Read(k, 0, &out);
    if (s == Status::kPending) {
      ASSERT_TRUE(store.CompletePending(true));
    }
    ASSERT_NE(out, UINT64_MAX) << "key " << k;
  }
  store.StopSession();
}

}  // namespace
}  // namespace faster
