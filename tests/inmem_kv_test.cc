#include "memstore/inmem_kv.h"

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "core/functions.h"

namespace faster {
namespace {

using Store = InMemKv<CountStoreFunctions>;

TEST(InMemKvTest, UpsertReadRoundTrip) {
  Store store{1024};
  store.StartSession();
  EXPECT_EQ(store.Upsert(1, 10), Status::kOk);
  uint64_t out = 0;
  EXPECT_EQ(store.Read(1, 0, &out), Status::kOk);
  EXPECT_EQ(out, 10u);
  store.StopSession();
}

TEST(InMemKvTest, ReadMissing) {
  Store store{1024};
  store.StartSession();
  uint64_t out = 0;
  EXPECT_EQ(store.Read(99, 0, &out), Status::kNotFound);
  store.StopSession();
}

TEST(InMemKvTest, UpsertIsInPlace) {
  Store store{1024};
  store.StartSession();
  ASSERT_EQ(store.Upsert(1, 10), Status::kOk);
  ASSERT_EQ(store.Upsert(1, 20), Status::kOk);
  uint64_t out = 0;
  ASSERT_EQ(store.Read(1, 0, &out), Status::kOk);
  EXPECT_EQ(out, 20u);
  store.StopSession();
}

TEST(InMemKvTest, RmwIncrements) {
  Store store{1024};
  store.StartSession();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(store.Rmw(5, 2), Status::kOk);
  }
  uint64_t out = 0;
  ASSERT_EQ(store.Read(5, 0, &out), Status::kOk);
  EXPECT_EQ(out, 200u);
  store.StopSession();
}

TEST(InMemKvTest, DeleteRemovesKey) {
  Store store{1024};
  store.StartSession();
  ASSERT_EQ(store.Upsert(1, 10), Status::kOk);
  EXPECT_EQ(store.Delete(1), Status::kOk);
  uint64_t out = 0;
  EXPECT_EQ(store.Read(1, 0, &out), Status::kNotFound);
  EXPECT_EQ(store.Delete(1), Status::kNotFound);
  store.StopSession();
}

TEST(InMemKvTest, DeletedMemoryIsReclaimedAfterEpochSafety) {
  Store store{1024};
  store.StartSession();
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  }
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_EQ(store.Delete(k), Status::kOk);
  }
  EXPECT_GT(store.RetiredCount(), 0u);
  // Refresh cycles make the retirement epochs safe and drain free lists.
  for (int i = 0; i < 4; ++i) store.Refresh();
  EXPECT_EQ(store.RetiredCount(), 0u);
  store.StopSession();
}

TEST(InMemKvTest, ManyKeysWithCollisions) {
  Store store{64};  // tiny table: long chains + overflow buckets
  store.StartSession();
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, k + 1), Status::kOk);
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t out = 0;
    ASSERT_EQ(store.Read(k, 0, &out), Status::kOk);
    ASSERT_EQ(out, k + 1);
  }
  store.StopSession();
}

TEST(InMemKvTest, ConcurrentRmwSum) {
  Store store{4096};
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 25000;
  constexpr uint64_t kKeys = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      store.StartSession();
      std::mt19937_64 rng(t);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ASSERT_EQ(store.Rmw(rng() % kKeys, 1), Status::kOk);
      }
      store.StopSession();
    });
  }
  for (auto& t : threads) t.join();
  store.StartSession();
  uint64_t total = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t out = 0;
    if (store.Read(k, 0, &out) == Status::kOk) total += out;
  }
  EXPECT_EQ(total, kThreads * kPerThread);
  store.StopSession();
}

TEST(InMemKvTest, ConcurrentUpsertDelete) {
  Store store{4096};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      store.StartSession();
      std::mt19937_64 rng(t * 17 + 1);
      for (int i = 0; i < 20000; ++i) {
        uint64_t k = rng() % 64;
        if (rng() % 3 == 0) {
          store.Delete(k);
        } else {
          store.Upsert(k, k * 10);
        }
      }
      store.StopSession();
    });
  }
  for (auto& t : threads) t.join();
  // Every surviving key must read its canonical value.
  store.StartSession();
  for (uint64_t k = 0; k < 64; ++k) {
    uint64_t out = 0;
    Status s = store.Read(k, 0, &out);
    if (s == Status::kOk) {
      EXPECT_EQ(out, k * 10);
    }
  }
  store.StopSession();
}

// A write that unlinks a key's last (tombstoned) record finds the key's
// entry gone. It must then insert through a fresh two-phase claim: taking
// the emptied slot back with a bare CAS races a concurrent insert of the
// same key into a second entry, and the key gets two chains.
TEST(InMemKvTest, ConcurrentWriteDeleteKeepsOneEntryPerKey) {
  Store store{64};
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 4;
  // A duplicate entry can later empty and vanish: check after each round.
  for (int round = 0; round < 150; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        store.StartSession();
        std::mt19937_64 rng(round * kThreads + t);
        for (int i = 0; i < 10000; ++i) {
          uint64_t k = rng() % kKeys;
          switch (rng() % 3) {
            case 0: store.Delete(k); break;
            case 1: store.Upsert(k, k); break;
            default: store.Rmw(k, 1); break;
          }
        }
        store.StopSession();
      });
    }
    for (auto& t : threads) t.join();
    // Records live at their pointer addresses; count the chains holding
    // each key.
    uint64_t chains[kKeys] = {};
    store.index().ForEachEntry([&](HashBucketEntry entry) {
      bool seen[kKeys] = {};
      for (Address a = entry.address(); a.IsValid();) {
        auto* rec = reinterpret_cast<Store::RecordT*>(a.control());
        seen[rec->key] = true;
        a = rec->info().previous_address();
      }
      for (uint64_t k = 0; k < kKeys; ++k) chains[k] += seen[k];
    });
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_LE(chains[k], 1u) << "key " << k << ", round " << round;
    }
  }
}

}  // namespace
}  // namespace faster
