// Heavier concurrency tests: index growth racing with writers, store-level
// mixed workloads racing with growth and checkpoints, and parameterized
// (TEST_P) invariant sweeps over HybridLog configurations.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "core/hash_index.h"
#include "core/hybrid_log.h"
#include "device/memory_device.h"

namespace faster {
namespace {

// --------------------------------------------------------------------------
// Index growth with concurrent writers (Appendix B): no entry may be lost
// and the (bucket, tag) invariant must hold across the migration.
// --------------------------------------------------------------------------

TEST(GrowUnderWritersTest, NoEntryLostDuringGrow) {
  LightEpoch epoch;
  HashIndex index{64, &epoch};
  constexpr uint64_t kKeys = 4000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inserted{0};

  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      epoch.Protect();
      std::mt19937_64 rng(t + 1);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t k = rng() % kKeys;
        KeyHash h{Mix64(k)};
        {
          HashIndex::OpScope scope{index, h};
          HashIndex::FindResult fr;
          index.FindSlot(scope, h, &fr);
          if (!fr.entry.address().IsValid()) {
            if (index.TryPublish(&fr, Address{k + 1, 0})) {
              inserted.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        // Outside the OpScope (the epoch verifier checks).
        if (++i % 128 == 0) epoch.Refresh();
      }
      epoch.Unprotect();
    });
  }

  // Grow twice while the writers churn.
  epoch.Protect();
  index.Grow();
  index.Grow();
  epoch.Unprotect();
  stop.store(true);
  for (auto& t : writers) t.join();

  // Every key that was ever inserted must be findable afterwards, with a
  // valid address.
  epoch.Protect();
  uint64_t found = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    KeyHash h{Mix64(k)};
    HashIndex::OpScope scope{index, h};
    HashIndex::FindResult fr;
    if (index.FindEntry(scope, h, &fr) && fr.entry.address().IsValid()) {
      ++found;
    }
  }
  epoch.Unprotect();
  EXPECT_EQ(index.size(), 64u * 4);
  EXPECT_GE(found, inserted.load());  // grow duplicates chains, never drops
}

// --------------------------------------------------------------------------
// Store-level hammer: concurrent mixed ops + GrowIndex + checkpoint on a
// spilling store. Verified by per-key value classes (every write to key k
// writes k*2+1 or via RMW +0), so any torn/lost state shows up as a wrong
// value.
// --------------------------------------------------------------------------

TEST(StoreHammerTest, MixedOpsWithGrowAndCheckpoint) {
  using Store = FasterKv<CountStoreFunctions>;
  MemoryDevice device;
  Store::Config cfg;
  cfg.table_size = 1024;
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;
  cfg.log.mutable_fraction = 0.5;
  Store store{cfg, &device};
  constexpr uint64_t kKeys = 100000;

  store.StartSession();
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, k * 2 + 1), Status::kOk);
  }
  store.StopSession();

  std::atomic<uint64_t> errors{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      store.StartSession();
      std::mt19937_64 rng(t + 7);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t k = rng() % kKeys;
        switch (rng() % 3) {
          case 0:
            if (store.Upsert(k, k * 2 + 1) != Status::kOk) {
              errors.fetch_add(1);
            }
            break;
          case 1: {
            Status s = store.Rmw(k, 0);  // +0 keeps the value class
            if (s != Status::kOk && s != Status::kPending) {
              errors.fetch_add(1);
            }
            break;
          }
          case 2: {
            thread_local uint64_t out;
            Status s = store.Read(k, 0, &out);
            if (s == Status::kOk && out != k * 2 + 1) errors.fetch_add(1);
            if (s == Status::kNotFound) errors.fetch_add(1);
            break;
          }
        }
        if (++i % 512 == 0) store.CompletePending(false);
      }
      store.CompletePending(true);
      store.StopSession();
    });
  }

  store.StartSession();
  store.GrowIndex();
  ASSERT_EQ(store.Checkpoint("/tmp/faster_hammer_ckpt"), Status::kOk);
  store.StopSession();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : workers) t.join();
  EXPECT_EQ(errors.load(), 0u);

  // Post-hammer validation pass.
  store.StartSession();
  for (uint64_t k = 0; k < kKeys; k += 977) {
    uint64_t out = UINT64_MAX;
    Status s = store.Read(k, 0, &out);
    if (s == Status::kPending) {
      ASSERT_TRUE(store.CompletePending(true));
      s = Status::kOk;
    }
    ASSERT_EQ(s, Status::kOk) << "key " << k;
    ASSERT_EQ(out, k * 2 + 1) << "key " << k;
  }
  store.StopSession();
  std::filesystem::remove_all("/tmp/faster_hammer_ckpt");
}

// --------------------------------------------------------------------------
// Record-first inserts racing on the same new keys: each write to a key
// with no entry writes its record, then publishes it into a free slot;
// the publishes that lose (slot taken, or a duplicate tag on the rescan)
// leave an invalid record behind. Every key must end with one index entry,
// and log scans, compaction and recovery must skip the invalid records.
// --------------------------------------------------------------------------

TEST(SameKeyInsertRaceTest, OneEntryPerKeyAndLostRecordsSkipped) {
  using Store = FasterKv<CountStoreFunctions>;
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = uint64_t{1} << 12;
  // Thread t writes k << 8 | (t + 1) to key k.
  auto written = [](uint64_t k, uint64_t v) {
    return v >> 8 == k && (v & 0xff) >= 1 && (v & 0xff) <= kThreads;
  };
  const std::string ckpt_dir = "/tmp/faster_same_key_race_ckpt";
  std::filesystem::remove_all(ckpt_dir);
  MemoryDevice device;
  Store::Config cfg;
  cfg.table_size = uint64_t{1} << 16;  // no two of the keys share an entry
  {
    Store store{cfg, &device};

    // The threads start once a checkpoint has begun, so that recovery
    // replays records of the race, and meet at a spinning barrier before
    // each block of keys, so that they race on every block.
    constexpr uint64_t kBlock = 16;
    std::atomic<bool> go{false};
    std::atomic<uint64_t> arrived{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        store.StartSession();
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (uint64_t k = 0; k < kKeys; ++k) {
          if (k % kBlock == 0) {
            uint64_t all = (k / kBlock + 1) * kThreads;
            arrived.fetch_add(1, std::memory_order_acq_rel);
            // Spins without yielding (but for every 4096th turn), so the
            // threads leave the barrier together.
            for (uint64_t spins = 1;
                 arrived.load(std::memory_order_acquire) < all; ++spins) {
              if (spins % 4096 == 0) std::this_thread::yield();
            }
          }
          ASSERT_EQ(store.Upsert(k, k << 8 | static_cast<uint64_t>(t + 1)),
                    Status::kOk);
        }
        store.StopSession();
      });
    }
    std::thread checkpointer([&] {
      store.StartSession();
      go.store(true, std::memory_order_release);
      ASSERT_EQ(store.Checkpoint(ckpt_dir), Status::kOk);
      store.StopSession();
    });
    for (auto& t : threads) t.join();
    checkpointer.join();

    store.StartSession();
    EXPECT_EQ(store.index().NumUsedEntries(), kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) {
      uint64_t out = 0;
      ASSERT_EQ(store.Read(k, 0, &out), Status::kOk) << "key " << k;
      ASSERT_TRUE(written(k, out)) << "key " << k << " read " << out;
    }
    // Every key has a live record; the records of lost publishes are
    // invalid. (Writes after the checkpoint's read-only shift append.)
    uint64_t live = 0, invalid = 0;
    std::set<uint64_t> live_keys;
    ASSERT_EQ(store.ScanLog(store.hlog().begin_address(),
                            store.hlog().tail_address(),
                            [&](Address, const Store::RecordT& rec) {
                              if (rec.info().invalid()) {
                                ++invalid;
                              } else {
                                ++live;
                                live_keys.insert(rec.key);
                              }
                            }),
              Status::kOk);
    EXPECT_EQ(live_keys.size(), kKeys);
    // Compaction copies each key's newest record, finds the older live
    // ones dead, and skips the invalid ones.
    store.hlog().ShiftReadOnlyToTail(/*wait=*/true);
    Store::CompactionStats cs;
    ASSERT_EQ(store.CompactLog(store.hlog().tail_address(), &cs), Status::kOk);
    EXPECT_EQ(cs.scanned, live + invalid);
    EXPECT_EQ(cs.copied, kKeys);
    EXPECT_EQ(cs.copied + cs.dead_by_overwrite_bit + cs.dead_by_trace, live);
    for (uint64_t k = 0; k < kKeys; ++k) {
      uint64_t out = 0;
      ASSERT_EQ(store.Read(k, 0, &out), Status::kOk) << "key " << k;
      ASSERT_TRUE(written(k, out)) << "key " << k << " read " << out;
    }
    store.StopSession();
  }

  // Recovery replays the checkpoint's log range but no invalid record: a
  // key reads back only if a valid record of it lies below the checkpoint.
  Store recovered{cfg, &device};
  ASSERT_EQ(recovered.Recover(ckpt_dir), Status::kOk);
  recovered.StartSession();
  std::set<uint64_t> recovered_keys;
  ASSERT_EQ(recovered.ScanLog(recovered.hlog().begin_address(),
                              recovered.hlog().tail_address(),
                              [&](Address, const Store::RecordT& rec) {
                                if (!rec.info().invalid()) {
                                  recovered_keys.insert(rec.key);
                                }
                              }),
            Status::kOk);
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t out = 0;
    Status s = recovered.Read(k, 0, &out);
    if (s == Status::kPending) {
      ASSERT_TRUE(recovered.CompletePending(true));
      s = out == 0 ? Status::kNotFound : Status::kOk;
    }
    if (s == Status::kOk) {
      EXPECT_TRUE(recovered_keys.count(k)) << "key " << k;
      EXPECT_TRUE(written(k, out)) << "key " << k << " read " << out;
    } else {
      EXPECT_EQ(s, Status::kNotFound) << "key " << k;
    }
  }
  recovered.StopSession();
  std::filesystem::remove_all(ckpt_dir);
}

// --------------------------------------------------------------------------
// HybridLog invariants under concurrent allocation, parameterized over
// buffer geometry (property sweep).
// --------------------------------------------------------------------------

struct LogGeometry {
  std::string name;
  uint64_t pages;
  double mutable_fraction;
  uint32_t alloc_size;
};
std::ostream& operator<<(std::ostream& os, const LogGeometry& g) {
  return os << g.name;
}

class HybridLogSweepTest : public ::testing::TestWithParam<LogGeometry> {};

TEST_P(HybridLogSweepTest, InvariantsHoldUnderConcurrentAllocation) {
  const LogGeometry& g = GetParam();
  LightEpoch epoch;
  MemoryDevice device;
  LogConfig cfg;
  cfg.memory_size_bytes = g.pages << Address::kOffsetBits;
  cfg.mutable_fraction = g.mutable_fraction;
  HybridLog log{cfg, &device, &epoch};

  constexpr int kThreads = 3;
  const uint64_t per_thread = (6 * Address::kPageSize) / g.alloc_size;
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      epoch.Protect();
      for (uint64_t i = 0; i < per_thread; ++i) {
        uint64_t closed = 0;
        Address a = log.Allocate(g.alloc_size, &closed);
        if (!a.IsValid()) {
          while (!log.NewPage(closed)) {
            epoch.Refresh();
            std::this_thread::yield();
          }
          epoch.Refresh();
          continue;
        }
        // Region-order invariants (Sec. 6.1) must hold at all times.
        Address begin = log.begin_address();
        Address head = log.head_address();
        Address safe_ro = log.safe_read_only_address();
        Address ro = log.read_only_address();
        if (!(begin <= head && head <= safe_ro && safe_ro <= ro)) {
          violations.fetch_add(1);
        }
        if (i % 64 == 0) epoch.Refresh();
      }
      epoch.Unprotect();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_LE(log.head_address(), log.flushed_until_address());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HybridLogSweepTest,
    ::testing::Values(LogGeometry{"tiny_append_only", 2, 0.0, 64},
                      LogGeometry{"tiny_mostly_mutable", 2, 0.9, 64},
                      LogGeometry{"small_balanced", 4, 0.5, 48},
                      LogGeometry{"large_records", 2, 0.5, 4096},
                      LogGeometry{"page_sized_records", 2, 0.5,
                                  1u << Address::kOffsetBits},
                      LogGeometry{"big_buffer", 16, 0.9, 24}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace faster
