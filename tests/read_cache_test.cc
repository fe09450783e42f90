// Tests for the read cache (Appendix D): a second, never-flushed
// HybridLog instance holding copies of read-hot records, with index
// entries redirected back to the primary log on eviction.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"

namespace faster {
namespace {

using Store = FasterKv<CountStoreFunctions>;

Store::Config CacheConfig(uint64_t rc_pages = 2) {
  Store::Config cfg;
  cfg.table_size = 2048;
  cfg.log.memory_size_bytes = 2ull << Address::kOffsetBits;  // tiny: spills
  cfg.log.mutable_fraction = 0.5;
  cfg.enable_read_cache = true;
  cfg.read_cache.memory_size_bytes = rc_pages << Address::kOffsetBits;
  cfg.read_cache.mutable_fraction = 0.5;
  return cfg;
}

/// Loads enough keys that the early ones are evicted to storage.
void Spill(Store& store, uint64_t keys) {
  for (uint64_t k = 0; k < keys; ++k) {
    ASSERT_EQ(store.Upsert(k, k + 1), Status::kOk);
  }
  ASSERT_GT(store.hlog().head_address().control(), 64u);
}

uint64_t MustRead(Store& store, uint64_t key) {
  uint64_t out = UINT64_MAX;
  Status s = store.Read(key, 0, &out);
  if (s == Status::kPending) {
    EXPECT_TRUE(store.CompletePending(true));
  } else {
    EXPECT_EQ(s, Status::kOk);
  }
  return out;
}

class ReadCacheTest : public ::testing::Test {
 protected:
  MemoryDevice device_;
};

TEST_F(ReadCacheTest, SecondReadIsServedFromCache) {
  Store store{CacheConfig(), &device_};
  store.StartSession();
  Spill(store, 400000);
  // First read of a cold key: storage I/O, populates the cache.
  EXPECT_EQ(MustRead(store, 5), 6u);
  auto stats1 = store.GetStats();
  EXPECT_GT(stats1.pending_ios, 0u);
  // Second read: cache hit, no new I/O, completes synchronously.
  uint64_t out = 0;
  EXPECT_EQ(store.Read(5, 0, &out), Status::kOk);
  EXPECT_EQ(out, 6u);
  auto stats2 = store.GetStats();
  EXPECT_EQ(stats2.pending_ios, stats1.pending_ios);
  EXPECT_GT(stats2.read_cache_hits, 0u);
  store.StopSession();
}

TEST_F(ReadCacheTest, UpsertInvalidatesCachedCopy) {
  Store store{CacheConfig(), &device_};
  store.StartSession();
  Spill(store, 400000);
  EXPECT_EQ(MustRead(store, 7), 8u);       // cache key 7
  ASSERT_EQ(store.Upsert(7, 999), Status::kOk);  // newer version on log
  EXPECT_EQ(MustRead(store, 7), 999u);     // must not see the stale copy
  store.StopSession();
}

TEST_F(ReadCacheTest, RmwUsesCachedValueWithoutIo) {
  Store store{CacheConfig(), &device_};
  store.StartSession();
  Spill(store, 400000);
  EXPECT_EQ(MustRead(store, 9), 10u);  // cache key 9
  auto ios_before = store.GetStats().pending_ios;
  // RMW on the cached key: copy-update from the cache, no storage read.
  ASSERT_EQ(store.Rmw(9, 5), Status::kOk);
  EXPECT_EQ(store.GetStats().pending_ios, ios_before);
  EXPECT_EQ(MustRead(store, 9), 15u);
  store.StopSession();
}

TEST_F(ReadCacheTest, DeleteRemovesCachedKey) {
  Store store{CacheConfig(), &device_};
  store.StartSession();
  Spill(store, 400000);
  EXPECT_EQ(MustRead(store, 11), 12u);
  ASSERT_EQ(store.Delete(11), Status::kOk);
  uint64_t out = 0;
  Status s = store.Read(11, 0, &out);
  if (s == Status::kPending) {
    store.CompletePending(true);
    EXPECT_EQ(out, 0u);  // untouched
  } else {
    EXPECT_EQ(s, Status::kNotFound);
  }
  store.StopSession();
}

TEST_F(ReadCacheTest, EvictionRedirectsBackToPrimaryLog) {
  Store store{CacheConfig(/*rc_pages=*/2), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 400000;
  Spill(store, kKeys);
  // Read a wave of cold keys far larger than the cache capacity; early
  // cached entries get evicted and their index entries must be redirected
  // so the keys remain readable (from storage).
  for (uint64_t k = 0; k < 300000; k += 3) {
    uint64_t out = 0;
    Status s = store.Read(k, 0, &out);
    ASSERT_TRUE(s == Status::kOk || s == Status::kPending);
    if (k % 999 == 0) store.CompletePending(false);
  }
  store.CompletePending(true);
  // Every key is still readable with the right value.
  for (uint64_t k = 0; k < 300000; k += 2999) {
    EXPECT_EQ(MustRead(store, k), k + 1) << "key " << k;
  }
  store.StopSession();
}

// Grow points both children of a bucket at the bucket's chain. When the
// chain starts with a cached record, the child its key does not hash to
// must not keep the cached address: RcEvict redirects only the key's own
// child, so a read through the other would wait for a redirect forever.
TEST_F(ReadCacheTest, GrowThenEvictionKeepsBothChildrenReadable) {
  Store::Config cfg = CacheConfig();
  cfg.table_size = uint64_t{1} << 17;  // short bucket scans for 800k keys
  // Two keys sharing an index entry (bucket and tag) whose buckets split
  // apart when the table doubles. Above the Spill range.
  uint64_t first = 0;
  uint64_t second = 0;
  std::unordered_map<uint64_t, uint64_t> by_entry;
  for (uint64_t k = uint64_t{1} << 40; second == 0; ++k) {
    KeyHash h{Mix64(k)};
    uint64_t entry = uint64_t{h.Tag()} << 32 | h.Bucket(cfg.table_size);
    auto [it, fresh] = by_entry.emplace(entry, k);
    if (!fresh && KeyHash{Mix64(it->second)}.Bucket(2 * cfg.table_size) !=
                      h.Bucket(2 * cfg.table_size)) {
      first = it->second;
      second = k;
    }
  }
  // Polling I/O: ~400k storage reads stay on this thread.
  MemoryDevice device;
  Store store{cfg, &device};
  store.StartSession();
  ASSERT_EQ(store.Upsert(first, 1), Status::kOk);
  ASSERT_EQ(store.Upsert(second, 2), Status::kOk);
  Spill(store, 800000);  // both go to storage
  // Reading `first` puts its copy in front of the shared chain.
  EXPECT_EQ(MustRead(store, first), 1u);
  ASSERT_EQ(store.GrowIndex(), Status::kOk);
  // Wrap the cache (two pages, ~350k records) so the copy is evicted.
  uint64_t out = 0;  // pending reads complete into it after their turn
  for (uint64_t k = 0; k < 400000; ++k) {
    Status s = store.Read(k, 0, &out);
    ASSERT_TRUE(s == Status::kOk || s == Status::kPending);
    if (k % 1000 == 0) store.CompletePending(false);
  }
  store.CompletePending(true);
  EXPECT_EQ(MustRead(store, second), 2u);
  EXPECT_EQ(MustRead(store, first), 1u);
  if constexpr (obs::kStatsEnabled) {
    EXPECT_GT(store.counters().Sum(obs::StoreCounter::kRcEvictions), 0u);
  }
  store.StopSession();
}

// An op whose allocation rolls a log page over while it holds its chunk's
// pin (an OpScope in Grow's prepare phase), with a read-cache eviction
// pending: the refresh after the rollover runs Grow's flip to the resizing
// phase and then the eviction, whose OpScopes wait for each chunk's pins
// to drain. Run under the op's own pin, that refresh would wait for
// itself; the op must release its scope before it refreshes. Sessions
// order the steps: the op's thread holds the oldest epoch from before the
// Grow until its refresh, so the flip and the eviction, armed in that
// order, cannot run before it. The grow thread's own refresh loop may
// still win the race to run them, in which case it waits for the op's
// pin instead and the op goes on, so a store that refreshes under the pin
// deadlocks here in most runs, not all.
TEST_F(ReadCacheTest, PageRolloverUnderAGrowPinDoesNotWaitOnItself) {
  Store::Config cfg = CacheConfig();
  cfg.table_size = uint64_t{1} << 17;  // short bucket scans for 800k keys
  Store store{cfg, &device_};
  // A deadlock ends in the wait watchdog's abort, with a flight dump that
  // names the wait site (tools/seeded_deadlock.py seeds one).
  obs::FlightAttachment flight = obs::AttachFlightRecorder(store.view());
  store.StartSession();
  Spill(store, 800000);  // keys below ~450k go to storage
  // Fill the tail page: the op's record will not fit on it.
  uint64_t fresh = uint64_t{1} << 40;
  while (store.hlog().tail_address().offset() + Store::Layout::kFixedSize <=
         Address::kPageSize) {
    ASSERT_EQ(store.Upsert(fresh++, 1), Status::kOk);
  }
  // No trigger action left from the set-up.
  for (int i = 0; i < 100 && store.epoch().NumOutstandingActions() != 0;
       ++i) {
    store.Refresh();
  }
  ASSERT_EQ(store.epoch().NumOutstandingActions(), 0u);

  // The op's thread: protected now, it runs one Upsert when told.
  std::atomic<int> op_state{0};  // 1: protected, 2: go, 3: done
  Status op_status = Status::kInvalid;
  std::thread op([&] {
    store.StartSession();
    op_state.store(1);
    while (op_state.load() != 2) std::this_thread::yield();
    op_status = store.Upsert(fresh, 7);
    op_state.store(3);
    store.StopSession();
  });
  while (op_state.load() != 1) std::this_thread::yield();
  // The grow: prepare phase announced, its flip armed first.
  Status grow_status = Status::kInvalid;
  std::thread grow([&] {
    store.StartSession();
    grow_status = store.GrowIndex();
    store.StopSession();
  });
  while (!store.index().IsResizing() ||
         store.epoch().NumOutstandingActions() == 0) {
    std::this_thread::yield();
  }
  // Promote cold keys until the read cache wraps: its eviction is armed.
  HybridLog* rc = store.view().rc_log;
  const Address rc_head = rc->head_address();
  for (uint64_t k = 0; rc->head_address() == rc_head; ++k) {
    ASSERT_LT(k, 450000u) << "the read cache never wrapped";
    EXPECT_EQ(MustRead(store, k), k + 1) << "key " << k;
  }
  store.StopSession();  // holds back neither trigger action

  op_state.store(2);
  for (int waited_ms = 0; op_state.load() != 3; ++waited_ms) {
    if (waited_ms == 30000) {
      // The op waits on its own pin: nothing can end the test cleanly.
      ADD_FAILURE() << "the op did not finish in 30 s: deadlocked";
      std::fflush(stdout);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  op.join();
  grow.join();
  EXPECT_EQ(op_status, Status::kOk);
  EXPECT_EQ(grow_status, Status::kOk);
  store.StartSession();
  EXPECT_EQ(MustRead(store, fresh), 7u);
  for (uint64_t k = 0; k < 450000; k += 4999) {
    EXPECT_EQ(MustRead(store, k), k + 1) << "key " << k;
  }
  store.StopSession();
}

// With one tag bit, many keys share an index entry, so an RMW often finds
// its entry pointing at another key's cached copy. The record it appends
// must chain to the primary log past that copy: a chain link into the
// cache would send later walks of the chain through a cache address.
TEST_F(ReadCacheTest, RmwBehindAnotherKeysCachedCopy) {
  auto cfg = CacheConfig();
  cfg.tag_bits = 1;
  cfg.table_size = uint64_t{1} << 17;
  Store store{cfg, &device_};
  store.StartSession();
  Spill(store, 400000);
  constexpr uint64_t kKeys = 2000;
  for (uint64_t k = 0; k < kKeys; ++k) MustRead(store, k);  // cache them
  // In reverse, so an RMW meets an entry that an earlier-read key's copy
  // still holds.
  for (uint64_t k = kKeys; k-- > 0;) {
    Status s = store.Rmw(k, 5);
    if (s == Status::kPending) {
      ASSERT_TRUE(store.CompletePending(true));
    } else {
      ASSERT_EQ(s, Status::kOk) << "key " << k;
    }
  }
  for (uint64_t k = 0; k < 2 * kKeys; ++k) {
    EXPECT_EQ(MustRead(store, k), k + 1 + (k < kKeys ? 5 : 0))
        << "key " << k;
  }
  store.StopSession();
}

TEST_F(ReadCacheTest, CheckpointWithReadCacheRecovers) {
  std::string dir = "/tmp/faster_rc_ckpt_test";
  std::filesystem::remove_all(dir);
  constexpr uint64_t kKeys = 400000;
  {
    Store store{CacheConfig(), &device_};
    store.StartSession();
    Spill(store, kKeys);
    // Populate the cache with some cold keys, then checkpoint: persisted
    // entries must point at the primary log, not the cache.
    for (uint64_t k = 0; k < 100; ++k) MustRead(store, k);
    ASSERT_EQ(store.Checkpoint(dir), Status::kOk);
    store.StopSession();
  }
  {
    Store store{CacheConfig(), &device_};
    ASSERT_EQ(store.Recover(dir), Status::kOk);
    store.StartSession();
    for (uint64_t k = 0; k < 100; ++k) {
      EXPECT_EQ(MustRead(store, k), k + 1) << "key " << k;
    }
    EXPECT_EQ(MustRead(store, kKeys / 2), kKeys / 2 + 1);
    store.StopSession();
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ReadCacheTest, ConcurrentReadersWithCacheChurn) {
  Store store{CacheConfig(/*rc_pages=*/2), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 400000;
  Spill(store, kKeys);
  store.StopSession();

  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      store.StartSession();
      std::mt19937_64 rng(t + 1);
      // Outlives the loop: pending reads write here as late as the
      // CompletePending inside StopSession.
      uint64_t out = 0;
      for (int i = 0; i < 20000; ++i) {
        uint64_t k = rng() % kKeys;
        out = 0;
        Status s = store.Read(k, 0, &out);
        if (s == Status::kOk) {
          if (out != k + 1) errors.fetch_add(1);
        } else if (s != Status::kPending) {
          errors.fetch_add(1);
        }
        if (i % 512 == 0) store.CompletePending(false);
      }
      store.StopSession();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(store.GetStats().read_cache_hits, 0u);
}

}  // namespace
}  // namespace faster
