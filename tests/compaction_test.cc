// Tests for log garbage collection (Appendix C): expiration-based
// truncation (ShiftBeginAddress) and roll-to-tail compaction (CompactLog),
// including the overwrite-bit fast path.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <thread>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"

namespace faster {
namespace {

using Store = FasterKv<CountStoreFunctions>;

Store::Config Cfg(uint64_t pages, double mf = 0.5) {
  Store::Config cfg;
  cfg.table_size = 4096;
  cfg.log.memory_size_bytes = pages << Address::kOffsetBits;
  cfg.log.mutable_fraction = mf;
  return cfg;
}

uint64_t MustRead(Store& store, uint64_t key, Status* status = nullptr) {
  uint64_t out = UINT64_MAX;
  Status s = store.Read(key, 0, &out);
  if (s == Status::kPending) {
    store.CompletePending(true);
    s = out == UINT64_MAX ? Status::kNotFound : Status::kOk;
  }
  if (status != nullptr) *status = s;
  return out;
}

class CompactionTest : public ::testing::Test {
 protected:
  MemoryDevice device_;
};

// Fails the `fail_at`-th read from now on through its callback, once, and
// records its offset; every other read goes through.
class FailNthReadDevice : public MemoryDevice {
 public:
  Status ReadAsync(uint64_t offset, void* dst, uint32_t len,
                   IoCallback callback, void* context) override {
    if (++reads == fail_at) {
      failed_offset = offset;
      callback(context, Status::kIoError, 0);
      return Status::kOk;
    }
    return MemoryDevice::ReadAsync(offset, dst, len, callback, context);
  }
  uint64_t reads = 0;
  uint64_t fail_at = 0;
  uint64_t failed_offset = 0;
};

// A storage read that fails mid-compaction ends it with kIoError and
// truncates only the records examined before the failure: once the device
// heals, every key still reads its newest value.
TEST(CompactionFailureTest, FailedReadKeepsUnexaminedRecords) {
  FailNthReadDevice device;
  Store store{Cfg(2), &device};
  store.StartSession();
  constexpr uint64_t kKeys = 300000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(store.Upsert(k, 1), Status::kOk);
  }
  store.hlog().ShiftReadOnlyToTail(true);
  for (uint64_t k = 0; k < kKeys; k += 2) {
    ASSERT_EQ(store.Upsert(k, 2), Status::kOk);
  }
  store.hlog().ShiftReadOnlyToTail(true);
  ASSERT_GT(store.hlog().head_address().control(), 64u) << "must spill";

  device.fail_at = device.reads + 500;
  Address until = store.hlog().safe_read_only_address();
  EXPECT_EQ(store.CompactLog(until), Status::kIoError);
  ASSERT_NE(device.failed_offset, 0u) << "the failure must have fired";
  EXPECT_LE(store.hlog().begin_address(), Address{device.failed_offset});
  for (uint64_t k = 0; k < kKeys; ++k) {
    Status s;
    ASSERT_EQ(MustRead(store, k, &s), k % 2 == 0 ? 2u : 1u) << k;
    ASSERT_EQ(s, Status::kOk) << k;
  }
  store.StopSession();
}

TEST_F(CompactionTest, CompactionPreservesLiveKeys) {
  Store store{Cfg(2), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 200000;
  // Two rounds of upserts with the log pushed stable in between, so the
  // round-1 records are dead garbage in the stable region.
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_EQ(store.Upsert(k, 1), Status::kOk);
  store.hlog().ShiftReadOnlyToTail(true);
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_EQ(store.Upsert(k, 2), Status::kOk);
  store.hlog().ShiftReadOnlyToTail(true);

  // Compact the first half of the stable region.
  Address until{store.hlog().safe_read_only_address().control() / 2};
  Store::CompactionStats stats;
  ASSERT_EQ(store.CompactLog(until, &stats), Status::kOk);
  EXPECT_GT(stats.scanned, 0u);
  EXPECT_GE(store.hlog().begin_address(), until);

  // Every key still readable with the newest value.
  for (uint64_t k = 0; k < kKeys; k += 997) {
    Status s;
    EXPECT_EQ(MustRead(store, k, &s), 2u) << "key " << k;
    EXPECT_EQ(s, Status::kOk);
  }
  store.StopSession();
}

TEST_F(CompactionTest, OverwriteBitSkipsLivenessChecks) {
  Store store{Cfg(8, 0.9), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 50000;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_EQ(store.Upsert(k, 1), Status::kOk);
  // Force everything below the read-only offset so the second round
  // appends (RCU) and marks the old records overwritten.
  store.hlog().ShiftReadOnlyToTail(true);
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_EQ(store.Upsert(k, 2), Status::kOk);
  store.hlog().ShiftReadOnlyToTail(true);

  Store::CompactionStats stats;
  ASSERT_EQ(store.CompactLog(store.hlog().safe_read_only_address(), &stats),
            Status::kOk);
  // Round-1 records were superseded while in memory: the overwrite bit
  // fast path must have caught (nearly) all of them.
  EXPECT_GT(stats.dead_by_overwrite_bit, kKeys / 2);
  for (uint64_t k = 0; k < kKeys; k += 991) {
    EXPECT_EQ(MustRead(store, k), 2u);
  }
  store.StopSession();
}

TEST_F(CompactionTest, DeletedKeysAreNotResurrected) {
  Store store{Cfg(8, 0.5), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_EQ(store.Upsert(k, 5), Status::kOk);
  store.hlog().ShiftReadOnlyToTail(true);
  // Delete every third key (tombstones append).
  for (uint64_t k = 0; k < kKeys; k += 3) ASSERT_EQ(store.Delete(k), Status::kOk);
  store.hlog().ShiftReadOnlyToTail(true);

  ASSERT_EQ(store.CompactLog(store.hlog().safe_read_only_address(), nullptr),
            Status::kOk);
  for (uint64_t k = 0; k < kKeys; k += 331) {
    Status s;
    uint64_t v = MustRead(store, k, &s);
    if (k % 3 == 0) {
      EXPECT_NE(s, Status::kOk) << "deleted key " << k << " resurrected";
    } else {
      EXPECT_EQ(s, Status::kOk);
      EXPECT_EQ(v, 5u);
    }
  }
  store.StopSession();
}

TEST_F(CompactionTest, CompactionShrinksLiveLog) {
  auto cfg = Cfg(2, 0.5);
  cfg.force_rcu = true;  // append-only: heavy churn creates dead versions
  Store store{cfg, &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 20000;
  // Heavy churn on a small key set: most of the log is dead versions.
  std::mt19937_64 rng(3);
  for (uint64_t i = 0; i < 400000; ++i) {
    ASSERT_EQ(store.Upsert(rng() % kKeys, i), Status::kOk);
  }
  store.hlog().ShiftReadOnlyToTail(true);
  Address until = store.hlog().safe_read_only_address();
  uint64_t log_size_before =
      store.hlog().tail_address() - store.hlog().begin_address();
  Store::CompactionStats stats;
  ASSERT_EQ(store.CompactLog(until, &stats), Status::kOk);
  // The copied set is bounded by the number of live keys, which is tiny
  // compared to the scanned dead versions.
  EXPECT_LE(stats.copied, kKeys);
  EXPECT_GT(stats.scanned, stats.copied * 4);
  uint64_t live_after =
      store.hlog().tail_address() - store.hlog().begin_address();
  EXPECT_LT(live_after, log_size_before);
  store.StopSession();
}

TEST_F(CompactionTest, ConcurrentUpdatesDuringCompaction) {
  Store store{Cfg(4, 0.5), &device_};
  store.StartSession();
  constexpr uint64_t kKeys = 100000;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_EQ(store.Upsert(k, 1), Status::kOk);
  store.StopSession();

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    store.StartSession();
    std::mt19937_64 rng(11);
    while (!stop.load()) {
      store.Upsert(rng() % kKeys, 7);
      store.CompletePending(false);
    }
    store.StopSession();
  });

  store.StartSession();
  Address until{store.hlog().safe_read_only_address().control() / 2};
  ASSERT_EQ(store.CompactLog(until, nullptr), Status::kOk);
  store.StopSession();
  stop.store(true);
  mutator.join();

  store.StartSession();
  for (uint64_t k = 0; k < kKeys; k += 1009) {
    Status s;
    uint64_t v = MustRead(store, k, &s);
    ASSERT_EQ(s, Status::kOk) << "key " << k;
    ASSERT_TRUE(v == 1 || v == 7) << "key " << k << " value " << v;
  }
  store.StopSession();
}

TEST_F(CompactionTest, ExpirationTruncationDropsPrefix) {
  Store store{Cfg(8, 0.5), &device_};
  store.StartSession();
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  Address cut = store.hlog().tail_address();
  for (uint64_t k = 1000; k < 2000; ++k) ASSERT_EQ(store.Upsert(k, k), Status::kOk);
  ASSERT_TRUE(store.ShiftBeginAddress(cut));
  // Expired prefix: gone. Suffix: intact.
  Status s;
  MustRead(store, 5, &s);
  EXPECT_EQ(s, Status::kNotFound);
  EXPECT_EQ(MustRead(store, 1500, &s), 1500u);
  EXPECT_EQ(s, Status::kOk);
  store.StopSession();
}

}  // namespace
}  // namespace faster
