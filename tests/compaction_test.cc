// Tests for log garbage collection (Appendix C): expiration-based
// truncation (ShiftBeginAddress) and roll-to-tail compaction (CompactLog),
// including the overwrite-bit fast path, failed reads, and compaction ops
// with storage reads in flight together.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "core/faster.h"
#include "core/functions.h"
#include "device/memory_device.h"
#include "parking_device.h"

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

// Writes keys [0, keys) once, makes them read-only, writes the even keys
// again, and writes fresh keys until the head passes both rounds; returns
// the end of the first round. Compacting up to it then finds each odd
// key's only record on storage (copied without a read, unless another key
// shares its chain), and each even key's first record dead after one
// storage read of its newer record.
Address TwoRoundsOnStorage(Store& store, uint64_t keys) {
  for (uint64_t k = 0; k < keys; ++k) {
    EXPECT_EQ(store.Upsert(k, 1), Status::kOk);
  }
  Address first_round = store.hlog().tail_address();
  store.hlog().ShiftReadOnlyToTail(/*wait=*/true);  // no in-place updates
  for (uint64_t k = 0; k < keys; k += 2) {
    EXPECT_EQ(store.Upsert(k, 2), Status::kOk);
  }
  Address second_round = store.hlog().tail_address();
  for (uint64_t k = keys; store.hlog().head_address() <= second_round; ++k) {
    EXPECT_EQ(store.Upsert(k, k), Status::kOk);
  }
  return first_round;
}

// Fails, once, the `fail_at`-th read of one kind from now on through its
// callback, and records its offset; every other read goes through. The
// kinds: the log walk's page reads, and record-sized reads (a pending
// compaction op's chain hops).
class FailNthReadDevice : public MemoryDevice {
 public:
  Status ReadAsync(uint64_t offset, void* dst, uint32_t len,
                   IoCallback callback, void* context) override {
    bool page = len > sizeof(Store::RecordT);
    if (page == fail_page_reads && ++reads == fail_at) {
      failed_offset = offset;
      callback(context, Status::kIoError, 0);
      return Status::kOk;
    }
    return MemoryDevice::ReadAsync(offset, dst, len, callback, context);
  }
  bool fail_page_reads = true;
  uint64_t reads = 0;  // of the kind that fails
  uint64_t fail_at = 0;
  uint64_t failed_offset = 0;
};

// A storage read that fails mid-compaction ends it with kIoError and
// truncates only below the records it did not finish: once the device
// heals, every key still reads its newest value. Two cases: the log
// walk's second page read fails, or a pending compaction op's 100th chain
// hop read does.
TEST(CompactionFailureTest, FailedReadKeepsUnexaminedRecords) {
  for (bool page : {true, false}) {
    SCOPED_TRACE(page ? "page read" : "chain hop read");
    FailNthReadDevice device;
    Store store{Cfg(2), &device};
    store.StartSession();
    // The page read that fails is the second, so that case spans two
    // pages; a hundred chain hops need far fewer keys.
    const uint64_t keys = page ? 200000 : 20000;
    Address until = TwoRoundsOnStorage(store, keys);
    if (page) {
      ASSERT_GT(until.page(), 0u) << "the range must span two pages";
    }

    device.fail_page_reads = page;
    device.reads = 0;
    device.fail_at = page ? 2 : 100;
    EXPECT_EQ(store.CompactLog(until), Status::kIoError);
    ASSERT_NE(device.failed_offset, 0u) << "the failure must have fired";
    EXPECT_LE(store.hlog().begin_address(), Address{device.failed_offset});
    for (uint64_t k = 0; k < keys; ++k) {
      Status s;
      ASSERT_EQ(MustRead(store, k, &s), k % 2 == 0 ? 2u : 1u) << k;
      ASSERT_EQ(s, Status::kOk) << k;
    }
    store.StopSession();
  }
}

// A pass keeps its compaction ops' storage reads in flight together, up to
// Store::kBatchChunk: on a device that parks reads until a poller thread
// runs them, the poller finds more than one parked at once. The ops report
// to the pass, never to the completion callback.
TEST(CompactionInFlightTest, StorageReadsOverlap) {
  ParkingDevice device;
  device.set_parking(false);  // the setup's reads complete at submit
  static std::atomic<uint32_t> callbacks;
  callbacks.store(0, std::memory_order_relaxed);  // the test may repeat
  Store::Config cfg = Cfg(2);
  cfg.completion_callback = [](Store::UserOp, Status, void*) {
    callbacks.fetch_add(1, std::memory_order_relaxed);
  };
  Store store{cfg, &device};
  store.StartSession();
  constexpr uint64_t kKeys = 2000;
  Address until = TwoRoundsOnStorage(store, kKeys);

  device.set_parking(true);
  std::atomic<bool> done{false};
  uint32_t most = 0;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      // Let reads gather; one read in flight at a time still runs after
      // the wait, so a pass that issues them one by one ends too.
      auto until_ns = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(1);
      while (device.parked() < 2 && !done.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < until_ns) {
        std::this_thread::yield();
      }
      most = std::max(most, device.PollAll());
    }
  });
  Status compacted = store.CompactLog(until);
  done.store(true, std::memory_order_release);
  poller.join();
  device.set_parking(false);
  EXPECT_EQ(device.PollAll(), 0u);
  EXPECT_EQ(compacted, Status::kOk);
  // The pass waits at kBatchChunk ops in flight, and reads its next page
  // only below that.
  EXPECT_GE(most, 2u) << "reads in flight at once";
  EXPECT_LE(most, Store::kBatchChunk);
  EXPECT_EQ(callbacks.load(std::memory_order_relaxed), 0u);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(MustRead(store, k), k % 2 == 0 ? 2u : 1u) << k;
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
